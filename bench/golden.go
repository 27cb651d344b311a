package main

// Committed goldens: each workload's output hash and folded state digest at
// full and smoke size for seed 1 and the held-out seed 2. A speed-only
// change must leave them bit-identical; -record-golden rewrites the file
// from fresh runs, so no number in it is edited by hand.

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
)

//go:embed golden.json
var goldenJSON []byte

// goldenSeeds are the seeds the golden file pins.
var goldenSeeds = []int64{1, 2}

const (
	goldenOK        = "ok"
	goldenUnchecked = "unchecked"
	goldenMismatch  = "mismatch"
)

// goldenEntry is one (workload, size, seed) record, as 16-digit hex.
type goldenEntry struct {
	Hash   string `json:"hash"`
	Digest string `json:"digest"`
}

// goldenSet maps workload -> size -> seed -> entry.
type goldenSet map[string]map[string]map[string]goldenEntry

func loadGolden(data []byte) (goldenSet, error) {
	var g goldenSet
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("golden: %w", err)
	}
	return g, nil
}

func hex64(v uint64) string { return fmt.Sprintf("%016x", v) }

// verify compares a run's outputs with the golden; digest 0 means the run
// recorded none, and it is then not compared.
func (g goldenSet) verify(workload, size string, seed int64, hash, digest uint64) string {
	e, ok := g[workload][size][strconv.FormatInt(seed, 10)]
	if !ok {
		return goldenUnchecked
	}
	if e.Hash != hex64(hash) || (digest != 0 && e.Digest != hex64(digest)) {
		return goldenMismatch
	}
	return goldenOK
}

// recordGolden runs every workload once per golden size and seed, traced
// (digesting every epoch) and untraced, requires both to produce the same
// outputs, and writes the goldens to path.
func recordGolden(path string) error {
	g := goldenSet{}
	for _, w := range workloads {
		g[w.name] = map[string]map[string]goldenEntry{}
		for _, size := range []string{"full", "smoke"} {
			g[w.name][size] = map[string]goldenEntry{}
			for _, seed := range goldenSeeds {
				var hashes [2]uint64
				var dig uint64
				for i, traced := range []bool{false, true} {
					s, err := runUnit(w, seed, size, traced)
					if err != nil {
						return fmt.Errorf("%s size %s seed %d: %w", w.name, size, seed, err)
					}
					hashes[i], dig = s.Hash, s.Digest
				}
				if hashes[0] != hashes[1] {
					return fmt.Errorf("%s size %s seed %d: outputs differ with state digesting on (%016x) and off (%016x)",
						w.name, size, seed, hashes[1], hashes[0])
				}
				g[w.name][size][strconv.FormatInt(seed, 10)] = goldenEntry{Hash: hex64(hashes[0]), Digest: hex64(dig)}
				fmt.Fprintf(os.Stderr, "golden %s %s seed %d: hash %016x digest %016x\n", w.name, size, seed, hashes[0], dig)
			}
		}
	}
	out, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
