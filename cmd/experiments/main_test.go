package main

import (
	"strings"
	"testing"

	"ugpu/internal/experiments"
)

// TestFigureIDs pins the valid-figure list the unknown -fig error prints:
// every generator is named, the power figure is present, and there are no
// duplicate ids (a duplicate would make one figure unreachable by -fig).
func TestFigureIDs(t *testing.T) {
	ids := figureIDs()
	if len(ids) == 0 {
		t.Fatal("no figure ids")
	}
	seen := map[string]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Errorf("duplicate figure id %q", id)
		}
		seen[id] = true
	}
	for _, want := range []string{"table2", "10", "faults", "serve", "failover", "power", "gray"} {
		if !seen[want] {
			t.Errorf("figure id %q missing from %v", want, ids)
		}
	}
	if msg := strings.Join(ids, ", "); !strings.Contains(msg, "power") {
		t.Errorf("error-message list %q does not mention power", msg)
	}
}

// TestSelectGens pins -fig resolution: "all" selects every figure, a list
// runs in gensFor order with duplicates folded, and any unknown or empty
// token rejects the whole spec (main exits 2 with the valid list) instead of
// being dropped.
func TestSelectGens(t *testing.T) {
	opt := experiments.Default()
	for _, tc := range []struct {
		spec string
		want []string // nil: the spec must be rejected
	}{
		{"all", figureIDs()},
		{"ALL", figureIDs()},
		{"micro", []string{"micro"}},
		{"14, 10,micro", []string{"10", "14", "micro"}},
		{"10,10", []string{"10"}},
		{"all,power", figureIDs()},
		{"micro,bogus", nil},
		{"bogus", nil},
		{"micro,", nil},
		{",micro", nil},
		{"", nil},
		{"all,bogus", nil},
	} {
		gens, err := selectGens(opt, tc.spec)
		if tc.want == nil {
			if err == nil {
				t.Errorf("selectGens(%q) accepted, want an error", tc.spec)
			} else if !strings.Contains(err.Error(), strings.Join(figureIDs(), ", ")) {
				t.Errorf("selectGens(%q) error %q does not list the valid ids", tc.spec, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("selectGens(%q) = %v", tc.spec, err)
			continue
		}
		got := make([]string, len(gens))
		for i, g := range gens {
			got[i] = g.id
		}
		if strings.Join(got, ",") != strings.Join(tc.want, ",") {
			t.Errorf("selectGens(%q) = %v, want %v", tc.spec, got, tc.want)
		}
	}
}

// TestCheckGraySpec pins the -gray-faults usage-error path: a malformed
// spec is rejected before any figure runs (main prints the grammar and
// exits 2), while the empty default and a well-formed spec pass.
func TestCheckGraySpec(t *testing.T) {
	for _, ok := range []string{"", "none", "gpus=1", "gpus=2,sm=3,hbm=1,noc=0.005,window=0.25"} {
		if err := checkGraySpec(ok); err != nil {
			t.Errorf("checkGraySpec(%q) = %v, want nil", ok, err)
		}
	}
	for _, bad := range []string{"noc=2", "gpus=-1", "window=0", "bogus=1", "gpus"} {
		err := checkGraySpec(bad)
		if err == nil {
			t.Errorf("checkGraySpec(%q) = nil, want error", bad)
			continue
		}
		if !strings.Contains(err.Error(), "-gray-faults") {
			t.Errorf("checkGraySpec(%q) error %q does not name the flag", bad, err)
		}
		if !strings.Contains(err.Error(), "grammar:") {
			t.Errorf("checkGraySpec(%q) error %q does not cite the grammar", bad, err)
		}
	}
}
