// Cluster: the multi-GPU cloud extension (Section 6.6). Eight tenants
// arrive at a four-GPU cluster, two per GPU, and each GPU runs its own
// partitioning policy. The example compares three operating points:
// tenants packed onto GPUs in arrival order under balanced (MIG-like)
// partitions, class-aware placement (each GPU gets a memory-bound +
// compute-bound pair) under the same balanced partitions, and class-aware
// placement with UGPU re-partitioning each GPU into unbalanced slices.
// Percentages are relative to class-aware + BP, so the in-order line shows
// what placement alone is worth and the UGPU line what partitioning adds.
package main

import (
	"errors"
	"fmt"
	"log"
	"sort"
	"sync"

	"ugpu"
)

// place assigns tenants to gpus GPUs. In arrival order it fills each GPU
// before the next; class-aware, it sorts memory-bound tenants first
// (stably) and deals round-robin, so every GPU gets one of each class when
// it can.
func place(jobs []ugpu.Benchmark, gpus int, classAware bool) [][]ugpu.Benchmark {
	out := make([][]ugpu.Benchmark, gpus)
	if !classAware {
		per := (len(jobs) + gpus - 1) / gpus
		for i, b := range jobs {
			out[i/per] = append(out[i/per], b)
		}
		return out
	}
	sorted := append([]ugpu.Benchmark(nil), jobs...)
	sort.SliceStable(sorted, func(i, j int) bool {
		return sorted[i].Class == ugpu.MemoryBound && sorted[j].Class != ugpu.MemoryBound
	})
	for i, b := range sorted {
		out[i%gpus] = append(out[i%gpus], b)
	}
	return out
}

// gpuRun is one GPU's outcome.
type gpuRun struct {
	mix       ugpu.Mix
	stp, antt float64
}

// runGPU simulates one GPU's tenants under pol and scores the run against
// solo-run references.
func runGPU(cfg ugpu.Config, tenants []ugpu.Benchmark, pol ugpu.Policy, alone *ugpu.AloneIPC) (gpuRun, error) {
	abbrs := make([]string, len(tenants))
	for i, b := range tenants {
		abbrs[i] = b.Abbr
	}
	mix, err := ugpu.MixOf(abbrs...)
	if err != nil {
		return gpuRun{}, err
	}
	res, err := ugpu.Run(cfg, pol, mix)
	if err != nil {
		return gpuRun{}, err
	}
	ref, err := alone.Table(mix)
	if err != nil {
		return gpuRun{}, err
	}
	stp, antt := ugpu.Score(res, ref)
	return gpuRun{mix: mix, stp: stp, antt: antt}, nil
}

// runCluster simulates every GPU concurrently, each under a fresh policy
// (policies carry state).
func runCluster(cfg ugpu.Config, placed [][]ugpu.Benchmark, policy func() ugpu.Policy, alone *ugpu.AloneIPC) ([]gpuRun, error) {
	runs := make([]gpuRun, len(placed))
	errs := make([]error, len(placed))
	var wg sync.WaitGroup
	for gi, tenants := range placed {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runs[gi], errs[gi] = runGPU(cfg, tenants, policy(), alone)
		}()
	}
	wg.Wait()
	return runs, errors.Join(errs...)
}

func main() {
	cfg := ugpu.DefaultConfig()
	cfg.MaxCycles = 200_000
	cfg.EpochCycles = 40_000

	// Arrival order: memory-bound jobs burst in first (a common pattern —
	// a batch of HPC jobs), then compute-heavy ones.
	var jobs []ugpu.Benchmark
	for _, abbr := range []string{"PVC", "LBM", "EULER3D", "SC", "DXTC", "CP", "HOTSPOT", "MRI-Q"} {
		b, err := ugpu.BenchmarkByName(abbr)
		if err != nil {
			log.Fatal(err)
		}
		jobs = append(jobs, b)
	}
	alone := ugpu.NewAloneIPC(cfg, ugpu.DefaultOptions())

	scenarios := []struct {
		name       string
		classAware bool
		policy     func() ugpu.Policy
	}{
		{"in-order + BP", false, func() ugpu.Policy { return ugpu.NewBP() }},
		{"class-aware + BP", true, func() ugpu.Policy { return ugpu.NewBP() }},
		{"class-aware + UGPU", true, func() ugpu.Policy { return ugpu.NewUGPU(cfg) }},
	}
	results := make([][]gpuRun, len(scenarios))
	stps := make([]float64, len(scenarios))
	for i, sc := range scenarios {
		runs, err := runCluster(cfg, place(jobs, 4, sc.classAware), sc.policy, alone)
		if err != nil {
			log.Fatal(err)
		}
		results[i] = runs
		for _, g := range runs {
			stps[i] += g.stp
		}
	}
	baseline := stps[1]
	for i, sc := range scenarios {
		// Cluster STP sums per-GPU STP; mean ANTT averages tenant slowdowns.
		antt, tenants := 0.0, 0
		for _, g := range results[i] {
			antt += g.antt * float64(len(g.mix.Apps))
			tenants += len(g.mix.Apps)
		}
		fmt.Printf("%-20s cluster STP=%6.3f  mean ANTT=%6.3f  (%+.1f%% vs baseline)\n",
			sc.name, stps[i], antt/float64(tenants), 100*(stps[i]/baseline-1))
		for _, g := range results[i] {
			fmt.Printf("    %-24s STP=%.3f\n", g.mix.Name, g.stp)
		}
	}
}
