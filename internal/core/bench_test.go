package core

import (
	"testing"

	"ugpu/internal/config"
	"ugpu/internal/workload"
)

// BenchmarkCellAllocs prices one figure-sweep cell: a UGPU runner on
// LBM_DXTC, 75 K cycles in 25 K-cycle epochs. "build" is the runner's
// construction alone (GPU, tenants, warps); "cell" is construction plus the
// run. With ReportAllocs the two split a cell's allocations between set-up
// and run phase, which the bench/ harness reports only per workload.
func BenchmarkCellAllocs(b *testing.B) {
	cfg := config.Default()
	cfg.MaxCycles = 75_000
	cfg.EpochCycles = 25_000
	var apps []workload.Benchmark
	for _, abbr := range []string{"LBM", "DXTC"} {
		a, err := workload.ByAbbr(abbr)
		if err != nil {
			b.Fatal(err)
		}
		apps = append(apps, a)
	}
	mix := workload.Mix{Name: "LBM_DXTC", Apps: apps, Hetero: true}
	build := func(b *testing.B) *Runner {
		r, err := NewRunner(cfg, NewUGPU(cfg), mix)
		if err != nil {
			b.Fatal(err)
		}
		return r
	}
	b.Run("build", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			build(b)
		}
	})
	b.Run("cell", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := build(b).Run(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
