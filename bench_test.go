package ugpu_test

// One benchmark per table and figure of the paper's evaluation (see
// DESIGN.md's experiment index). Each benchmark regenerates its experiment
// at a reduced scale and reports the headline quantity as custom metrics,
// so `go test -bench=.` both exercises the full pipeline and prints the
// reproduced shape. cmd/experiments runs the same generators at larger
// scale; EXPERIMENTS.md records the paper-vs-measured comparison.

import (
	"testing"

	"ugpu"
	"ugpu/internal/experiments"
)

// benchOptions returns a small-scale experiment setup so the whole bench
// suite stays runnable in minutes on one core.
//
// Parallel is left at its zero value, which the figure generators resolve to
// GOMAXPROCS: every multi-simulation benchmark below therefore fans out
// through the deterministic internal/parallel runner, and its output is
// byte-identical to a serial run (see TestModeMatrix in
// internal/experiments/mode_matrix_test.go).
func benchOptions() experiments.Options {
	opt := experiments.Default()
	opt.Cfg.MaxCycles = 60_000
	opt.Cfg.EpochCycles = 15_000
	opt.Mixes = 2
	opt.FootprintScale = 64
	return opt
}

// value extracts series[s].Values[i] defensively.
func value(f experiments.Figure, s, i int) float64 {
	if s < len(f.Series) && i < len(f.Series[s].Values) {
		return f.Series[s].Values[i]
	}
	return 0
}

func last(f experiments.Figure, s int) float64 {
	if s < len(f.Series) && len(f.Series[s].Values) > 0 {
		return f.Series[s].Values[len(f.Series[s].Values)-1]
	}
	return 0
}

func BenchmarkTable1Validate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := ugpu.DefaultConfig()
		if err := cfg.Validate(); err != nil {
			b.Fatal(err)
		}
		if cfg.NumChannels() != 32 || cfg.LLCBytes() != 6<<20 {
			b.Fatal("Table 1 geometry mismatch")
		}
	}
}

func BenchmarkTable2Profiles(b *testing.B) {
	opt := benchOptions()
	opt.Cfg.MaxCycles = 30_000
	opt.Cfg.EpochCycles = 30_000
	for i := 0; i < b.N; i++ {
		fig, err := opt.Table2Profiles()
		if err != nil {
			b.Fatal(err)
		}
		// Series 2 holds the classification; count memory-bound apps.
		mem := 0.0
		for _, v := range fig.Series[2].Values {
			mem += v
		}
		b.ReportMetric(mem, "memboundapps")
	}
}

func BenchmarkFigure2(b *testing.B) {
	opt := benchOptions()
	opt.Cfg.MaxCycles = 30_000
	for i := 0; i < b.N; i++ {
		fig, err := opt.Figure2()
		if err != nil {
			b.Fatal(err)
		}
		// Compute-bound: 80-SM point of the SM sweep ~ 2x the 40-SM base.
		b.ReportMetric(last(fig, 1), "norm80SM")
	}
}

func BenchmarkFigure3(b *testing.B) {
	opt := benchOptions()
	opt.Cfg.MaxCycles = 30_000
	for i := 0; i < b.N; i++ {
		fig, err := opt.Figure3()
		if err != nil {
			b.Fatal(err)
		}
		// Memory-bound: 32-MC point of the MC sweep should exceed 1.
		b.ReportMetric(last(fig, 0), "norm32MC")
	}
}

func BenchmarkFigure4(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		fig, err := opt.Figure4()
		if err != nil {
			b.Fatal(err)
		}
		// Best observed STP across the surface.
		best := 0.0
		for _, s := range fig.Series {
			for _, v := range s.Values {
				if v > best {
					best = v
				}
			}
		}
		b.ReportMetric(best, "bestSTP")
	}
}

func BenchmarkFigure10(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		fig, err := opt.Figure10()
		if err != nil {
			b.Fatal(err)
		}
		// Series order: BP STP, BP ANTT, BP-BS STP, ..., UGPU STP at 6.
		bp, ug := last(fig, 0), last(fig, 6)
		if bp > 0 {
			b.ReportMetric(ug/bp, "UGPUvsBP_STP")
		}
	}
}

func BenchmarkFigure11(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		fig, err := opt.Figure11()
		if err != nil {
			b.Fatal(err)
		}
		bp, ori, ugpuV := value(fig, 0, 0), value(fig, 0, 1), value(fig, 0, 3)
		if bp > 0 {
			b.ReportMetric(ori/bp, "OrivsBP")
			b.ReportMetric(ugpuV/bp, "UGPUvsBP")
		}
	}
}

func BenchmarkFigure12a(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		fig, err := opt.Figure12a()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(experiments.Mean(fig.Series[0].Values), "meanMigFrac")
	}
}

func BenchmarkFigure12b(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		fig, err := opt.Figure12b()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(experiments.Mean(fig.Series[0].Values), "HBMfrac")
	}
}

func BenchmarkFigure13(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		fig, err := opt.Figure13()
		if err != nil {
			b.Fatal(err)
		}
		cd, ug := value(fig, 2, 0), value(fig, 4, 0)
		if cd > 0 {
			b.ReportMetric(ug/cd, "UGPUvsCDSearch_STP")
		}
	}
}

func BenchmarkFigure14(b *testing.B) {
	opt := benchOptions()
	opt.Mixes = 1
	for i := 0; i < b.N; i++ {
		fig, err := opt.Figure14()
		if err != nil {
			b.Fatal(err)
		}
		// 4-program row: UGPU STP / BP STP.
		bp, ug := value(fig, 0, 0), value(fig, 0, 1)
		if bp > 0 {
			b.ReportMetric(ug/bp, "fourProgGain")
		}
	}
}

func BenchmarkFigure15(b *testing.B) {
	opt := benchOptions()
	opt.Mixes = 2
	for i := 0; i < b.N; i++ {
		fig, err := opt.Figure15()
		if err != nil {
			b.Fatal(err)
		}
		bp, ug := value(fig, 0, 0), value(fig, 0, 1)
		if bp > 0 {
			b.ReportMetric(ug/bp, "aiGain")
		}
	}
}

func BenchmarkFigure16(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		fig, err := opt.Figure16()
		if err != nil {
			b.Fatal(err)
		}
		// UGPU mean NP must hold the 0.75 target.
		b.ReportMetric(value(fig, 2, 0), "ugpuNP")
	}
}

func BenchmarkMigrationMicro(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		fig, err := opt.MigrationMicro()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(value(fig, 0, 0), "ppmmCycles")
		b.ReportMetric(value(fig, 0, 2), "crossStackCycles")
	}
}

func BenchmarkPageSizeSensitivity(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		fig, err := opt.PageSizeSensitivity()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(value(fig, 0, 0), "gain4KB")
		b.ReportMetric(value(fig, 0, 2), "gain16KB")
	}
}
