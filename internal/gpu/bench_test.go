package gpu

// Hot-path benchmarks on the busy two-tenant machine (pairGPU). The
// allocation contract they report is asserted by the steady-state tests in
// alloc_test.go; end-to-end simulator speed is measured by the benchmark
// harness (bash bench/run.sh, see BENCHMARK.json). Run with
//
//	go test -run '^$' -bench . -benchmem ./internal/gpu/

import "testing"

// BenchmarkSimulatorThroughput measures one full 60k-cycle simulation per
// iteration, including construction (steady-state pools amortize within the
// run). ns/op ~= wall-clock per sim; allocs/op is the pooling metric.
func BenchmarkSimulatorThroughput(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := pairGPU(b, nil)
		g.Run(uint64(g.Config().MaxCycles))
		if g.Totals().Loads == 0 {
			b.Fatal("benchmark simulated no loads")
		}
	}
}

// BenchmarkSteadyStateCycles isolates the per-cycle cost after warm-up:
// construction and the first epoch are excluded, so allocs/op measures only
// the recurring tick/memory-path work that the freelists are meant to
// eliminate.
func BenchmarkSteadyStateCycles(b *testing.B) {
	g := pairGPU(b, nil)
	g.Run(20_000) // warm caches, pools, and TLBs
	b.ReportAllocs()
	b.ResetTimer()
	g.Run(uint64(b.N))
}
