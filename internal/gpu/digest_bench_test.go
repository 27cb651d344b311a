package gpu

// Digest cost contract (ISSUE 9): a full per-component state digest is taken
// once per epoch when -digest is on, so its budget is relative to an epoch's
// simulation cost — at most 2% of the ns spent simulating EpochCycles cycles.
// When digesting is off nothing in the per-cycle hot path references the
// digest code at all (the only call site is the epoch-boundary gate in
// core.Runner.Step), so the disabled cost is structurally zero.

import (
	"testing"

	"ugpu/internal/digest"
)

// BenchmarkStateDigest prices one full DigestComponents snapshot of a warm
// two-tenant machine (the -digest-every=1 per-epoch cost).
func BenchmarkStateDigest(b *testing.B) {
	g := pairGPU(b, nil)
	g.Run(20_000)
	var rec digest.Recorder
	g.DigestComponents(&rec) // warm the label and closure caches
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.DigestComponents(&rec)
	}
}

// TestDigestSteadyStateAllocFree: after the first snapshot warms the
// recorder and the GPU's cached label tables, digesting allocates nothing.
func TestDigestSteadyStateAllocFree(t *testing.T) {
	g := digestGPU(t, nil)
	g.Run(20_000)
	var rec digest.Recorder
	g.DigestComponents(&rec)
	allocs := testing.AllocsPerRun(10, func() {
		g.DigestComponents(&rec)
	})
	if allocs > 0 {
		t.Errorf("DigestComponents allocates %.1f objects per snapshot in steady state, want 0", allocs)
	}
}

// TestDigestOverheadWithinBudget asserts the 2% contract: one snapshot per
// epoch costs at most 2% of the ns the epoch's cycles cost to simulate.
// Both sides are measured with testing.Benchmark on the same warm machine
// shape, so the ratio is robust to absolute machine speed.
func TestDigestOverheadWithinBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-ratio test")
	}
	epochCycles := testConfig().EpochCycles

	cyc := testing.Benchmark(func(b *testing.B) {
		g := pairGPU(b, nil)
		g.Run(20_000)
		b.ResetTimer()
		g.Run(uint64(b.N))
	})
	dig := testing.Benchmark(func(b *testing.B) {
		g := pairGPU(b, nil)
		g.Run(20_000)
		var rec digest.Recorder
		g.DigestComponents(&rec)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g.DigestComponents(&rec)
		}
	})

	epochNs := cyc.NsPerOp() * int64(epochCycles)
	digNs := dig.NsPerOp()
	if epochNs <= 0 {
		t.Fatalf("degenerate cycle benchmark: %v", cyc)
	}
	pct := 100 * float64(digNs) / float64(epochNs)
	t.Logf("digest snapshot %.0f ns vs epoch (%d cycles) %.0f ns: %.3f%% overhead",
		float64(digNs), epochCycles, float64(epochNs), pct)
	if pct > 2 {
		t.Errorf("per-epoch digest overhead %.2f%% exceeds the 2%% budget", pct)
	}
}
