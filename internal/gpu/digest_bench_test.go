package gpu

// Digest cost contract (ISSUE 9): a full per-component state digest is taken
// once per epoch when -digest is on, so its budget is relative to an epoch's
// simulation cost — at most 2% of the ns spent simulating EpochCycles cycles.
// When digesting is off nothing in the per-cycle hot path references the
// digest code at all (the only call site is the epoch-boundary gate in
// core.Runner.Step), so the disabled cost is structurally zero.

import (
	"sort"
	"testing"
	"time"

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
// Each pair builds the same warm machine and, at each of a few epoch
// boundaries, times a batch of snapshots and then the epoch's cycles. Every
// pair does identical work and both sides of its ratio are sampled
// alternately over the same span, so they see the same host load; the
// median ratio over the pairs must hold the budget.
func TestDigestOverheadWithinBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-ratio test")
	}
	const pairs, epochs, snaps = 7, 4, 25
	epochCycles := testConfig().EpochCycles
	pct := make([]float64, pairs)
	for i := range pct {
		g := pairGPU(t, nil)
		g.Run(20_000)
		var rec digest.Recorder
		g.DigestComponents(&rec) // warm the label and closure caches
		var snap, epoch time.Duration
		for range epochs {
			start := time.Now()
			for range snaps {
				g.DigestComponents(&rec)
			}
			snap += time.Since(start)
			start = time.Now()
			g.Run(uint64(epochCycles))
			epoch += time.Since(start)
		}
		pct[i] = 100 * float64(snap) / snaps / float64(epoch)
	}
	sort.Float64s(pct)
	t.Logf("digest snapshot vs epoch (%d cycles), sorted over %d pairs: %.3f%% overhead", epochCycles, pairs, pct)
	if med := pct[pairs/2]; med > 2 {
		t.Errorf("per-epoch digest overhead %.2f%% (median of %.3f) exceeds the 2%% budget", med, pct)
	}
}
