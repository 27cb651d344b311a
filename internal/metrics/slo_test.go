package metrics

import (
	"math"
	"testing"

	"ugpu/internal/workload"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentile(t *testing.T) {
	odd := []float64{3, 1, 2} // unsorted on purpose: Percentile sorts a copy
	even := []float64{4, 1, 3, 2}
	cases := []struct {
		name string
		in   []float64
		p    float64
		want float64
	}{
		{"empty", nil, 50, 0},
		{"single is every percentile/p0", []float64{7}, 0, 7},
		{"single is every percentile/p50", []float64{7}, 50, 7},
		{"single is every percentile/p100", []float64{7}, 100, 7},
		{"odd median", odd, 50, 2},
		{"odd p0", odd, 0, 1},
		{"odd p100", odd, 100, 3},
		{"even median interpolates", even, 50, 2.5},
		{"even p25", even, 25, 1.75},
		{"clamp below", even, -10, 1},
		{"clamp above", even, 110, 4},
		// Bugfix (ISSUE 4): NaN p slipped every clamp (all comparisons are
		// false for NaN), int(NaN*...) produced a negative index, and the
		// closest-rank lookup panicked. NaN asks for no meaningful rank.
		{"NaN percentile", even, math.NaN(), 0},
		// Bugfix (ISSUE 4): NaN samples make sort.Float64s inconsistent and
		// poison interpolation; they are dropped before ranking.
		{"NaN values dropped/median", []float64{math.NaN(), 1, 2, math.NaN(), 3}, 50, 2},
		{"NaN values dropped/p100", []float64{math.NaN(), 1, 2, math.NaN(), 3}, 100, 3},
		{"all-NaN input", []float64{math.NaN(), math.NaN()}, 50, 0},
	}
	for _, c := range cases {
		if got := Percentile(c.in, c.p); !approx(got, c.want) {
			t.Errorf("%s: Percentile(%v, %g) = %g, want %g", c.name, c.in, c.p, got, c.want)
		}
	}
	// The input must not be reordered.
	if odd[0] != 3 || odd[1] != 1 || odd[2] != 2 {
		t.Errorf("Percentile mutated its input: %v", odd)
	}
}

func TestSlowdownEdges(t *testing.T) {
	if got := Slowdown(100, 300, 100); !approx(got, 2) {
		t.Errorf("slowdown = %g, want 2", got)
	}
	if got := Slowdown(100, 300, 0); got != 0 {
		t.Errorf("zero alone reference gave %g", got)
	}
	if got := Slowdown(100, 300, -5); got != 0 {
		t.Errorf("negative alone reference gave %g", got)
	}
	if got := Slowdown(300, 100, 100); got != 0 {
		t.Errorf("finish before arrival gave %g", got)
	}
}

func TestThroughputLossEdges(t *testing.T) {
	if got := ThroughputLoss(0, 5); got != 0 {
		t.Errorf("pre=0 gave %g, want 0 (no healthy baseline)", got)
	}
	if got := ThroughputLoss(-1, 5); got != 0 {
		t.Errorf("pre<0 gave %g, want 0", got)
	}
	if got := ThroughputLoss(10, 5); !approx(got, 0.5) {
		t.Errorf("half throughput gave %g, want 0.5", got)
	}
	// Speed-up across the fault (app inherited a failed neighbour's
	// resources) is a negative loss, not clamped.
	if got := ThroughputLoss(10, 15); !approx(got, -0.5) {
		t.Errorf("speed-up gave %g, want -0.5", got)
	}
}

func TestSTPANTTZeroEntries(t *testing.T) {
	// Zero entries are skipped, not counted as zero contributions.
	if got := STP([]float64{10, 20}, []float64{0, 10}); !approx(got, 2) {
		t.Errorf("STP skipping zero-alone entry = %g, want 2", got)
	}
	// ANTT still divides by the full app count (a stalled app should not
	// improve the mean).
	if got := ANTT([]float64{0, 10}, []float64{10, 20}); !approx(got, 1) {
		t.Errorf("ANTT with one zero-ipc entry = %g, want 1", got)
	}
	if got := STP(nil, nil); got != 0 {
		t.Errorf("STP of empty = %g", got)
	}
}

func TestSLOSpecMet(t *testing.T) {
	spec := SLOSpec{LCSlowdown: 4, BESlowdown: 12}
	if !spec.Met(workload.LatencyCritical, 4) || spec.Met(workload.LatencyCritical, 4.01) {
		t.Error("LC boundary misclassified")
	}
	if !spec.Met(workload.BestEffort, 12) || spec.Met(workload.BestEffort, 12.01) {
		t.Error("BE boundary misclassified")
	}
}

func TestBuildSLOReport(t *testing.T) {
	spec := SLOSpec{LCSlowdown: 4, BESlowdown: 12}
	jobs := []JobOutcome{
		// Completed LC within target: slowdown 2.
		{Class: workload.LatencyCritical, Arrival: 0, Start: 100, Finish: 2000, AloneCycles: 1000},
		// Completed LC past target: slowdown 8.
		{Class: workload.LatencyCritical, Arrival: 0, Start: 4000, Finish: 8000, AloneCycles: 1000},
		// Completed BE within its looser target: slowdown 8.
		{Class: workload.BestEffort, Arrival: 1000, Start: 1100, Finish: 9000, AloneCycles: 1000, Preemptions: 2},
		// Admitted but unfinished.
		{Class: workload.BestEffort, Arrival: 2000, Start: 2100, Finish: -1, AloneCycles: 1000},
		// Rejected.
		{Class: workload.BestEffort, Arrival: 3000, Start: -1, Finish: -1, AloneCycles: 1000, Rejected: true},
	}
	r := BuildSLOReport(jobs, spec, 10_000)
	if r.Jobs != 5 || r.Completed != 3 || r.Rejected != 1 {
		t.Fatalf("counts: %+v", r)
	}
	if r.SLOMet != 2 {
		t.Errorf("SLOMet = %d, want 2", r.SLOMet)
	}
	if r.Preemptions != 2 {
		t.Errorf("Preemptions = %d, want 2", r.Preemptions)
	}
	if !approx(r.RejectRate, 0.2) {
		t.Errorf("RejectRate = %g, want 0.2", r.RejectRate)
	}
	// Goodput: 2 SLO-met jobs x 1000 alone cycles over a 10K horizon.
	if !approx(r.Goodput, 0.2) {
		t.Errorf("Goodput = %g, want 0.2", r.Goodput)
	}
	// Queue delay over the four admitted jobs: (100+4000+100+100)/4.
	if !approx(r.MeanQueueDelay, 1075) {
		t.Errorf("MeanQueueDelay = %g, want 1075", r.MeanQueueDelay)
	}
	// Slowdowns {2, 8, 8}: median 8, mean 6.
	if !approx(r.P50, 8) || !approx(r.MeanSlowdown, 6) {
		t.Errorf("P50 = %g, mean = %g", r.P50, r.MeanSlowdown)
	}
	if r.P99 < r.P95 || r.P95 < r.P50 {
		t.Errorf("percentiles not monotone: %+v", r)
	}

	// Degenerate horizons yield no goodput rather than dividing by zero.
	if got := BuildSLOReport(jobs, spec, 0); got.Goodput != 0 {
		t.Errorf("zero horizon goodput = %g", got.Goodput)
	}
	empty := BuildSLOReport(nil, spec, 1000)
	if empty.Jobs != 0 || empty.Goodput != 0 || empty.RejectRate != 0 || empty.P99 != 0 {
		t.Errorf("empty report = %+v", empty)
	}
}

func TestMetRelaxed(t *testing.T) {
	spec := SLOSpec{LCSlowdown: 6, BESlowdown: 16}
	if spec.MetRelaxed(workload.LatencyCritical, 9, 1) {
		t.Error("9x met the unrelaxed 6x LC target")
	}
	if !spec.MetRelaxed(workload.LatencyCritical, 9, 2) {
		t.Error("9x missed the 2x-relaxed (12x) LC target")
	}
	// relax <= 0 means no relaxation.
	if spec.MetRelaxed(workload.LatencyCritical, 9, 0) {
		t.Error("relax=0 was not treated as 1")
	}
	// BE keeps its own target regardless of the LC relaxation.
	if spec.MetRelaxed(workload.BestEffort, 20, 4) {
		t.Error("relaxation leaked into the BE target")
	}
	if !spec.MetRelaxed(workload.BestEffort, 12, 4) {
		t.Error("in-target BE job judged unmet")
	}
}

func TestShedReasonString(t *testing.T) {
	for r, want := range map[ShedReason]string{
		ShedNone:           "none",
		ShedBrownoutBE:     "brownout-be",
		ShedCircuitBreak:   "circuit-break",
		ShedRetryExhausted: "retry-exhausted",
		ShedReason(99):     "shed(99)",
	} {
		if got := r.String(); got != want {
			t.Errorf("ShedReason(%d).String() = %q, want %q", r, got, want)
		}
	}
}

func TestBuildSLOReportShedAndRelax(t *testing.T) {
	spec := SLOSpec{LCSlowdown: 6, BESlowdown: 16}
	jobs := []JobOutcome{
		// Completed LC job at 9x, judged under a 2x-relaxed target: met.
		{Class: workload.LatencyCritical, Arrival: 0, Start: 100, Finish: 9_000,
			AloneCycles: 1_000, LCRelax: 2},
		// Shed jobs are excluded from completions but counted.
		{Class: workload.BestEffort, Arrival: 10, Start: -1, Finish: -1,
			AloneCycles: 1_000, Shed: ShedBrownoutBE},
		{Class: workload.LatencyCritical, Arrival: 20, Start: -1, Finish: -1,
			AloneCycles: 1_000, Shed: ShedCircuitBreak},
	}
	r := BuildSLOReport(jobs, spec, 10_000)
	if r.Shed != 2 || r.Rejected != 0 {
		t.Fatalf("shed=%d rejected=%d, want 2/0", r.Shed, r.Rejected)
	}
	if r.Completed != 1 || r.SLOMet != 1 || r.Relaxed != 1 {
		t.Fatalf("completed=%d met=%d relaxed=%d, want 1/1/1", r.Completed, r.SLOMet, r.Relaxed)
	}
	if r.LCGoodput != r.Goodput || r.Goodput != 0.1 {
		t.Fatalf("goodput=%g lcGoodput=%g, want both 0.1", r.Goodput, r.LCGoodput)
	}
	// Availability defaults to 1 without failover stats.
	if r.Availability != 1 || r.Crashes != 0 || r.MTTRCycles != 0 || r.LostWork != 0 {
		t.Fatalf("failover defaults wrong: %+v", r)
	}
}

func TestBuildSLOReportFailoverZeroCrashes(t *testing.T) {
	fo := FailoverStats{GPUs: 4, AliveGPUCycles: 4 * 10_000}
	r := BuildSLOReport(nil, DefaultSLO(), 10_000, fo)
	if r.Crashes != 0 || r.MTTRCycles != 0 || r.LostWork != 0 {
		t.Fatalf("zero-crash failover fields wrong: %+v", r)
	}
	if r.Availability != 1 {
		t.Fatalf("availability = %g, want 1", r.Availability)
	}
}

func TestBuildSLOReportFailoverCrashAtLastEpoch(t *testing.T) {
	// A crash with no recovery before the horizon counts the remainder of
	// the window as its repair time.
	fo := FailoverStats{
		GPUs:           2,
		Crashes:        []CrashOutcome{{Cycle: 9_000, GPU: 1, RecoveredAt: -1}},
		AliveGPUCycles: 10_000 + 9_000,
		LostWork:       123,
	}
	r := BuildSLOReport(nil, DefaultSLO(), 10_000, fo)
	if r.Crashes != 1 {
		t.Fatalf("crashes = %d, want 1", r.Crashes)
	}
	if r.MTTRCycles != 1_000 {
		t.Fatalf("MTTR = %g, want 1000 (crash to horizon)", r.MTTRCycles)
	}
	if r.LostWork != 123 {
		t.Fatalf("lost work = %g, want 123", r.LostWork)
	}
	if want := 19_000.0 / 20_000.0; r.Availability != want {
		t.Fatalf("availability = %g, want %g", r.Availability, want)
	}
}

func TestBuildSLOReportFailoverAllGPUsDead(t *testing.T) {
	// Terminal path: every GPU crashed and nothing recovered. In-flight
	// jobs never complete; availability reflects the dead tail.
	jobs := []JobOutcome{
		{Class: workload.LatencyCritical, Arrival: 0, Start: 100, Finish: -1, AloneCycles: 1_000},
	}
	fo := FailoverStats{
		GPUs: 2,
		Crashes: []CrashOutcome{
			{Cycle: 4_000, GPU: 0, RecoveredAt: 5_000},
			{Cycle: 6_000, GPU: 1, RecoveredAt: -1},
		},
		AliveGPUCycles: 4_000 + 6_000,
		LostWork:       500,
	}
	r := BuildSLOReport(jobs, DefaultSLO(), 10_000, fo)
	if r.Completed != 0 || r.Goodput != 0 {
		t.Fatalf("dead cluster completed work: %+v", r)
	}
	if r.Crashes != 2 {
		t.Fatalf("crashes = %d, want 2", r.Crashes)
	}
	if want := (1_000.0 + 4_000.0) / 2; r.MTTRCycles != want {
		t.Fatalf("MTTR = %g, want %g", r.MTTRCycles, want)
	}
	if want := 10_000.0 / 20_000.0; r.Availability != want {
		t.Fatalf("availability = %g, want %g", r.Availability, want)
	}
	// Defensive clamp: inconsistent alive-cycle inputs never exceed [0,1].
	fo.AliveGPUCycles = 1 << 40
	if r := BuildSLOReport(nil, DefaultSLO(), 10_000, fo); r.Availability != 1 {
		t.Fatalf("availability not clamped: %g", r.Availability)
	}
}

// TestBuildSLOReportGrayZeroFaults: with no gray faults and no quarantine,
// the gray fields are all zero and the LC availability degenerates to the
// crash availability — quarantined-but-alive and crashed are distinguishable
// only when quarantine actually happened.
func TestBuildSLOReportGrayZeroFaults(t *testing.T) {
	fo := FailoverStats{GPUs: 4, AliveGPUCycles: 4 * 10_000}
	r := BuildSLOReport(nil, DefaultSLO(), 10_000, fo)
	if r.GrayFaults != 0 || r.GrayDetected != 0 || r.GrayFalsePositives != 0 ||
		r.GrayMissed != 0 || r.GrayDetectEpochs != 0 || r.GraySavedWork != 0 {
		t.Fatalf("zero-gray fields wrong: %+v", r)
	}
	if r.LCAvailability != r.Availability || r.LCAvailability != 1 {
		t.Fatalf("LCAvailability = %g, Availability = %g, want both 1",
			r.LCAvailability, r.Availability)
	}
	// No failover stats at all (single-GPU serve): both default to 1.
	r = BuildSLOReport(nil, DefaultSLO(), 10_000)
	if r.Availability != 1 || r.LCAvailability != 1 {
		t.Fatalf("no-failover availabilities = %g/%g, want 1/1",
			r.Availability, r.LCAvailability)
	}
}

// TestBuildSLOReportGrayQuarantineAlive: a quarantined GPU is alive —
// Availability ignores it, LCAvailability excludes it.
func TestBuildSLOReportGrayQuarantineAlive(t *testing.T) {
	fo := FailoverStats{
		GPUs:           4,
		AliveGPUCycles: 4 * 10_000,
		GrayStats: GrayStats{
			GrayFaults:           1,
			GrayDetected:         1,
			GrayDetectEpochs:     2.5,
			QuarantinedGPUCycles: 6_000, // probed but never recovered: open to horizon
			GraySavedWork:        321,
		},
	}
	r := BuildSLOReport(nil, DefaultSLO(), 10_000, fo)
	if r.Availability != 1 {
		t.Fatalf("availability = %g, want 1 (nothing crashed)", r.Availability)
	}
	if want := (4.0*10_000 - 6_000) / (4.0 * 10_000); r.LCAvailability != want {
		t.Fatalf("LCAvailability = %g, want %g", r.LCAvailability, want)
	}
	if r.GrayDetected != 1 || r.GrayDetectEpochs != 2.5 || r.GraySavedWork != 321 {
		t.Fatalf("gray fields not forwarded: %+v", r)
	}
}

// TestBuildSLOReportGrayQuarantineOverlapsCrash: quarantine time plus crash
// downtime on the same GPU must not push LC availability below zero or above
// the crash availability, even with inconsistent inputs.
func TestBuildSLOReportGrayQuarantineOverlapsCrash(t *testing.T) {
	fo := FailoverStats{
		GPUs:           2,
		Crashes:        []CrashOutcome{{Cycle: 5_000, GPU: 1, RecoveredAt: -1}},
		AliveGPUCycles: 10_000 + 5_000,
		GrayStats: GrayStats{
			GrayFaults:           1,
			GrayDetected:         1,
			QuarantinedGPUCycles: 3_000, // closed at the crash
		},
	}
	r := BuildSLOReport(nil, DefaultSLO(), 10_000, fo)
	if want := 15_000.0 / 20_000.0; r.Availability != want {
		t.Fatalf("availability = %g, want %g", r.Availability, want)
	}
	if want := 12_000.0 / 20_000.0; r.LCAvailability != want {
		t.Fatalf("LCAvailability = %g, want %g", r.LCAvailability, want)
	}
	// Inconsistent input: more quarantine than alive time clamps to 0.
	fo.QuarantinedGPUCycles = 1 << 40
	if r := BuildSLOReport(nil, DefaultSLO(), 10_000, fo); r.LCAvailability != 0 {
		t.Fatalf("over-quarantined LCAvailability = %g, want clamp to 0", r.LCAvailability)
	}
	// LCAvailability never exceeds Availability.
	fo.QuarantinedGPUCycles = 0
	fo.AliveGPUCycles = 1 << 40
	if r := BuildSLOReport(nil, DefaultSLO(), 10_000, fo); r.LCAvailability > r.Availability {
		t.Fatalf("LCAvailability %g > Availability %g", r.LCAvailability, r.Availability)
	}
}
