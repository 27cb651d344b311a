package gpu

import (
	"testing"

	"ugpu/internal/config"
	"ugpu/internal/dram"
	"ugpu/internal/trace"
	"ugpu/internal/workload"
)

// testConfig shrinks the run scale so integration tests stay fast while
// keeping the Table 1 geometry.
func testConfig() config.Config {
	cfg := config.Default()
	cfg.EpochCycles = 20_000
	cfg.MaxCycles = 60_000
	return cfg
}

func bench(tb testing.TB, abbr string) workload.Benchmark {
	tb.Helper()
	b, err := workload.ByAbbr(abbr)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// pairGPU builds the busy two-tenant machine that the hot-path benchmarks,
// the steady-state allocation tests and the digest cost test share: LBM and
// DXTC on 40 SMs and four channel groups each, footprints divided by 64,
// with tr attached (nil for no tracer).
func pairGPU(tb testing.TB, tr *trace.Tracer) *GPU {
	tb.Helper()
	opt := DefaultOptions()
	opt.FootprintScale = 64
	opt.Trace = tr
	g, err := New(testConfig(), []AppSpec{
		{Bench: bench(tb, "LBM"), SMs: 40, Groups: []int{0, 1, 2, 3}},
		{Bench: bench(tb, "DXTC"), SMs: 40, Groups: []int{4, 5, 6, 7}},
	}, opt)
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

func testOptions() Options {
	opt := DefaultOptions()
	opt.CheckReads = true
	opt.FootprintScale = 64
	return opt
}

func evenSplit(t *testing.T, a, b string) *GPU {
	t.Helper()
	g, err := New(testConfig(), []AppSpec{
		{Bench: bench(t, a), SMs: 40, Groups: []int{0, 1, 2, 3}},
		{Bench: bench(t, b), SMs: 40, Groups: []int{4, 5, 6, 7}},
	}, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewValidation(t *testing.T) {
	cfg := testConfig()
	pvc := bench(t, "PVC")
	tooMany := make([]AppSpec, MaxApps+1)
	for i := range tooMany {
		tooMany[i] = AppSpec{Bench: pvc, SMs: 1, Groups: []int{0}}
	}
	cases := []struct {
		name  string
		specs []AppSpec
	}{
		{"zero SMs", []AppSpec{{Bench: pvc, SMs: 0, Groups: []int{0}}}},
		{"no groups", []AppSpec{{Bench: pvc, SMs: 4}}},
		{"too many SMs", []AppSpec{{Bench: pvc, SMs: 81, Groups: []int{0}}}},
		{"invalid group", []AppSpec{{Bench: pvc, SMs: 4, Groups: []int{0, 8}}}},
		{"too many apps", tooMany},
	}
	for _, c := range cases {
		if _, err := New(cfg, c.specs, testOptions()); err == nil {
			t.Errorf("%s: New accepted invalid spec", c.name)
		}
	}
	// An empty GPU is valid: the online serving layer starts with zero
	// tenants and attaches them as they arrive.
	if _, err := New(cfg, nil, testOptions()); err != nil {
		t.Errorf("New rejected empty tenant list: %v", err)
	}
}

func TestComputeBoundSoloIPCNearPeak(t *testing.T) {
	g, err := New(testConfig(), []AppSpec{
		{Bench: bench(t, "DXTC"), SMs: 80, Groups: []int{0, 1, 2, 3, 4, 5, 6, 7}},
	}, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	g.Run(40_000)
	st := g.EndEpoch()[0]
	// 80 SMs x 2 issue slots = 160 peak.
	if ipc := st.IPC(); ipc < 140 {
		t.Errorf("DXTC solo IPC = %.1f, want >= 140 (peak 160)", ipc)
	}
}

func TestComputeBoundScalesWithSMs(t *testing.T) {
	ipcWith := func(sms int) float64 {
		g, err := New(testConfig(), []AppSpec{
			{Bench: bench(t, "DXTC"), SMs: sms, Groups: []int{0, 1, 2, 3}},
		}, testOptions())
		if err != nil {
			t.Fatal(err)
		}
		g.Run(40_000)
		return g.EndEpoch()[0].IPC()
	}
	small, large := ipcWith(20), ipcWith(80)
	if ratio := large / small; ratio < 3.2 {
		t.Errorf("DXTC 80-SM/20-SM IPC ratio = %.2f, want near 4 (Figure 2b linear scaling)", ratio)
	}
}

func TestMemoryBoundScalesWithChannels(t *testing.T) {
	ipcWith := func(groups []int) float64 {
		g, err := New(testConfig(), []AppSpec{
			{Bench: bench(t, "PVC"), SMs: 40, Groups: groups},
		}, testOptions())
		if err != nil {
			t.Fatal(err)
		}
		g.Run(40_000)
		return g.EndEpoch()[0].IPC()
	}
	few := ipcWith([]int{0})
	many := ipcWith([]int{0, 1, 2, 3, 4, 5, 6, 7})
	if ratio := many / few; ratio < 2.0 {
		t.Errorf("PVC 8-group/1-group IPC ratio = %.2f, want >= 2 (Figure 3a bandwidth scaling)", ratio)
	}
}

func TestMemoryBoundInsensitiveToSMs(t *testing.T) {
	// Figure 3b: halving a memory-bound app's SMs should barely change its
	// steady-state performance while bandwidth is the bottleneck. A warm-up
	// epoch is discarded so the deep-MLP fill transient does not pollute
	// the measurement.
	ipcWith := func(sms int) float64 {
		g, err := New(testConfig(), []AppSpec{
			{Bench: bench(t, "PVC"), SMs: sms, Groups: []int{0, 1}},
		}, testOptions())
		if err != nil {
			t.Fatal(err)
		}
		g.Run(40_000)
		g.EndEpoch()
		g.Run(40_000)
		return g.EndEpoch()[0].IPC()
	}
	half, full := ipcWith(40), ipcWith(80)
	if half < full*0.6 {
		t.Errorf("PVC IPC at 40 SMs = %.1f vs 80 SMs = %.1f; memory-bound app should be SM-insensitive", half, full)
	}
}

func TestIsolationBetweenSlices(t *testing.T) {
	// A co-running app on disjoint SMs and channel groups must not slow the
	// other down by more than a small interference margin (shared L2
	// TLB/PTW remain shared, as in the paper).
	solo := func() float64 {
		g, err := New(testConfig(), []AppSpec{
			{Bench: bench(t, "DXTC"), SMs: 40, Groups: []int{0, 1, 2, 3}},
		}, testOptions())
		if err != nil {
			t.Fatal(err)
		}
		g.Run(30_000)
		return g.EndEpoch()[0].IPC()
	}()
	co := func() float64 {
		g := evenSplit(t, "DXTC", "PVC")
		g.Run(30_000)
		return g.EndEpoch()[0].IPC()
	}()
	if co < solo*0.95 {
		t.Errorf("DXTC IPC drops from %.1f solo to %.1f with isolated co-runner", solo, co)
	}
}

func TestEpochStatsProfile(t *testing.T) {
	g := evenSplit(t, "PVC", "DXTC")
	g.Run(30_000)
	stats := g.EndEpoch()
	pvc, dxtc := stats[0], stats[1]
	if pvc.APKI() < 10*dxtc.APKI() {
		t.Errorf("PVC APKI %.2f not >> DXTC APKI %.2f", pvc.APKI(), dxtc.APKI())
	}
	if pvc.DRAMLines < 100*dxtc.DRAMLines/10 && pvc.DRAMLines < dxtc.DRAMLines*10 {
		t.Errorf("PVC DRAM lines %d not >> DXTC %d", pvc.DRAMLines, dxtc.DRAMLines)
	}
	if pvc.SMs != 40 || pvc.Groups != 4 {
		t.Errorf("PVC partition = %d SMs / %d groups, want 40/4", pvc.SMs, pvc.Groups)
	}
	if dxtc.HitRate() < 0.5 {
		t.Errorf("DXTC LLC hit rate = %.2f, want high (hot set fits)", dxtc.HitRate())
	}
	// Second epoch stats are deltas, not cumulative.
	g.Run(30_000)
	stats2 := g.EndEpoch()
	if stats2[0].Cycles != 30_000 {
		t.Errorf("second epoch cycles = %d, want 30000", stats2[0].Cycles)
	}
}

func TestSMReallocation(t *testing.T) {
	g := evenSplit(t, "PVC", "DXTC")
	g.Run(20_000)
	if err := g.MoveSMs(g.Cycle(), 0, 1, 20); err != nil {
		t.Fatal(err)
	}
	g.Run(40_000)
	if got := len(g.Apps()[0].SMs); got != 20 {
		t.Errorf("app 0 has %d SMs after move, want 20", got)
	}
	if got := len(g.Apps()[1].SMs); got != 60 {
		t.Errorf("app 1 has %d SMs after move, want 60", got)
	}
	// Moved SMs must actually run the new app.
	owned := 0
	for i := 0; i < 80; i++ {
		if g.SM(i).AppID() == 1 {
			owned++
		}
	}
	if owned != 60 {
		t.Errorf("%d SMs executing app 1, want 60", owned)
	}
	// Cannot take an app's last SM.
	if err := g.MoveSMs(g.Cycle(), 0, 1, 20); err == nil {
		t.Error("MoveSMs allowed taking every SM")
	}
}

func TestChannelReallocationMigratesAndStaysCorrect(t *testing.T) {
	g := evenSplit(t, "PVC", "DXTC")
	g.Run(20_000)
	// Swap two groups from DXTC to PVC.
	if err := g.ApplyPartition(g.Cycle(), []Partition{
		{SMs: 40, Groups: []int{0, 1, 2, 3, 4, 5}},
		{SMs: 40, Groups: []int{6, 7}},
	}); err != nil {
		t.Fatal(err)
	}
	g.Run(60_000) // CheckReads samples correctness throughout
	if g.Totals().FaultMigrations == 0 {
		t.Error("no fault-driven migrations after channel reallocation")
	}
	if g.VM().Stats().Migrations == 0 {
		t.Error("no migrations committed")
	}
	if err := g.VM().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	dataMig, _ := g.ReallocationOverhead()
	if dataMig == 0 {
		t.Error("migration overhead cycles not accounted")
	}
}

func TestUnbalancedBeatsBalancedForHeteroPair(t *testing.T) {
	// The headline effect: PVC_DXTC under an unbalanced partition (fewer
	// SMs + more channels for PVC) must beat the balanced split.
	run := func(parts []Partition) (float64, float64) {
		g := evenSplit(t, "PVC", "DXTC")
		if parts != nil {
			if err := g.ApplyPartition(0, parts); err != nil {
				t.Fatal(err)
			}
		}
		g.Run(20_000) // transient
		g.EndEpoch()
		g.Run(40_000)
		st := g.EndEpoch()
		return st[0].IPC(), st[1].IPC()
	}
	bp0, bp1 := run(nil)
	ug0, ug1 := run([]Partition{
		{SMs: 20, Groups: []int{0, 1, 2, 3, 4, 5}},
		{SMs: 60, Groups: []int{6, 7}},
	})
	if ug1 < bp1*1.2 {
		t.Errorf("DXTC: unbalanced IPC %.1f not >> balanced %.1f", ug1, bp1)
	}
	if ug0 < bp0*0.8 {
		t.Errorf("PVC: unbalanced IPC %.1f collapsed vs balanced %.1f", ug0, bp0)
	}
	if ug0+ug1 <= bp0+bp1 {
		t.Errorf("system throughput: unbalanced %.1f <= balanced %.1f", ug0+ug1, bp0+bp1)
	}
}

func TestMigrationModesRankInGPU(t *testing.T) {
	// End-to-end Figure 11 shape: after a reallocation, PPMM loses the
	// least performance, cross-stack (Ori, with reshuffle) the most.
	perf := func(mode dram.MigrationMode, reshuffle bool) float64 {
		opt := testOptions()
		opt.MigrationMode = mode
		opt.OriReshuffle = reshuffle
		g, err := New(testConfig(), []AppSpec{
			{Bench: bench(t, "PVC"), SMs: 40, Groups: []int{0, 1, 2, 3}},
			{Bench: bench(t, "DXTC"), SMs: 40, Groups: []int{4, 5, 6, 7}},
		}, opt)
		if err != nil {
			t.Fatal(err)
		}
		g.Run(10_000)
		g.ApplyPartition(g.Cycle(), []Partition{
			{SMs: 30, Groups: []int{0, 1, 2, 3, 4, 5}},
			{SMs: 50, Groups: []int{6, 7}},
		})
		g.Run(40_000)
		g.EndEpoch()
		g.Run(20_000)
		st := g.EndEpoch()
		return st[0].IPC() + st[1].IPC()
	}
	ppmm := perf(dram.ModePPMM, false)
	ori := perf(dram.ModeCrossStack, true)
	if ppmm <= ori {
		t.Errorf("PPMM system IPC %.1f not above UGPU-Ori %.1f", ppmm, ori)
	}
}

func TestMPSModeSharedChannels(t *testing.T) {
	// MPS: both apps share all channel groups; no migrations ever happen.
	opt := testOptions()
	opt.DisableMigration = true
	all := []int{0, 1, 2, 3, 4, 5, 6, 7}
	g, err := New(testConfig(), []AppSpec{
		{Bench: bench(t, "PVC"), SMs: 40, Groups: all},
		{Bench: bench(t, "DXTC"), SMs: 40, Groups: all},
	}, opt)
	if err != nil {
		t.Fatal(err)
	}
	g.Run(40_000)
	if g.VM().Stats().Migrations != 0 {
		t.Error("MPS mode migrated pages")
	}
	st := g.EndEpoch()
	if st[0].IPC() == 0 || st[1].IPC() == 0 {
		t.Error("apps made no progress under MPS")
	}
}

func TestReallocationOverheadResets(t *testing.T) {
	g := evenSplit(t, "PVC", "DXTC")
	g.Run(10_000)
	g.ReallocationOverhead()
	d, s := g.ReallocationOverhead()
	if d != 0 || s != 0 {
		t.Errorf("overhead after reset = (%d, %d), want zero", d, s)
	}
}

func TestFourAppPartition(t *testing.T) {
	g, err := New(testConfig(), []AppSpec{
		{Bench: bench(t, "PVC"), SMs: 20, Groups: []int{0, 1}},
		{Bench: bench(t, "LBM"), SMs: 20, Groups: []int{2, 3}},
		{Bench: bench(t, "DXTC"), SMs: 20, Groups: []int{4, 5}},
		{Bench: bench(t, "CP"), SMs: 20, Groups: []int{6, 7}},
	}, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	g.Run(20_000)
	if err := g.ApplyPartition(g.Cycle(), []Partition{
		{SMs: 10, Groups: []int{0, 1, 2}},
		{SMs: 10, Groups: []int{3, 4, 5}},
		{SMs: 30, Groups: []int{6}},
		{SMs: 30, Groups: []int{7}},
	}); err != nil {
		t.Fatal(err)
	}
	g.Run(40_000)
	want := []int{10, 10, 30, 30}
	for i, app := range g.Apps() {
		if len(app.SMs) != want[i] {
			t.Errorf("app %d has %d SMs, want %d", i, len(app.SMs), want[i])
		}
	}
	if err := g.VM().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for _, st := range g.EndEpoch() {
		if st.Instructions == 0 {
			t.Errorf("app %d made no progress", st.App)
		}
	}
}

func TestDivergentWorkloadNeverStalls(t *testing.T) {
	// Regression: EULER3D (2-line divergent accesses) once deadlocked when a
	// warp hit its MLP bound mid-instruction and was never unblocked. Every
	// epoch must make progress.
	g, err := New(testConfig(), []AppSpec{
		{Bench: bench(t, "EULER3D"), SMs: 40, Groups: []int{0, 1, 2, 3}},
	}, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	for ep := 0; ep < 4; ep++ {
		g.Run(15_000)
		st := g.EndEpoch()[0]
		if st.Instructions == 0 {
			t.Fatalf("epoch %d: divergent workload issued no instructions (deadlock)", ep)
		}
	}
}

func TestRapidRepartitionDoesNotFail(t *testing.T) {
	// Back-to-back partitions while drains are still in flight must clamp,
	// not error, and eventually converge.
	g := evenSplit(t, "PVC", "DXTC")
	g.Run(5_000)
	targets := []Partition{
		{SMs: 20, Groups: []int{0, 1, 2, 3, 4, 5}},
		{SMs: 60, Groups: []int{6, 7}},
	}
	if err := g.ApplyPartition(g.Cycle(), targets); err != nil {
		t.Fatal(err)
	}
	// Immediately repartition again the other way, mid-drain.
	back := []Partition{
		{SMs: 50, Groups: []int{0, 1, 2, 3}},
		{SMs: 30, Groups: []int{4, 5, 6, 7}},
	}
	if err := g.ApplyPartition(g.Cycle(), back); err != nil {
		t.Fatal(err)
	}
	g.Run(60_000)
	// Re-apply so clamped deficits resolve now that drains landed.
	if err := g.ApplyPartition(g.Cycle(), back); err != nil {
		t.Fatal(err)
	}
	g.Run(30_000)
	total := len(g.Apps()[0].SMs) + g.Apps()[0].Inbound() + len(g.Apps()[1].SMs) + g.Apps()[1].Inbound()
	if total != 80 {
		t.Errorf("SMs leaked: %d accounted, want 80", total)
	}
	if err := g.VM().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
