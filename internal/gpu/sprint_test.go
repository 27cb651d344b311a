package gpu

// Differential tests for compute sprints (fastforward.go): a sprint skips an
// SM's pure-compute ticks and credits them in closed form, so totals, epoch
// stats, per-epoch state digests and the trace must match the per-cycle
// loop (Options.NoFastForward) — also when a switch, release, fail, drain,
// epoch boundary or a warp's last quota instruction lands inside a sprint,
// and when the watchdog samples progress mid-sprint.

import (
	"bytes"
	"reflect"
	"testing"

	"ugpu/internal/config"
	"ugpu/internal/digest"
	"ugpu/internal/sm"
	"ugpu/internal/trace"
	"ugpu/internal/workload"
)

// sprintBench is a one-kernel compute-bound benchmark: memFrac of its
// instructions load (with two loads in flight per warp at most, so warps
// block), and each warp issues instr instructions.
func sprintBench(memFrac float64, instr int) workload.Benchmark {
	k := workload.Kernel{MemFraction: memFrac, StrideBytes: 32, HotProb: 0.5, HotPages: 16,
		InstrPerWarp: instr, TBs: 64, Divergence: 1, MaxOutstanding: 2}
	return workload.Benchmark{Name: "sprint", Abbr: "SPR", FootprintMB: 64, Kernels: []workload.Kernel{k}}
}

// sprintCase is one differential scenario: a machine, a run length, and an
// optional action applied to SM target at the first cycle at or after from
// at which the fast-forward run has that SM mid-sprint.
type sprintCase struct {
	name     string
	cfg      func(*config.Config)
	specs    func(testing.TB) []AppSpec
	epoch    uint64
	epochs   int
	from     uint64
	target   int
	act      func(g *GPU, target int)
	boundary bool // some epoch boundary must land inside a sprint
}

// sprintRun is every observable output a sprint could disturb.
type sprintRun struct {
	Totals  Totals
	Epochs  []EpochStats
	Digests []digest.Hash
	Active  uint64
	SMs     []uint64 // per-SM TBsCompleted
	Trace   string

	boundarySprints int // SMs mid-sprint at epoch boundaries (fast-forward only)
}

func (sc sprintCase) gpu(tb testing.TB, noFF bool) *GPU {
	tb.Helper()
	cfg := testConfig()
	if sc.cfg != nil {
		sc.cfg(&cfg)
	}
	opt := testOptions()
	opt.NoFastForward = noFF
	opt.Trace = trace.New(1 << 14)
	g, err := New(cfg, sc.specs(tb), opt)
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// sprinting reports whether SM id will skip its tick at the current cycle.
func (g *GPU) sprinting(id int) bool {
	return g.sprintEnd != nil && g.sprintEnd[id] > g.cycle
}

// midSprint reports whether SM id is sprinting with skipped ticks behind it
// that are not yet credited.
func (g *GPU) midSprint(id int) bool {
	return g.sprinting(id) && g.sprintFrom[id] < g.cycle
}

// actionCycle finds the first cycle at or after sc.from at which a
// fast-forward run has sc.target mid-sprint.
func (sc sprintCase) actionCycle(t *testing.T) uint64 {
	t.Helper()
	g := sc.gpu(t, false)
	g.Run(sc.from)
	for limit := g.cycle + 50_000; !g.midSprint(sc.target); g.Run(1) {
		if g.cycle >= limit {
			t.Fatalf("SM %d never mid-sprint in [%d, %d)", sc.target, sc.from, limit)
		}
	}
	return g.cycle
}

func (sc sprintCase) run(t *testing.T, noFF bool, at uint64) sprintRun {
	t.Helper()
	g := sc.gpu(t, noFF)
	var out sprintRun
	for e := 1; e <= sc.epochs; e++ {
		end := uint64(e) * sc.epoch
		if sc.act != nil && at > g.cycle && at <= end {
			g.Run(at - g.cycle) // no watchdog sample, which would settle the sprint
			if !noFF && !g.midSprint(sc.target) {
				t.Fatalf("SM %d not mid-sprint at cycle %d", sc.target, g.cycle)
			}
			sc.act(g, sc.target)
		}
		if err := g.RunChecked(end - g.cycle); err != nil {
			t.Fatal(err)
		}
		for id := range g.sms {
			if g.sprinting(id) {
				out.boundarySprints++
			}
		}
		out.Epochs = append(out.Epochs, g.EndEpoch()...)
		out.Digests = append(out.Digests, g.StateDigest())
		if err := g.CheckInvariants(); err != nil {
			t.Fatalf("invariants at cycle %d: %v", g.cycle, err)
		}
	}
	out.Totals = g.Totals()
	out.Active = g.SMActiveCycles()
	for _, s := range g.sms {
		out.SMs = append(out.SMs, s.Stats().TBsCompleted)
	}
	var buf bytes.Buffer
	if err := g.Tracer().WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	out.Trace = buf.String()
	return out
}

func TestSprintMatchesPerCycleLoop(t *testing.T) {
	pair := func(a, b workload.Benchmark, n int) func(testing.TB) []AppSpec {
		return func(testing.TB) []AppSpec {
			return []AppSpec{
				{Bench: a, SMs: n, Groups: []int{0, 1, 2, 3}},
				{Bench: b, SMs: n, Groups: []int{4, 5, 6, 7}},
			}
		}
	}
	spr := sprintBench(0.002, 600)
	moveOne := func(want sm.State) func(*GPU, int) {
		return func(g *GPU, id int) {
			if err := g.MoveSMs(g.cycle, 0, 1, 1); err != nil {
				panic(err)
			}
			if st := g.sms[id].State(); st != want {
				panic("MoveSMs left SM " + st.String() + ", want " + want.String())
			}
		}
	}
	cases := []sprintCase{
		{name: "solo-DXTC", epoch: 10_000, epochs: 3, boundary: true,
			specs: func(tb testing.TB) []AppSpec {
				return []AppSpec{{Bench: bench(tb, "DXTC"), SMs: 80, Groups: []int{0, 1, 2, 3, 4, 5, 6, 7}}}
			}},
		{name: "BH-pair", epoch: 10_000, epochs: 3,
			specs: func(tb testing.TB) []AppSpec { return pair(bench(tb, "BH"), bench(tb, "DXTC"), 40)(tb) }},
		// Warps of 600 instructions with no loads: every sprint ends just
		// before a last quota instruction (or at the cap).
		{name: "last-quota", epoch: 10_000, epochs: 2, boundary: true,
			specs: pair(sprintBench(0, 600), sprintBench(0, 5000), 4)},
		// No thread block has finished yet, so MoveSMs context-switches.
		{name: "switch", epoch: 10_000, epochs: 2, from: 200, target: 3, act: moveOne(sm.Switching),
			specs: pair(spr, spr, 4)},
		// A thread block has finished in well under half an epoch, so
		// MoveSMs drains.
		{name: "drain", epoch: 10_000, epochs: 3, from: 6000, target: 3, act: moveOne(sm.Draining),
			specs: pair(spr, spr, 4)},
		{name: "release", epoch: 10_000, epochs: 2, from: 3000, target: 3, act: func(g *GPU, _ int) {
			if g.ShedSMs(g.cycle, 0, 1) != 1 {
				panic("ShedSMs shed nothing")
			}
		}, specs: pair(spr, spr, 4)},
		{name: "detach", epoch: 10_000, epochs: 2, from: 3000, target: 1, act: func(g *GPU, _ int) {
			if err := g.BeginDetach(g.cycle, 0); err != nil {
				panic(err)
			}
		}, specs: pair(spr, spr, 4)},
		{name: "fail", epoch: 10_000, epochs: 2, from: 3000, target: 2, act: func(g *GPU, id int) { g.failSM(g.cycle, id) },
			specs: pair(spr, spr, 4)},
		// Watchdog windows shorter than a sprint: progressFingerprint must
		// credit sprinted instructions, or a window with only sprinting
		// SMs reads as no progress.
		{name: "watchdog", epoch: 10_000, epochs: 2,
			cfg:   func(c *config.Config) { c.WatchdogCycles = sprintCap / 4 },
			specs: pair(sprintBench(0, 20_000), sprintBench(0, 20_000), 1)},
	}
	for _, sc := range cases {
		t.Run(sc.name, func(t *testing.T) {
			var at uint64
			if sc.act != nil {
				at = sc.actionCycle(t)
			}
			on, off := sc.run(t, false, at), sc.run(t, true, at)
			if sc.boundary && on.boundarySprints == 0 {
				t.Error("no epoch boundary landed inside a sprint")
			}
			if !reflect.DeepEqual(on.Totals, off.Totals) {
				t.Errorf("Totals: sprints %+v, per-cycle %+v", on.Totals, off.Totals)
			}
			if !reflect.DeepEqual(on.Epochs, off.Epochs) {
				t.Errorf("epoch stats: sprints %+v, per-cycle %+v", on.Epochs, off.Epochs)
			}
			for i := range on.Digests {
				if on.Digests[i] != off.Digests[i] {
					t.Fatalf("epoch %d: state digest %#x with sprints, %#x per cycle", i, on.Digests[i], off.Digests[i])
				}
			}
			if on.Active != off.Active || !reflect.DeepEqual(on.SMs, off.SMs) {
				t.Errorf("SM activity: sprints %d %v, per-cycle %d %v", on.Active, on.SMs, off.Active, off.SMs)
			}
			if on.Trace != off.Trace {
				t.Errorf("traces differ")
			}
		})
	}
}
