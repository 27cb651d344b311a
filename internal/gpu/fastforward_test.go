package gpu

// Differential tests for the fast-forward engine (fastforward.go). The
// engine's contract is that skipping is a pure elision of no-op cycles, so
// every observable output — whole-run totals, per-epoch stats, reallocation
// overhead, energy accounting, and the byte-exact trace stream — must be
// identical with the engine on (the default) and off (Options.NoFastForward),
// healthy and under fault injection.

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"ugpu/internal/fault"
	"ugpu/internal/trace"
)

// ffOutputs captures every observable output of a run.
type ffOutputs struct {
	Totals  Totals
	Epochs  []EpochStats
	Active  uint64
	DataMig uint64
	SMMig   uint64
	Cycle   uint64
	Trace   string
}

// runOutputs executes the standard two-app mix epoch by epoch under the
// given options and captures all observable outputs.
func runOutputs(t *testing.T, opt Options) ffOutputs {
	t.Helper()
	cfg := testConfig()
	tr := trace.New(1 << 14)
	opt.Trace = tr
	g, err := New(cfg, []AppSpec{
		{Bench: bench(t, "LBM"), SMs: 40, Groups: []int{0, 1, 2, 3}},
		{Bench: bench(t, "DXTC"), SMs: 40, Groups: []int{4, 5, 6, 7}},
	}, opt)
	if err != nil {
		t.Fatal(err)
	}
	var out ffOutputs
	for c := 0; c < cfg.MaxCycles; c += cfg.EpochCycles {
		if err := g.RunChecked(uint64(cfg.EpochCycles)); err != nil {
			t.Fatalf("RunChecked: %v", err)
		}
		// EndEpoch's buffer is reused across calls; append copies the values.
		out.Epochs = append(out.Epochs, g.EndEpoch()...)
		if err := g.CheckInvariants(); err != nil {
			t.Fatalf("invariants at cycle %d: %v", g.Cycle(), err)
		}
	}
	out.Totals = g.Totals()
	out.Active = g.SMActiveCycles()
	out.DataMig, out.SMMig = g.ReallocationOverhead()
	out.Cycle = g.Cycle()
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	out.Trace = buf.String()
	return out
}

// diffOutputs asserts two runs produced identical observables, reporting the
// first divergent trace line on mismatch.
func diffOutputs(t *testing.T, on, off ffOutputs) {
	t.Helper()
	if !reflect.DeepEqual(on.Totals, off.Totals) {
		t.Errorf("Totals diverge:\n  ff on:  %+v\n  ff off: %+v", on.Totals, off.Totals)
	}
	if !reflect.DeepEqual(on.Epochs, off.Epochs) {
		t.Errorf("EpochStats diverge:\n  ff on:  %+v\n  ff off: %+v", on.Epochs, off.Epochs)
	}
	if on.Active != off.Active {
		t.Errorf("SMActiveCycles diverge: ff on %d, ff off %d", on.Active, off.Active)
	}
	if on.DataMig != off.DataMig || on.SMMig != off.SMMig {
		t.Errorf("ReallocationOverhead diverges: ff on (%d,%d), ff off (%d,%d)",
			on.DataMig, on.SMMig, off.DataMig, off.SMMig)
	}
	if on.Cycle != off.Cycle {
		t.Errorf("final cycle diverges: ff on %d, ff off %d", on.Cycle, off.Cycle)
	}
	if on.Trace != off.Trace {
		a, b := strings.Split(on.Trace, "\n"), strings.Split(off.Trace, "\n")
		for i := 0; i < len(a) && i < len(b); i++ {
			if a[i] != b[i] {
				t.Fatalf("trace streams diverge at line %d:\n  ff on:  %s\n  ff off: %s", i+1, a[i], b[i])
			}
		}
		t.Fatalf("trace streams diverge in length: ff on %d lines, ff off %d lines", len(a), len(b))
	}
}

func TestFastForwardEquivalenceHealthy(t *testing.T) {
	on := runOutputs(t, testOptions())
	off := testOptions()
	off.NoFastForward = true
	diffOutputs(t, on, runOutputs(t, off))
}

func TestFastForwardEquivalenceFaulted(t *testing.T) {
	spec := fault.Spec{SMs: 2, Groups: 1, MigNACK: 0.05}
	on := runOutputs(t, faultOptions(spec, 7))
	off := faultOptions(spec, 7)
	off.NoFastForward = true
	diffOutputs(t, on, runOutputs(t, off))
}

// TestFastForwardIdleSkips pins down that a quiescent machine is actually
// skipped: with no applications attached nothing is scheduled, so nearly
// all cycles should be elided.
func TestFastForwardIdleSkips(t *testing.T) {
	g, err := New(testConfig(), nil, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	g.Run(100_000)
	st := g.FastForwardStats()
	if st.Skips == 0 || st.SkippedCycles < 90_000 {
		t.Errorf("idle run elided %d cycles in %d skips, want >= 90000 elided", st.SkippedCycles, st.Skips)
	}
	if g.Cycle() != 100_000 {
		t.Errorf("cycle = %d after Run(100000), want 100000", g.Cycle())
	}

	off := testOptions()
	off.NoFastForward = true
	h, err := New(testConfig(), nil, off)
	if err != nil {
		t.Fatal(err)
	}
	h.Run(100_000)
	if s := h.FastForwardStats(); s.Skips != 0 {
		t.Errorf("NoFastForward run recorded %d skips, want 0", s.Skips)
	}
	if !reflect.DeepEqual(g.Totals(), h.Totals()) {
		t.Errorf("idle totals diverge: ff on %+v, ff off %+v", g.Totals(), h.Totals())
	}
}

// TestWheelNextBound checks the wheel's next-deadline bound against actual
// firing, driving the wheel exactly the way the fast-forward engine does:
// cycles strictly below the bound are skipped, not ticked. The overflow
// event (beyond the wheel horizon) pins down that a skip landing on overMin
// still fires the migrated event on time.
func TestWheelNextBound(t *testing.T) {
	var w wheel
	if _, ok := w.next(0); ok {
		t.Fatal("empty wheel reports a deadline")
	}
	var fired []uint64
	cb := func(c uint64) { fired = append(fired, c) }
	w.schedule(0, 100, cb)
	w.schedule(0, 40_000, cb) // overflow: beyond the wheelSize horizon
	cycle := uint64(0)
	for len(fired) < 2 && cycle < 50_000 {
		if at, ok := w.next(cycle); ok && at > cycle {
			cycle = at // skip; the bound certifies nothing fires in between
			continue
		}
		w.run(cycle)
		cycle++
	}
	if want := []uint64{100, 40_000}; !reflect.DeepEqual(fired, want) {
		t.Fatalf("fired at %v, want %v", fired, want)
	}
	if msg := w.audit(cycle); msg != "" {
		t.Fatalf("wheel audit after skipping: %s", msg)
	}
}

// TestWheelNextBoundSchedulingLowers checks that scheduling an earlier event
// after a next() query lowers the cached bound.
func TestWheelNextBoundSchedulingLowers(t *testing.T) {
	var w wheel
	w.schedule(0, 500, func(uint64) {})
	if at, _ := w.next(0); at != 500 {
		t.Fatalf("next = %d, want 500", at)
	}
	w.schedule(0, 30, func(uint64) {})
	if at, _ := w.next(0); at != 30 {
		t.Fatalf("next after earlier schedule = %d, want 30", at)
	}
}
