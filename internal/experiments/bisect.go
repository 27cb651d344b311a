package experiments

// Differential state-digest bisector (ISSUE 9). Two execution-mode arms —
// fast-forward on/off, tracing on/off — must produce byte-identical machine
// state; when they do not, -bisect A,B localizes the bug in two phases:
//
//  1. Run both arms to the horizon with DigestEvery=1 and binary-search the
//     per-epoch digest chains (digest.FirstDivergence; the chain's cumulative
//     fold makes divergence monotone) for the first divergent epoch.
//  2. Replay both arms to that epoch's start boundary (the chains agree
//     there), then advance the two machines in per-cycle lockstep, taking a
//     full per-component digest snapshot after every cycle. The first
//     mismatching snapshot names the divergent cycle and, via digest.Diff's
//     record order, the first divergent component. A divergence that only
//     appears in epoch-boundary processing (profiling counters, the
//     perturbation test hook) is caught by replaying the boundary pass after
//     the per-cycle sweep comes up clean.

import (
	"fmt"
	"strings"

	"ugpu/internal/config"
	"ugpu/internal/core"
	"ugpu/internal/digest"
	"ugpu/internal/gpu"
	"ugpu/internal/trace"
	"ugpu/internal/workload"
)

// BisectArm is one execution-mode configuration under comparison. The
// zero value is the default mode: fast-forward on, tracing off.
type BisectArm struct {
	Name          string // the spec token string, for reporting
	NoFastForward bool
	Trace         bool

	// Perturb, when non-nil, is installed as the arm's Runner.PerturbFn: it
	// mutates the GPU right after epoch index PerturbEpoch completes. This is
	// the acceptance-test hook — it injects a known single-component
	// divergence at a known epoch so the test can assert the bisector finds
	// exactly that epoch and component. Not reachable from the flag grammar.
	Perturb      func(*gpu.GPU)
	PerturbEpoch int
}

// ParseBisectArm parses one '+'-joined mode token list: "ff" / "noff"
// (fast-forward on/off) and "trace" / "notrace". Later tokens override
// earlier ones; the empty string is rejected.
func ParseBisectArm(s string) (BisectArm, error) {
	arm := BisectArm{Name: s}
	if s == "" {
		return arm, fmt.Errorf("bisect: empty mode arm (want '+'-joined tokens, e.g. \"ff+notrace\")")
	}
	for _, tok := range strings.Split(s, "+") {
		switch tok {
		case "ff":
			arm.NoFastForward = false
		case "noff":
			arm.NoFastForward = true
		case "trace":
			arm.Trace = true
		case "notrace":
			arm.Trace = false
		default:
			return arm, fmt.Errorf("bisect: unknown mode token %q (want ff, noff, trace or notrace)", tok)
		}
	}
	return arm, nil
}

// ParseBisectSpec parses the -bisect argument "A,B" into two arms.
func ParseBisectSpec(s string) (a, b BisectArm, err error) {
	parts := strings.Split(s, ",")
	if len(parts) != 2 {
		return a, b, fmt.Errorf("bisect: spec %q: want exactly two comma-separated arms, e.g. \"ff,noff\"", s)
	}
	if a, err = ParseBisectArm(strings.TrimSpace(parts[0])); err != nil {
		return a, b, err
	}
	b, err = ParseBisectArm(strings.TrimSpace(parts[1]))
	return a, b, err
}

// BisectResult is the bisector's verdict.
type BisectResult struct {
	ArmA, ArmB string
	Mix        string
	Epochs     int // chain entries compared

	// Agree: the chains are identical — the arms never diverged.
	Agree bool

	// First divergent chain entry (phase 1).
	Epoch      int    // epoch index
	EpochCycle uint64 // that epoch's boundary cycle

	// Per-cycle localization (phase 2).
	Cycle     uint64 // first cycle at which the machines differ
	Component string // first divergent component (digest record order)
	// Boundary: the divergence arose in epoch-boundary processing (epoch
	// profiling, reallocation, the perturbation hook), not mid-epoch.
	Boundary bool
}

// String renders the verdict as the one-line summary cmd/experiments prints.
func (r *BisectResult) String() string {
	if r.Agree {
		return fmt.Sprintf("bisect %s vs %s on %s: chains agree over %d epochs",
			r.ArmA, r.ArmB, r.Mix, r.Epochs)
	}
	where := "mid-epoch"
	if r.Boundary {
		where = "at the epoch boundary"
	}
	return fmt.Sprintf("bisect %s vs %s on %s: first divergence at epoch %d (boundary cycle %d): component %q at cycle %d (%s)",
		r.ArmA, r.ArmB, r.Mix, r.Epoch, r.EpochCycle, r.Component, r.Cycle, where)
}

// bisectRunner builds one arm's runner: the UGPU dynamic policy over mix,
// with the arm's execution-mode switches applied and, as in FaultSweep's
// custom arm, Options.FaultSpec injected under Options.FaultSeed. Each arm
// owns a private tracer (one tracer == one simulation goroutine).
func (o Options) bisectRunner(arm BisectArm, cfg config.Config, mix workload.Mix) (*core.Runner, error) {
	faults, err := o.faultSpec()
	if err != nil {
		return nil, fmt.Errorf("bisect: %w", err)
	}
	o.NoFastForward = arm.NoFastForward // the arm, not the caller, picks the engine
	pol := core.WithOptions(core.NewUGPU(cfg), func(g *gpu.Options) {
		*g = o.gpuOptions(*g, faults)
		if arm.Trace {
			g.Trace = trace.New(trace.DefaultCapacity)
		}
	})
	r, err := core.NewRunner(cfg, pol, mix)
	if err != nil {
		return nil, fmt.Errorf("bisect: arm %q: %w", arm.Name, err)
	}
	r.PerturbFn = arm.Perturb
	r.PerturbEpoch = arm.PerturbEpoch
	return r, nil
}

// Bisect runs the two arms over the first sweep mix and localizes their
// first state divergence (nil error with Agree=true when there is none).
func (o Options) Bisect(a, b BisectArm) (*BisectResult, error) {
	cfg := o.Cfg
	// Chain at every epoch: phase 1's resolution is the localization floor.
	cfg.DigestEvery = 1
	mix := o.heteroMixes()[0]
	res := &BisectResult{ArmA: a.Name, ArmB: b.Name, Mix: mix.Name}

	// Phase 1: full runs, one chain per arm.
	run := func(arm BisectArm) (digest.Chain, error) {
		r, err := o.bisectRunner(arm, cfg, mix)
		if err != nil {
			return nil, err
		}
		out, err := r.Run()
		if err != nil {
			return nil, fmt.Errorf("bisect: arm %q: %w", arm.Name, err)
		}
		return out.Digest, nil
	}
	chainA, err := run(a)
	if err != nil {
		return nil, err
	}
	chainB, err := run(b)
	if err != nil {
		return nil, err
	}
	res.Epochs = len(chainA)
	if len(chainB) < res.Epochs {
		res.Epochs = len(chainB)
	}
	idx, diverged := digest.FirstDivergence(chainA, chainB)
	if !diverged {
		res.Agree = true
		return res, nil
	}
	res.Epoch = idx
	if idx < len(chainA) {
		res.EpochCycle = chainA[idx].Cycle
	} else if idx < len(chainB) {
		res.EpochCycle = chainB[idx].Cycle
	}
	o.logf("bisect: chains diverge at epoch %d; replaying per-cycle\n", idx)
	return res, o.probeEpoch(a, b, cfg, mix, res)
}

// probeStride is the coarse-pass granularity of the in-epoch probe: the
// machines advance in stride-cycle bursts between full digest snapshots,
// then a second replay walks the one dirty stride window per-cycle. A full
// DigestComponents snapshot is the dominant cost (it folds every page table
// and cache tag array), so striding turns epoch-length/1 snapshots into
// epoch-length/stride + stride — exact localization at ~1% of the cost.
const probeStride = 128

// replayPair rebuilds both arms' runners and replays them to the start of
// the given epoch (the chains agree there, so the two machines are
// state-identical at return).
func (o Options) replayPair(a, b BisectArm, cfg config.Config, mix workload.Mix, epoch int) (ra, rb *core.Runner, err error) {
	if ra, err = o.bisectRunner(a, cfg, mix); err != nil {
		return nil, nil, err
	}
	if rb, err = o.bisectRunner(b, cfg, mix); err != nil {
		return nil, nil, err
	}
	for e := 0; e < epoch; e++ {
		if _, err := ra.Step(); err != nil {
			return nil, nil, fmt.Errorf("bisect: replaying arm %q epoch %d: %w", a.Name, e, err)
		}
		if _, err := rb.Step(); err != nil {
			return nil, nil, fmt.Errorf("bisect: replaying arm %q epoch %d: %w", b.Name, e, err)
		}
	}
	return ra, rb, nil
}

// pairSnap diffs full per-component digest snapshots of the two machines.
func pairSnap(ra, rb *core.Runner, da, db *digest.Recorder) (string, bool) {
	ra.G.DigestComponents(da)
	rb.G.DigestComponents(db)
	return digest.Diff(da.Components(), db.Components())
}

// probeEpoch is phase 2: replay both arms to epoch res.Epoch's start, then
// advance in lockstep — stride-grained first, then per-cycle inside the one
// dirty window — until the per-component digests name the divergence.
func (o Options) probeEpoch(a, b BisectArm, cfg config.Config, mix workload.Mix, res *BisectResult) error {
	ra, rb, err := o.replayPair(a, b, cfg, mix, res.Epoch)
	if err != nil {
		return err
	}
	var da, db digest.Recorder
	// Divergence planted by the PREVIOUS boundary's post-digest actions
	// (reallocation, governor) is already visible at the epoch's first cycle.
	if name, bad := pairSnap(ra, rb, &da, &db); bad {
		res.Cycle, res.Component, res.Boundary = ra.G.Cycle(), name, true
		return nil
	}
	total := uint64(cfg.MaxCycles)
	step := uint64(cfg.EpochCycles)
	if left := total - ra.G.Cycle(); left < step {
		step = left
	}
	for off := uint64(0); off < step; {
		n := uint64(probeStride)
		if step-off < n {
			n = step - off
		}
		ra.G.Run(n)
		rb.G.Run(n)
		off += n
		if _, bad := pairSnap(ra, rb, &da, &db); bad {
			return o.refineWindow(a, b, cfg, mix, res, off-n, n)
		}
	}
	// The in-epoch sweep came up clean: the divergence is in the boundary
	// pass itself. Replay the parts that precede the chain digest (epoch
	// profiling, then the perturbation hook) and diff once more.
	ra.G.EndEpoch()
	rb.G.EndEpoch()
	if ra.PerturbFn != nil && res.Epoch == ra.PerturbEpoch {
		ra.PerturbFn(ra.G)
	}
	if rb.PerturbFn != nil && res.Epoch == rb.PerturbEpoch {
		rb.PerturbFn(rb.G)
	}
	if name, bad := pairSnap(ra, rb, &da, &db); bad {
		res.Cycle, res.Component, res.Boundary = ra.G.Cycle(), name, true
		return nil
	}
	return fmt.Errorf("bisect: chains diverge at epoch %d but the replay found no state difference", res.Epoch)
}

// refineWindow re-replays both arms to the divergent epoch's start, bulk-runs
// to the dirty stride window's start (clean at the last coarse snapshot),
// then walks the window per-cycle to the exact divergent cycle.
func (o Options) refineWindow(a, b BisectArm, cfg config.Config, mix workload.Mix, res *BisectResult, start, n uint64) error {
	ra, rb, err := o.replayPair(a, b, cfg, mix, res.Epoch)
	if err != nil {
		return err
	}
	if start > 0 {
		ra.G.Run(start)
		rb.G.Run(start)
	}
	var da, db digest.Recorder
	for c := uint64(0); c < n; c++ {
		ra.G.Run(1)
		rb.G.Run(1)
		if name, bad := pairSnap(ra, rb, &da, &db); bad {
			res.Cycle, res.Component = ra.G.Cycle(), name
			return nil
		}
	}
	return fmt.Errorf("bisect: coarse probe flagged cycles (%d, %d] of epoch %d but the per-cycle replay found no state difference",
		start, start+n, res.Epoch)
}
