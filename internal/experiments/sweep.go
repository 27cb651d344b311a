package experiments

// The sweep runner every figure runs on: the paper's tables and figures and
// the non-paper sweeps (faults, serve, failover, gray, power) alike. Each
// figure is a set of independent cells — a single-GPU simulation or a
// whole cluster arm — and the runner owns everything the figures'
// determinism contract rests on: per-cell tracers buffered through a
// parallel.OrderedSink, progress lines and state-digest links reassembled
// in cell order. Output is therefore byte-identical at any worker count
// and with fast-forward or tracing on or off, and -trace and -digest reach
// every figure.

import (
	"fmt"
	"io"

	clusterserve "ugpu/internal/cluster/serve"
	"ugpu/internal/config"
	"ugpu/internal/core"
	"ugpu/internal/digest"
	"ugpu/internal/fault"
	"ugpu/internal/gpu"
	"ugpu/internal/metrics"
	"ugpu/internal/parallel"
	"ugpu/internal/trace"
	"ugpu/internal/workload"
)

// cellOut is what one sweep cell hands back to the runner.
type cellOut[T any] struct {
	val  T
	line string   // progress-log line ("" = none), written in cell order
	digs []uint64 // final state-digest links, folded in cell order
}

// runCells runs cells first..first+n-1 on a pool of workers and returns
// their values and digest links in cell order. Each cell gets tracers
// private tracers (all nil when tracing is off); afterwards the runner
// writes every non-nil one into the cell's sink slot under a {"task":N}
// header, N = cell*tracers + j, so a cluster arm's frontend is task
// cell*tracers and its backends follow it in index order.
func runCells[T any](o Options, workers, first, n, tracers int, run func(cell int, trs []*trace.Tracer) (cellOut[T], error)) ([]T, []uint64, error) {
	sink := parallel.NewOrderedSink(n)
	outs, err := parallel.Map(parallel.New(workers), n, func(i int) (cellOut[T], error) {
		trs := make([]*trace.Tracer, tracers)
		for j := range trs {
			tr, err := o.cellTracer()
			if err != nil {
				return cellOut[T]{}, err
			}
			trs[j] = tr
		}
		out, err := run(first+i, trs)
		if err != nil {
			return cellOut[T]{}, err
		}
		return out, flushTraceTask(sink.Task(i), (first+i)*tracers, trs)
	})
	if err != nil {
		return nil, nil, err
	}
	if o.Trace && o.TraceOut != nil {
		if _, err := sink.WriteTo(o.TraceOut); err != nil {
			return nil, nil, err
		}
	}
	vals := make([]T, n)
	var links []uint64
	for i, out := range outs {
		o.logf("%s", out.line)
		vals[i] = out.val
		links = append(links, out.digs...)
	}
	return vals, links, nil
}

// mixCell is one closed-world cell: a fresh policy run over a mix.
type mixCell struct {
	// pol builds the cell's policy for its mix. It is called once per run,
	// inside the cell, because some policies (CD-Search, the hill climber)
	// carry state across epochs and must not be shared between concurrent
	// cells.
	pol    func(workload.Mix) (core.Policy, error)
	mix    workload.Mix
	cfg    *config.Config    // nil = Options.Cfg (the page-size figure varies it)
	faults fault.Spec        // injected faults (zero = a healthy machine)
	alone  *metrics.AloneIPC // when non-nil, the run is scored against it
	line   func(mixRun) string
}

// mixRun is one closed-world cell's result: the run, and its score and
// alone reference when the cell has one.
type mixRun struct {
	res       core.Result
	ref       []float64
	stp, antt float64
}

// runMixCells runs closed-world cells on the -parallel pool through
// runCells. Each cell's policy gets the experiment's mechanism options
// (gpuOptions), the cell's faults and its private tracer; its run's final
// digest link is folded in cell order and its progress line (if any) is
// written in cell order.
func (o Options) runMixCells(cells []mixCell) ([]mixRun, []uint64, error) {
	return runCells(o, o.Parallel, 0, len(cells), 1, func(i int, trs []*trace.Tracer) (cellOut[mixRun], error) {
		c := cells[i]
		pol, err := c.pol(c.mix)
		if err != nil {
			return cellOut[mixRun]{}, err
		}
		cfg := o.Cfg
		if c.cfg != nil {
			cfg = *c.cfg
		}
		res, err := core.RunPolicy(cfg, core.WithOptions(pol, func(g *gpu.Options) {
			*g = o.gpuOptions(*g, c.faults)
			g.Trace = trs[0]
		}), c.mix)
		if err != nil {
			return cellOut[mixRun]{}, fmt.Errorf("%s on %s: %w", pol.Name(), c.mix.Name, err)
		}
		r := mixRun{res: res}
		if c.alone != nil {
			if r.ref, err = c.alone.Table(c.mix); err != nil {
				return cellOut[mixRun]{}, err
			}
			r.stp, r.antt = metrics.Score(res, r.ref)
		}
		out := cellOut[mixRun]{val: r, digs: []uint64{res.Digest.Final()}}
		if c.line != nil {
			out.line = c.line(r)
		}
		return out, nil
	})
}

// anyMix adapts a mix-independent policy constructor to mixCell.pol.
func anyMix(mk func() core.Policy) func(workload.Mix) (core.Policy, error) {
	return func(workload.Mix) (core.Policy, error) { return mk(), nil }
}

// ugpu builds the UGPU policy on the experiment's config, for any mix.
func (o Options) ugpu(workload.Mix) (core.Policy, error) { return core.NewUGPU(o.Cfg), nil }

// cellTracer builds one simulation's private tracer (nil when tracing is
// off, which every emit site treats as disabled).
func (o Options) cellTracer() (*trace.Tracer, error) {
	if !o.Trace {
		return nil, nil
	}
	f, err := trace.ParseFilter(o.TraceFilter)
	if err != nil {
		return nil, err
	}
	return trace.NewFiltered(trace.DefaultCapacity, f), nil
}

// flushTraceTask writes one cell's streams into its sink slot: per tracer a
// {"task":N} header, then its events as JSONL. The headers are what let a
// consumer (trace.JSONLToChrome) split the concatenated stream back into
// per-simulation tracks.
func flushTraceTask(w io.Writer, task int, trs []*trace.Tracer) error {
	for j, tr := range trs {
		if tr == nil {
			continue
		}
		if _, err := fmt.Fprintf(w, "{\"task\":%d}\n", task+j); err != nil {
			return err
		}
		if err := tr.WriteJSONL(w); err != nil {
			return err
		}
	}
	return nil
}

// digestNote folds a sweep's digest links, in order, into its figure note
// (none when digesting is off). scope names what was folded.
func (o Options) digestNote(links []uint64, scope string) []string {
	if o.Cfg.DigestEvery <= 0 {
		return nil
	}
	d := digest.New()
	for _, l := range links {
		d = d.U64(l)
	}
	return []string{fmt.Sprintf("state digest %016x over %s (chained every %d epochs); must match across serial/parallel and fast-forward on/off",
		uint64(d), scope, o.Cfg.DigestEvery)}
}

// serveLCFraction is the serving streams' latency-critical arrival
// fraction.
const serveLCFraction = 0.5

// serving is the setup the serving sweeps share.
type serving struct {
	cfg      config.Config        // o.Cfg with the epoch capped at 5K cycles
	seed     int64                // arrival seed (ServeSeed, default 1)
	arrivals workload.ArrivalSpec // callers set Horizon and MeanGap
}

// servingSetup returns the serving sweeps' shared configuration. Admission,
// checkpoints, the health scorer and the governor all act at epoch
// boundaries, so the serving quantum must be fine relative to job lengths:
// the epoch is capped at 5K cycles (the closed-world 25K default would
// quantise queueing delay into multiples of a job's whole runtime).
func (o Options) servingSetup() (serving, error) {
	s := serving{cfg: o.Cfg, seed: o.ServeSeed}
	if s.cfg.EpochCycles > 5_000 {
		s.cfg.EpochCycles = 5_000
	}
	if s.seed == 0 {
		s.seed = 1
	}
	// The serving request mix: three compute-bound and three memory-bound
	// Table 2 benchmarks, so admission policies face both kinds of pressure.
	var benches []workload.Benchmark
	for _, abbr := range []string{"DXTC", "BH", "HOTSPOT", "PVC", "LBM", "FWT"} {
		b, err := workload.ByAbbr(abbr)
		if err != nil {
			return s, err
		}
		benches = append(benches, b)
	}
	s.arrivals = workload.ArrivalSpec{LCFraction: serveLCFraction, MinLen: 4_000, MaxLen: 10_000, Benchmarks: benches}
	return s, nil
}

// clusterArm is one cluster-sweep arm: a label and its frontend config.
type clusterArm struct {
	name string
	cfg  clusterserve.Config
}

// runClusterArms runs arms first..first+len(arms)-1 of a cluster sweep, one
// at a time — each frontend already fans its backends out over
// cfg.Parallel workers — attaching frontend and backend tracers and
// folding each arm's frontend and backend digests. line renders arm i's
// progress-log line.
func (o Options) runClusterArms(first int, arms []clusterArm, line func(i int, r *clusterserve.Report) string) ([]*clusterserve.Report, []uint64, error) {
	if len(arms) == 0 {
		return nil, nil, nil
	}
	return runCells(o, 1, first, len(arms), 1+arms[0].cfg.GPUs, func(i int, trs []*trace.Tracer) (cellOut[*clusterserve.Report], error) {
		arm := arms[i-first]
		cfg := arm.cfg
		if o.Trace {
			cfg.Trace, cfg.BackendTracers = trs[0], trs[1:]
		}
		fr, err := clusterserve.New(cfg)
		if err != nil {
			return cellOut[*clusterserve.Report]{}, fmt.Errorf("%s: %w", arm.name, err)
		}
		rep, err := fr.Run()
		if err != nil {
			return cellOut[*clusterserve.Report]{}, fmt.Errorf("%s: %w", arm.name, err)
		}
		digs := []uint64{rep.SLO.StateDigest}
		for _, bc := range rep.BackendDigests {
			digs = append(digs, bc.Final())
		}
		return cellOut[*clusterserve.Report]{val: rep, line: line(i, rep), digs: digs}, nil
	})
}

// series builds one figure series by reading get off every arm's result.
func series[T any](name string, labels []string, xs []T, get func(T) float64) Series {
	vals := make([]float64, len(xs))
	for i, x := range xs {
		vals[i] = get(x)
	}
	return Series{Name: name, Labels: labels, Values: vals}
}
