// Package experiments regenerates every table and figure of the UGPU
// paper's evaluation (Section 6) on the simulated GPU. Each generator
// returns a Figure with named series; cmd/experiments prints them and
// EXPERIMENTS.md records paper-vs-measured comparisons.
//
// Run lengths and sweep sizes are scaled (DESIGN.md): results reproduce the
// paper's shapes — who wins, by roughly what factor, where crossovers fall —
// not absolute numbers.
package experiments

import (
	"fmt"
	"io"
	"sort"

	"ugpu/internal/config"
	"ugpu/internal/fault"
	"ugpu/internal/gpu"
	"ugpu/internal/metrics"
	"ugpu/internal/workload"
)

// Options scales an experiment run.
type Options struct {
	Cfg            config.Config
	Mixes          int       // mixes per sweep (0 = suite default)
	FootprintScale int       // divides Table 2 footprints
	Log            io.Writer // optional progress log

	// Parallel bounds the worker pool for sweep fan-out: every figure is a
	// set of independent simulations executed through internal/parallel.
	// 0 sizes the pool to GOMAXPROCS; 1 forces serial execution. Results
	// are byte-identical for any value (see the parallel package's
	// determinism contract); progress logs are buffered per task and
	// flushed in sweep order.
	Parallel int

	// FaultSpec, when non-empty, replaces the FaultSweep figure's default
	// arms with a single custom arm (fault.ParseSpec format, e.g.
	// "sm=2,group=1,mig=0.05"); the serve and failover figures and the
	// bisector inject the same faults.
	FaultSpec string
	// FaultSeed seeds the fault injector (0 = the config seed).
	FaultSeed int64

	// ServeSeed seeds the serve sweep's arrival schedules (0 = seed 1).
	ServeSeed int64

	// GPUFaults is the number of whole-GPU crashes the failover figure
	// injects (0 = the default 1; clamped to GPUs-1 so a survivor remains).
	GPUFaults int
	// CheckpointEvery is the failover figure's checkpoint interval in
	// cycles (0 = 2 epochs).
	CheckpointEvery int
	// Brownout enables the failover figure's brownout arm (the tiered
	// overload controller); cmd/experiments defaults it on.
	Brownout bool
	// GrayFaults, when non-empty, replaces the gray figure's default
	// degradation spec (fault.ParseGraySpec format, e.g.
	// "gpus=1,sm=3,noc=0.005,window=0.25").
	GrayFaults string
	// ProbeEpochs is the consecutive clean probe epochs a quarantined GPU
	// must score before re-admitting LC work (0 = the health default 4).
	ProbeEpochs int
	// ArrivalRate, when > 0, replaces the serve sweep's default rising
	// rates with a single rate (jobs per 100K cycles).
	ArrivalRate float64
	// PowerCap, when > 0, replaces the power figure's derived cap points
	// with a single cluster budget in watts.
	PowerCap float64
	// DVFS includes the power figure's governed arms (cmd/experiments
	// defaults it on; off leaves only the nominal baseline).
	DVFS bool
	// QoSMix is the serve sweep's latency-critical arrival fraction
	// (0 = the 0.5 default).
	QoSMix float64

	// Trace attaches a deterministic event tracer to every simulation of
	// every figure — the paper's tables and figures and the non-paper
	// sweeps alike, all of which run on sweep.go's runCells — and streams
	// the recorded events as JSONL to TraceOut. Each simulation — a
	// single-GPU cell, or a cluster arm's frontend and each backend — gets
	// its own tracer (one tracer == one simulation goroutine, the same
	// ownership rule internal/parallel imposes on GPUs); streams are
	// buffered through a parallel.OrderedSink and concatenated in cell
	// order, so the JSONL is byte-identical at any Parallel count. Tracing
	// is observation-only: simulation results are unchanged with it on or
	// off.
	Trace bool
	// TraceFilter selects recorded categories/severity (trace.ParseFilter
	// grammar, e.g. "migration,fault,sev=warn"; empty = everything).
	TraceFilter string
	// TraceOut receives the concatenated JSONL (nil = tracing still runs,
	// output discarded; cmd/experiments points this at -trace-out).
	TraceOut io.Writer
	// NoFastForward disables the event-driven fast-forward engine and runs
	// the plain per-cycle loop (gpu.Options.NoFastForward). Results are
	// byte-identical either way; the switch exists for differential checks
	// (TestModeMatrix, `make smoke`) and perf comparison.
	NoFastForward bool
}

// Default returns laptop-scale options: 150K-cycle runs with 25K-cycle
// epochs over a subset of mixes.
func Default() Options {
	cfg := config.Default()
	cfg.MaxCycles = 150_000
	cfg.EpochCycles = 25_000
	return Options{Cfg: cfg, Mixes: 6, FootprintScale: 64}
}

func (o Options) logf(format string, args ...any) {
	if o.Log != nil {
		fmt.Fprintf(o.Log, format, args...)
	}
}

// gpuOptions maps the experiment's options onto one simulation's mechanism
// options: base (a policy's own options, or gpu.DefaultOptions) with the
// footprint scale and the fast-forward switch applied, plus faults, seeded
// by FaultSeed, when there are any.
func (o Options) gpuOptions(base gpu.Options, faults fault.Spec) gpu.Options {
	base.FootprintScale = o.FootprintScale
	base.NoFastForward = o.NoFastForward
	if !faults.Empty() {
		base.Faults, base.FaultSeed = faults, o.FaultSeed
	}
	return base
}

// faultSpec parses FaultSpec (the zero spec when it is empty).
func (o Options) faultSpec() (fault.Spec, error) {
	if o.FaultSpec == "" {
		return fault.Spec{}, nil
	}
	return fault.ParseSpec(o.FaultSpec)
}

// Series is one plotted line/bar group.
type Series struct {
	Name   string
	Labels []string
	Values []float64
}

// Figure is one regenerated table or figure.
type Figure struct {
	ID     string
	Title  string
	Series []Series
	Notes  []string
}

// Format renders the figure as an aligned text table.
func (f Figure) Format(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", f.ID, f.Title)
	if len(f.Series) > 0 {
		// Header from the first series' labels.
		fmt.Fprintf(w, "%-22s", "series")
		for _, l := range f.Series[0].Labels {
			fmt.Fprintf(w, " %12s", l)
		}
		fmt.Fprintln(w)
		for _, s := range f.Series {
			fmt.Fprintf(w, "%-22s", s.Name)
			for _, v := range s.Values {
				fmt.Fprintf(w, " %12.3f", v)
			}
			fmt.Fprintln(w)
		}
	}
	for _, n := range f.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// sortedByValue sorts a copy of xs ascending (the paper's S-curve x-axis
// ordering: workloads sorted by STP).
func sortedByValue(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// aloneRef builds a solo-IPC reference runner for cfg on a healthy machine.
func (o Options) aloneRef(cfg config.Config) *metrics.AloneIPC {
	return metrics.NewAloneIPC(cfg, o.gpuOptions(gpu.DefaultOptions(), fault.Spec{}))
}

// heteroMixes returns the sweep's heterogeneous two-program mixes.
func (o Options) heteroMixes() []workload.Mix {
	n := o.Mixes
	if n <= 0 {
		n = 6
	}
	all := workload.HeterogeneousPairs(50)
	// Spread selections across the 50-mix set rather than taking a prefix,
	// so different memory-/compute-bound pairings are represented.
	if n >= len(all) {
		return all
	}
	out := make([]workload.Mix, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, all[i*len(all)/n])
	}
	return out
}
