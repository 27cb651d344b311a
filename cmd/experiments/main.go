// Command experiments regenerates the tables and figures of the UGPU
// paper's evaluation on the simulated GPU.
//
// Usage:
//
//	experiments [-fig all|table2|2|3|4|10|11|12a|12b|13|14|15|16|micro|pagesize|faults|serve|failover|power|gray]
//	            [-cycles N] [-epoch N] [-mixes N] [-scale N] [-parallel N]
//	            [-faults spec] [-fault-seed N]
//	            [-arrival-rate R] [-serve-seed N] [-no-fastforward]
//	            [-digest] [-digest-every N] [-bisect A,B]
//	            [-trace] [-trace-out path] [-trace-filter spec] [-pprof prefix]
//	            [-v]
//
// Every figure is a sweep of independent simulations run by one sweep
// runner (internal/experiments/sweep.go) on an internal/parallel worker
// pool; -parallel bounds the pool (0 = GOMAXPROCS, 1 = serial). Output is
// byte-identical for any worker count.
//
// -trace attaches a deterministic event tracer to every simulation of every
// figure (paper figures and the faults, serve, failover, gray and power
// sweeps alike) and writes the events as JSONL to -trace-out (default
// trace.jsonl; a .json extension converts to Chrome trace_event format
// loadable in chrome://tracing or Perfetto). -trace-filter selects
// categories and minimum severity ("migration,fault,sev=warn"); the JSONL
// is byte-identical at any -parallel count. -pprof writes
// <prefix>.cpu.pprof and <prefix>.mem.pprof runtime profiles.
//
// -digest records a per-epoch machine-state digest chain in every
// simulation (-digest-every N thins it to every Nth epoch) and appends the
// folded chain to every figure's notes: two invocations that differ only
// in execution mode (-parallel count, -no-fastforward, -trace) must print
// the same digest, and `make smoke` asserts exactly that. -bisect A,B
// localizes a divergence between two mode arms ('+'-joined tokens from ff,
// noff, trace, notrace): it binary-searches the two runs' digest chains for
// the first divergent epoch, then replays that epoch to name the first
// divergent component and cycle.
//
// -fig takes a comma-separated list of figure ids, or all; an unknown or
// empty id is a usage error (exit 2) before any figure runs. Selected
// figures run once each, in the order of the list above.
//
// Results reproduce the paper's shapes, not absolute numbers; see
// EXPERIMENTS.md for the recorded comparison.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"ugpu/internal/experiments"
	"ugpu/internal/trace"
)

// gen is one runnable figure generator.
type gen struct {
	id  string
	run func() (experiments.Figure, error)
}

// gensFor binds every figure generator to the given options.
func gensFor(opt experiments.Options) []gen {
	return []gen{
		{"table2", opt.Table2Profiles},
		{"2", opt.Figure2},
		{"3", opt.Figure3},
		{"4", opt.Figure4},
		{"10", opt.Figure10},
		{"11", opt.Figure11},
		{"12a", opt.Figure12a},
		{"12b", opt.Figure12b},
		{"13", opt.Figure13},
		{"14", opt.Figure14},
		{"15", opt.Figure15},
		{"16", opt.Figure16},
		{"micro", opt.MigrationMicro},
		{"pagesize", opt.PageSizeSensitivity},
		{"faults", opt.FaultSweep},
		{"serve", opt.ServeSweep},
		{"failover", opt.FailoverSweep},
		{"power", opt.PowerSweep},
		{"gray", opt.GraySweep},
	}
}

// figureIDs lists every runnable figure id (the -fig error message and its
// test read this, so the list can never drift from gensFor).
func figureIDs() []string {
	ids := make([]string, 0, 20)
	for _, g := range gensFor(experiments.Options{}) {
		ids = append(ids, g.id)
	}
	return ids
}

// selectGens resolves a -fig spec (comma-separated ids, or "all") to the
// generators to run, in gensFor order and each once. Every token must name
// a figure: an unknown or empty one (as in "micro,bogus" or "micro,") is an
// error naming the valid ids, so a typo never silently drops a figure.
func selectGens(opt experiments.Options, spec string) ([]gen, error) {
	ids := figureIDs()
	want := map[string]bool{}
	for _, tok := range strings.Split(spec, ",") {
		id := strings.TrimSpace(strings.ToLower(tok))
		if id != "all" && !slices.Contains(ids, id) {
			return nil, fmt.Errorf("unknown figure id %q in -fig %q (valid: %s, or all)",
				id, spec, strings.Join(ids, ", "))
		}
		want[id] = true
	}
	all := gensFor(opt)
	if want["all"] {
		return all, nil
	}
	var sel []gen
	for _, g := range all {
		if want[g.id] {
			sel = append(sel, g)
		}
	}
	return sel, nil
}

func main() {
	var (
		fig         = flag.String("fig", "all", "which figure to regenerate (comma-separated ids or 'all')")
		cycles      = flag.Int("cycles", 0, "simulated cycles per run (default: experiment suite default)")
		epoch       = flag.Int("epoch", 0, "epoch length in cycles")
		mixes       = flag.Int("mixes", 0, "mixes per sweep")
		scale       = flag.Int("scale", 0, "footprint divisor")
		parallelN   = flag.Int("parallel", 0, "sweep fan-out workers (0 = GOMAXPROCS, 1 = serial)")
		faults      = flag.String("faults", "", "custom fault spec for the faults figure (e.g. \"sm=2,group=1,mig=0.05\")")
		faultSeed   = flag.Int64("fault-seed", 1, "seed for the deterministic fault injector")
		arrRate     = flag.Float64("arrival-rate", 0, "serve/gray figures: single arrival rate in jobs per 100K cycles (0 = figure default)")
		serveSeed   = flag.Int64("serve-seed", 0, "serve, failover, power and gray figures: arrival-schedule seed (0 = seed 1)")
		traceOn     = flag.Bool("trace", false, "record deterministic event traces for every simulation of every figure")
		traceOut    = flag.String("trace-out", "", "trace output path (implies -trace; default trace.jsonl; .json converts to Chrome trace_event)")
		traceFilter = flag.String("trace-filter", "", "trace category/severity filter, e.g. \"migration,fault,sev=warn\" (empty = everything)")
		noFastFwd   = flag.Bool("no-fastforward", false, "disable the event-driven fast-forward engine that skips provably-dead cycles and idle SMs (results are byte-identical either way)")
		digestOn    = flag.Bool("digest", false, "record per-epoch machine-state digest chains and print them in every figure's notes")
		digestEvery = flag.Int("digest-every", 0, "record a state digest every N epochs (implies -digest; 0 with -digest means every epoch)")
		bisect      = flag.String("bisect", "", "localize a state divergence between two mode arms, e.g. \"ff,noff\" or \"ff+trace,noff\" (tokens: ff, noff, trace, notrace)")
		pprofPrefix = flag.String("pprof", "", "write <prefix>.cpu.pprof and <prefix>.mem.pprof runtime profiles")
		verbose     = flag.Bool("v", false, "log per-run progress")
	)
	flag.Parse()

	opt := experiments.Default()
	if *cycles > 0 {
		opt.Cfg.MaxCycles = *cycles
	}
	if *epoch > 0 {
		opt.Cfg.EpochCycles = *epoch
	}
	if *mixes > 0 {
		opt.Mixes = *mixes
	}
	if *scale > 0 {
		opt.FootprintScale = *scale
	}
	if *verbose {
		opt.Log = os.Stderr
	}
	opt.Parallel = *parallelN
	opt.FaultSpec = *faults
	opt.FaultSeed = *faultSeed
	opt.ArrivalRate = *arrRate
	opt.ServeSeed = *serveSeed
	opt.NoFastForward = *noFastFwd
	if *digestEvery > 0 {
		opt.Cfg.DigestEvery = *digestEvery
	} else if *digestOn {
		opt.Cfg.DigestEvery = 1
	}

	if *bisect != "" {
		a, b, err := experiments.ParseBisectSpec(*bisect)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%v\n", err)
			os.Exit(2)
		}
		res, err := opt.Bisect(a, b)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bisect: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(res)
		if !res.Agree {
			os.Exit(1)
		}
		return
	}

	// Tracing: the figures stream JSONL into an in-memory buffer (runs are
	// laptop-scale) which finish() writes to disk, converting to Chrome
	// trace_event format when the path ends in .json.
	tracePath := *traceOut
	if tracePath != "" {
		*traceOn = true
	} else if *traceOn {
		tracePath = "trace.jsonl"
	}
	var traceBuf bytes.Buffer
	if *traceOn {
		opt.Trace = true
		opt.TraceFilter = *traceFilter
		opt.TraceOut = &traceBuf
	}

	gens, err := selectGens(opt, *fig)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		os.Exit(2)
	}

	// Profiling: CPU from here to finish(); heap snapshot at finish().
	if *pprofPrefix != "" {
		cf, err := os.Create(*pprofPrefix + ".cpu.pprof")
		if err != nil {
			fmt.Fprintf(os.Stderr, "pprof: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(cf); err != nil {
			fmt.Fprintf(os.Stderr, "pprof: %v\n", err)
			os.Exit(1)
		}
	}

	// finish writes the deferred artifacts (trace file, profiles) before a
	// normal exit; error exits skip them.
	finish := func() {
		if *pprofPrefix != "" {
			pprof.StopCPUProfile()
			mf, err := os.Create(*pprofPrefix + ".mem.pprof")
			if err == nil {
				runtime.GC()
				err = pprof.WriteHeapProfile(mf)
				if cerr := mf.Close(); err == nil {
					err = cerr
				}
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "pprof: %v\n", err)
				os.Exit(1)
			}
		}
		if !*traceOn {
			return
		}
		f, err := os.Create(tracePath)
		if err == nil {
			if strings.HasSuffix(tracePath, ".json") {
				err = trace.JSONLToChrome(f, &traceBuf)
			} else {
				_, err = f.Write(traceBuf.Bytes())
			}
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "trace written to %s\n", tracePath)
	}

	for _, g := range gens {
		start := time.Now()
		f, err := g.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiment %s failed: %v\n", g.id, err)
			os.Exit(1)
		}
		f.Format(os.Stdout)
		if *verbose {
			fmt.Fprintf(os.Stderr, "[%s done in %v]\n", g.id, time.Since(start).Round(time.Millisecond))
		}
	}
	finish()
}
