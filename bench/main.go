// Command bench is the simulator's benchmark: four workloads that exercise
// different layers, end-to-end metrics from untraced runs, per-layer metrics
// from a traced run's CPU profile and counters, and a regression gate.
//
// Run it from the repository root through bench/run.sh, which builds it:
//
//	bash bench/run.sh -workload pair-static -seed 1 -seconds 24
//	bash bench/run.sh -workload all -runs 10 -out head.jsonl
//	bash bench/run.sh -workload all -trace
//	bash bench/run.sh -compare base.jsonl head.jsonl
//	bash bench/run.sh -record-golden bench/golden.json
//
// A run repeats one workload's unit of simulated work, each unit in a child
// process of its own, until its measuring time is spent. It prints its
// metrics, one JSON record line (with host, cores, GOMAXPROCS and Go
// version) and, last, the summary line {"correct","attempted","failed",
// "metrics"}. With -runs above 1, the medians and spreads of each metric
// over the runs follow.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
)

// minUnits is the fewest units a run makes, so its medians rest on at
// least three samples even when the measuring time is short; a traced run
// makes at least two traced and two untraced units.
const (
	minUnits       = 3
	minTracedUnits = 4
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "seed of the workload's inputs; run i of -runs uses seed+i")
	seconds := fs.Float64("seconds", 24, "measuring time of one run")
	runs := fs.Int("runs", 1, "runs per workload")
	traced := fs.Bool("trace", false, "traced run: per-layer metrics from a CPU profile, spans and counters")
	size := fs.String("size", "full", "workload size: full or smoke (1/50)")
	out := fs.String("out", "", "append each run's JSON record to this file")
	base := fs.String("compare", "", "compare the records in this file (the parent) with those in the file named by the first argument")
	golden := fs.String("record-golden", "", "rewrite the golden file at this path from fresh runs")
	unit := fs.Bool("unit", false, "run one unit of one workload and print its sample as JSON; runs start one such process per unit")
	if err := fs.Parse(joinBoolValue(args, "trace")); err != nil {
		return 2
	}
	switch {
	case *base != "":
		if fs.NArg() != 1 {
			fmt.Fprintln(stderr, "bench: -compare BASE HEAD needs the HEAD file as its argument")
			return 2
		}
		return compareFiles(*base, fs.Arg(0), stdout, stderr)
	case *golden != "":
		if err := recordGolden(*golden); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	if _, ok := sizeDivs[*size]; !ok {
		fmt.Fprintf(stderr, "bench: unknown size %q (want full or smoke)\n", *size)
		return 2
	}
	var selected []workloadDef
	if *name == "all" {
		selected = workloads
	} else {
		w, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		selected = []workloadDef{w}
	}
	if *unit && len(selected) != 1 {
		fmt.Fprintln(stderr, "bench: -unit needs one workload")
		return 2
	}
	if *runs < 1 || *seconds <= 0 {
		fmt.Fprintln(stderr, "bench: -runs and -seconds must be positive")
		return 2
	}
	if *unit {
		s, err := runUnit(selected[0], *seed, *size, *traced)
		if err != nil {
			s.Err = err.Error()
		}
		if err := json.NewEncoder(stdout).Encode(s); err != nil || s.Err != "" {
			return 1
		}
		return 0
	}
	gold, err := loadGolden(goldenJSON)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	opts := runOptions{seed: *seed, size: *size, seconds: *seconds, traced: *traced, minUnits: minUnits, spawn: true}
	if *traced {
		opts.minUnits = minTracedUnits
	}
	return runMany(selected, opts, *runs, gold, *out, stdout, stderr)
}

// joinBoolValue rewrites "-name 0" and "-name 1" as "-name=0" and
// "-name=1": the flag package reads a boolean flag's value only in the "="
// form, and the benchmark's callers pass "--trace 0".
func joinBoolValue(args []string, name string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-"+name || a == "--"+name) && i+1 < len(args) {
			switch args[i+1] {
			case "0", "1", "true", "false":
				a += "=" + args[i+1]
				i++
			}
		}
		out = append(out, a)
	}
	return out
}

// metricValue is one metric as printed.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is one run's JSON record: the -out format and -compare's input.
type record struct {
	Workload   string                 `json:"workload"`
	Seed       int64                  `json:"seed"`
	Size       string                 `json:"size"`
	Trace      bool                   `json:"trace"`
	Units      int                    `json:"units"`
	Host       string                 `json:"host"`
	NumCPU     int                    `json:"num_cpu"`
	GOMAXPROCS int                    `json:"gomaxprocs"`
	Go         string                 `json:"go"`
	Attempted  int                    `json:"attempted"`
	Failed     int                    `json:"failed"`
	Correct    bool                   `json:"correct"`
	Hash       string                 `json:"hash"`
	Digest     string                 `json:"digest,omitempty"`
	Golden     string                 `json:"golden"`
	Smoke      string                 `json:"smoke_golden"`
	Metrics    map[string]metricValue `json:"metrics"`
}

// summary is the last line of a single run's output.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// defs lists the metrics a run reports: end-to-end ones untraced,
// per-layer ones traced.
func defs(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

func (r *runResult) record() record {
	host, _ := os.Hostname() // informational; empty if unknown
	rec := record{
		Workload: r.workload, Seed: r.opts.seed, Size: r.opts.size, Trace: r.opts.traced,
		Units: len(r.samples), Host: host, NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		Attempted: r.attempted, Failed: r.failed, Correct: r.correct(),
		Hash: hex64(r.hash), Golden: r.golden, Smoke: r.smoke,
		Metrics: map[string]metricValue{},
	}
	if r.digest != 0 {
		rec.Digest = hex64(r.digest)
	}
	for _, d := range defs(r.opts.traced) {
		v := r.metrics[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // no sample to measure it from; the run is marked failed
		}
		rec.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return rec
}

func appendRecord(path string, rec record) error {
	if path == "" {
		return nil
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printRun prints a run's metric table, its record and, last, its summary.
func printRun(w io.Writer, rec record) {
	fmt.Fprintf(w, "# %s seed=%d size=%s trace=%t units=%d host=%s cpus=%d gomaxprocs=%d go=%s\n",
		rec.Workload, rec.Seed, rec.Size, rec.Trace, rec.Units, rec.Host, rec.NumCPU, rec.GOMAXPROCS, rec.Go)
	for _, d := range defs(rec.Trace) {
		fmt.Fprintf(w, "%-14s %-29s %16.6g %s\n", rec.Workload, d.name, rec.Metrics[d.name].Value, d.unit)
	}
	fmt.Fprintf(w, "%-14s outputs hash=%s golden=%s smoke_golden=%s attempted=%d failed=%d fail_rate=%g\n",
		rec.Workload, rec.Hash, rec.Golden, rec.Smoke, rec.Attempted, rec.Failed, float64(rec.Failed)/float64(max(rec.Attempted, 1)))
	line, _ := json.Marshal(rec) // plain data: cannot fail
	fmt.Fprintf(w, "%s\n", line)
	line, _ = json.Marshal(summary{Correct: rec.Correct, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: rec.Metrics})
	fmt.Fprintf(w, "%s\n", line)
}

// runMany makes every run, workloads interleaved run by run, and prints
// the medians and spreads of each metric over the runs.
func runMany(selected []workloadDef, opts runOptions, runs int, gold goldenSet, out string, stdout, stderr io.Writer) int {
	recs := map[string][]record{}
	code := 0
	for i := 0; i < runs; i++ {
		for _, w := range selected {
			o := opts
			o.seed += int64(i)
			r := measure(w, o, gold)
			for _, err := range r.errs {
				fmt.Fprintf(stderr, "bench: %s seed %d: %v\n", w.name, o.seed, err)
			}
			if !r.correct() {
				code = 1
			}
			rec := r.record()
			if err := appendRecord(out, rec); err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
			printRun(stdout, rec)
			recs[w.name] = append(recs[w.name], rec)
		}
	}
	if runs == 1 {
		return code
	}
	fmt.Fprintf(stdout, "== medians over %d run(s), seeds %d..%d; spread = (q3-q1)/median\n", runs, opts.seed, opts.seed+int64(runs)-1)
	for _, w := range selected {
		rs := recs[w.name]
		attempted, failed := 0, 0
		for _, r := range rs {
			attempted += r.Attempted
			failed += r.Failed
		}
		fmt.Fprintf(stdout, "%-14s %-29s %16.6g ratio\n", w.name, "fail_rate", float64(failed)/float64(max(attempted, 1)))
		for _, d := range defs(opts.traced) {
			v := values(rs, d.name)
			q1, q3 := quartiles(v)
			m, spread := median(v), 0.0
			if m != 0 {
				spread = (q3 - q1) / math.Abs(m)
			}
			fmt.Fprintf(stdout, "%-14s %-29s %16.6g %-9s spread %6.2f%%", w.name, d.name, m, d.unit, 100*spread)
			if d.bound > 0 {
				fmt.Fprintf(stdout, " (bound %g%%)", 100*d.bound)
			}
			fmt.Fprintln(stdout)
		}
	}
	return code
}

func values(rs []record, name string) []float64 {
	v := make([]float64, len(rs))
	for i, r := range rs {
		v[i] = r.Metrics[name].Value
	}
	return v
}

// readRecords reads the records of a -out file, one JSON record a line.
func readRecords(path string) ([]record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []record
	for i, line := range strings.Split(string(data), "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		var rec record
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, i+1, err)
		}
		out = append(out, rec)
	}
	return out, nil
}
