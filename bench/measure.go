package main

// One run of one workload: repeat units until the measuring time is spent,
// check their outputs, and reduce the samples to the reported metrics.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// metricDef is one reported metric. BENCHMARK.json lists the same ones.
type metricDef struct {
	name, unit, better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	bound float64
}

// The bounds are as wide as a benchmark may set them. Host time on the
// shared two-core reference host drifts by a quarter within minutes (see
// README.md), and peak RSS and allocations move by up to a tenth between
// seeds of the serving workloads.
var endToEnd = []metricDef{
	{"sim_cycles_per_s", "cycles/s", "higher", 0.25},
	{"cpu_us_per_cycle", "us", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MiB", "lower", 0.25},
	{"allocs_per_kcycle", "allocs", "lower", 0.25},
}

// shareLayers are the packages under ugpu/internal that the workloads run;
// each gets a <layer>.cpu_share, and runtime.bg_share takes the rest.
var shareLayers = []string{
	"gpu", "sm", "cache", "tlb", "noc", "dram", "vm", "addr", "workload", "core",
	"metrics", "serve", "clusterserve", "parallel", "power", "digest", "fault", "trace", "config",
}

var perLayer = func() []metricDef {
	var out []metricDef
	for _, l := range shareLayers {
		out = append(out, metricDef{name: l + ".cpu_share", unit: "ratio", better: "lower"})
	}
	return append(out, []metricDef{
		{name: "runtime.bg_share", unit: "ratio", better: "lower"},
		{name: "gpu.sm_active_frac", unit: "ratio", better: "higher"},
		{name: "gpu.ff_skip_frac", unit: "ratio", better: "higher"},
		{name: "gpu.invariants_share", unit: "ratio", better: "lower"},
		{name: "sm.warp_instrs", unit: "count", better: "higher"},
		{name: "cache.l1_hit_rate", unit: "ratio", better: "higher"},
		{name: "cache.llc_hit_rate", unit: "ratio", better: "higher"},
		{name: "tlb.l2_hit_rate", unit: "ratio", better: "higher"},
		{name: "tlb.walks", unit: "count", better: "lower"},
		{name: "dram.reads", unit: "count", better: "lower"},
		{name: "dram.row_hit_rate", unit: "ratio", better: "higher"},
		{name: "dram.bus_busy_frac", unit: "ratio", better: "lower"},
		{name: "dram.migration_cmds", unit: "count", better: "lower"},
		{name: "vm.page_migrations", unit: "count", better: "lower"},
		{name: "vm.page_faults", unit: "count", better: "lower"},
		{name: "core.decide_share", unit: "ratio", better: "lower"},
		{name: "core.reallocations", unit: "count", better: "lower"},
		{name: "core.epochs", unit: "count", better: "lower"},
		{name: "metrics.calibration_s", unit: "s", better: "lower"},
		{name: "serve.attaches", unit: "count", better: "lower"},
		{name: "serve.preemptions", unit: "count", better: "lower"},
		{name: "serve.rejections", unit: "count", better: "lower"},
		{name: "serve.p99_slowdown", unit: "x", better: "lower"},
		{name: "serve.goodput", unit: "ratio", better: "higher"},
		{name: "clusterserve.quarantines", unit: "count", better: "lower"},
		{name: "clusterserve.false_positives", unit: "count", better: "lower"},
		{name: "clusterserve.lc_goodput", unit: "ratio", better: "higher"},
		{name: "parallel.cpu_per_wall", unit: "ratio", better: "higher"},
		{name: "power.transitions", unit: "count", better: "lower"},
		{name: "runtime.gc_cycles", unit: "count", better: "lower"},
		{name: "bench.trace_overhead", unit: "ratio", better: "lower"},
	}...)
}()

// invariantsFunc is the per-epoch-boundary audit gpu.invariants_share
// measures cumulatively.
const invariantsFunc = "ugpu/internal/gpu.(*GPU).CheckInvariants"

// unitSample is what one unit measured, and the JSON line a unit child
// process prints.
type unitSample struct {
	Traced  bool               `json:"traced"`
	Setup   float64            `json:"setup_s"` // calibration plus construction, wall
	Run     float64            `json:"run_s"`   // run phase, wall
	CPU     float64            `json:"cpu_s"`   // process user+sys CPU in the run phase
	Allocs  uint64             `json:"allocs"`  // heap objects allocated in the run phase
	GCs     uint32             `json:"gcs"`     // GC cycles in the run phase
	RSS     float64            `json:"rss_mb"`  // the process's peak resident set
	Cycles  uint64             `json:"cycles"`
	Cells   int                `json:"cells"`
	Hash    uint64             `json:"hash"`
	Digest  uint64             `json:"digest"`
	Layers  map[string]float64 `json:"layers"` // per-layer model counters
	Calib   float64            `json:"calib_s"`
	Decide  float64            `json:"decide_s"`          // summed over Decide calls
	CellRun float64            `json:"cell_run_s"`        // summed over closed-world cells' runs
	Profile []byte             `json:"profile,omitempty"` // traced: the run phase's CPU profile
	Err     string             `json:"error,omitempty"`
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSS is the process's peak resident set in MiB (Linux reports KiB).
func peakRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// runUnit does one unit in this process: set-up, then the run phase under
// the CPU profiler when traced. The heap is collected first so no unit pays
// for another's garbage.
func runUnit(w workloadDef, seed int64, size string, traced bool) (unitSample, error) {
	e := &unitEnv{seed: seed, div: sizeDivs[size]}
	if traced {
		e.spans = newSpanLog()
	}
	runtime.GC()
	t0 := time.Now()
	run, err := w.prepare(e)
	s := unitSample{Traced: traced, Setup: time.Since(t0).Seconds()}
	if err != nil {
		return s, err
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	allocs, gcs := ms.Mallocs, ms.NumGC
	var prof bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return s, err
		}
	}
	cpu0, t1 := cpuTime(), time.Now()
	res, err := run()
	s.Run, s.CPU = time.Since(t1).Seconds(), (cpuTime() - cpu0).Seconds()
	if traced {
		pprof.StopCPUProfile()
	}
	runtime.ReadMemStats(&ms)
	s.Allocs, s.GCs, s.RSS = ms.Mallocs-allocs, ms.NumGC-gcs, peakRSS()
	if err != nil {
		return s, err
	}
	s.Cycles, s.Cells, s.Hash, s.Digest, s.Layers = res.cycles, res.cells, res.hash, res.digest, res.c.layers(res.cycles)
	if traced {
		s.Profile = prof.Bytes()
		s.Calib, s.Decide, s.CellRun = e.spans.get("calibrate").Seconds(), e.spans.get("decide").Seconds(), e.spans.get("cell").Seconds()
	}
	return s, nil
}

// spawnUnit does one unit in a child process of this binary. Each unit
// gets a process of its own, so its peak RSS and GC state are its own,
// and the speed differences seen between processes of one program on a
// shared host vary from unit to unit, and average out in a run's medians,
// instead of biasing a whole run.
func spawnUnit(w workloadDef, seed int64, size string, traced bool) (unitSample, error) {
	self, err := os.Executable()
	if err != nil {
		return unitSample{}, err
	}
	cmd := exec.Command(self, "-unit", "-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
		"-size", size, "-trace="+strconv.FormatBool(traced))
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	var s unitSample
	if err := json.Unmarshal(out, &s); err != nil {
		return s, fmt.Errorf("unit process (%v): unreadable sample: %w", runErr, err)
	}
	if s.Err != "" {
		return s, errors.New(s.Err)
	}
	return s, runErr
}

// runOptions are one run's settings.
type runOptions struct {
	seed    int64
	size    string // "full" or "smoke"
	seconds float64
	traced  bool
	// minUnits is the fewest units a run makes, whatever its time; a traced
	// run alternates untraced and traced units.
	minUnits int
	// spawn runs every unit in its own child process; tests run them in
	// the test process.
	spawn bool
}

var sizeDivs = map[string]int{"full": 1, "smoke": smokeDiv}

// runResult is one run's outcome.
type runResult struct {
	workload  string
	opts      runOptions
	samples   []unitSample
	attempted int
	failed    int
	errs      []error
	hash      uint64
	digest    uint64
	golden    string // this run's outputs against the committed golden
	smoke     string // the smoke-size seed-1 golden check every run makes
	metrics   map[string]float64
}

func (r *runResult) correct() bool { return r.failed == 0 && len(r.errs) == 0 }

// fail records a failed unit and its reason.
func (r *runResult) fail(cells int, err error) {
	r.failed += cells
	r.errs = append(r.errs, err)
}

// measure makes one run: first the smoke-size golden check, so every run
// checks the model's outputs against the committed ones whatever its seed,
// then units until opts.seconds are spent. Every unit of a run simulates
// the same inputs, so their outputs must agree.
func measure(w workloadDef, opts runOptions, gold goldenSet) *runResult {
	unit := runUnit
	if opts.spawn {
		unit = spawnUnit
	}
	r := &runResult{workload: w.name, opts: opts}
	s, err := unit(w, 1, "smoke", true)
	r.attempted += max(s.Cells, 1)
	switch {
	case err != nil:
		r.smoke = goldenMismatch
		r.fail(1, fmt.Errorf("smoke-size golden check: %w", err))
	default:
		if r.smoke = gold.verify(w.name, "smoke", 1, s.Hash, s.Digest); r.smoke == goldenMismatch {
			r.fail(s.Cells, errors.New("smoke-size golden check: outputs differ from the committed golden"))
		}
	}

	start := time.Now()
	var last time.Duration
	okCells := 0 // cells of units whose outputs agree with unit 0's
	for i := 0; i < opts.minUnits || time.Since(start)+last <= time.Duration(opts.seconds*float64(time.Second)); i++ {
		traced := opts.traced && i%2 == 1
		t := time.Now()
		s, err := unit(w, opts.seed, opts.size, traced)
		last = time.Since(t)
		if err != nil {
			r.attempted++
			r.fail(1, err)
			break
		}
		r.attempted += s.Cells
		if len(r.samples) == 0 {
			r.hash = s.Hash
		}
		if traced && r.digest == 0 {
			r.digest = s.Digest
		}
		switch {
		case s.Hash != r.hash:
			r.fail(s.Cells, fmt.Errorf("unit %d output hash %016x differs from unit 0's %016x", i, s.Hash, r.hash))
		case traced && s.Digest != r.digest:
			r.fail(s.Cells, fmt.Errorf("unit %d state digest %016x differs from the first traced unit's %016x", i, s.Digest, r.digest))
		default:
			okCells += s.Cells
		}
		r.samples = append(r.samples, s)
	}
	if len(r.samples) > 0 {
		if r.golden = gold.verify(w.name, opts.size, opts.seed, r.hash, r.digest); r.golden == goldenMismatch {
			r.fail(okCells, fmt.Errorf("outputs differ from the committed golden for size %s seed %d", opts.size, opts.seed))
		}
	}
	r.metrics = r.reduce()
	return r
}

// reduce turns the unit samples into the run's metrics: end-to-end ones
// from untraced units, per-layer ones from traced units. A metric with no
// sample to measure it from reads 0, and the run has then failed.
func (r *runResult) reduce() map[string]float64 {
	var plain, traced []unitSample
	for _, s := range r.samples {
		if s.Traced {
			traced = append(traced, s)
		} else {
			plain = append(plain, s)
		}
	}
	med := func(ss []unitSample, f func(unitSample) float64) float64 {
		v := make([]float64, len(ss))
		for i, s := range ss {
			v[i] = f(s)
		}
		return median(v)
	}
	if !r.opts.traced {
		return map[string]float64{
			"sim_cycles_per_s":  med(plain, func(s unitSample) float64 { return float64(s.Cycles) / s.Run }),
			"cpu_us_per_cycle":  med(plain, func(s unitSample) float64 { return s.CPU * 1e6 / float64(s.Cycles) }),
			"setup_s":           med(plain, func(s unitSample) float64 { return s.Setup }),
			"peak_rss_mb":       med(plain, func(s unitSample) float64 { return s.RSS }),
			"allocs_per_kcycle": med(plain, func(s unitSample) float64 { return float64(s.Allocs) * 1000 / float64(s.Cycles) }),
		}
	}
	if len(traced) == 0 || len(plain) == 0 {
		return nil
	}
	prof := &profile{}
	var decide, cellRun float64
	for _, s := range traced {
		p, err := decodeProfile(s.Profile)
		if err != nil {
			r.fail(0, err)
			return nil
		}
		prof.merge(p)
		decide += s.Decide
		cellRun += s.CellRun
	}
	v := map[string]float64{
		"gpu.invariants_share":  prof.cumulative(invariantsFunc),
		"core.decide_share":     0,
		"metrics.calibration_s": med(traced, func(s unitSample) float64 { return s.Calib }),
		"parallel.cpu_per_wall": med(traced, func(s unitSample) float64 { return s.CPU / s.Run }),
		"runtime.gc_cycles":     med(traced, func(s unitSample) float64 { return float64(s.GCs) }),
		"bench.trace_overhead": med(traced, func(s unitSample) float64 { return s.Run })/
			med(plain, func(s unitSample) float64 { return s.Run }) - 1,
	}
	if cellRun > 0 {
		v["core.decide_share"] = decide / cellRun
	}
	for k, x := range traced[0].Layers {
		v[k] = x
	}
	shares := prof.shares()
	v["runtime.bg_share"] = shares[runtimeLayer]
	for _, l := range shareLayers {
		v[l+".cpu_share"] = shares[l]
	}
	return v
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	d := append([]float64(nil), v...)
	sort.Float64s(d)
	n := len(d)
	if n%2 == 1 {
		return d[n/2]
	}
	return (d[n/2-1] + d[n/2]) / 2
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(v, n=4) computes them (its default, exclusive
// method), so the spreads printed here match that definition.
func quartiles(v []float64) (q1, q3 float64) {
	d := append([]float64(nil), v...)
	sort.Float64s(d)
	n := len(d)
	if n < 2 {
		if n == 1 {
			return d[0], d[0]
		}
		return 0, 0
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = min(max(j, 1), n-1)
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}
