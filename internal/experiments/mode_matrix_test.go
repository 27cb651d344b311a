package experiments

// The cross-mode guarantee of every sweep, asserted in one table: worker
// count, the fast-forward engine, tracing and digesting are execution
// switches, so flipping any of them must leave the figure, the progress
// log, the merged JSONL trace and the folded state digest byte-identical.
// Each row is a figure at reduced scale; each mode is run against the
// row's base run (serial, traced, digested every epoch).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"ugpu/internal/trace"
)

// matrixRun is one figure run's artifacts.
type matrixRun struct {
	fig   Figure
	log   string
	trace string
}

// runMatrix runs gen under o, capturing its progress log and trace.
func runMatrix(o Options, gen func(Options) (Figure, error)) (matrixRun, error) {
	var log, tr bytes.Buffer
	o.Log, o.TraceOut = &log, &tr
	fig, err := gen(o)
	return matrixRun{fig: fig, log: log.String(), trace: tr.String()}, err
}

// matrixRuns memoises each (row, mode) run, so TestModeMatrix and the
// digest tests after it share one simulation per pair.
var matrixRuns sync.Map // "row/mode" -> *memoRun

type memoRun struct {
	once sync.Once
	run  matrixRun
	err  error
}

// baseMode names a row's base run: serial, traced, digested every epoch.
const baseMode = "base"

// rowRun returns the run of the named row under the named mode (baseMode
// or one of matrixModes), simulating it on first use.
func rowRun(t *testing.T, rowName, mode string) matrixRun {
	t.Helper()
	m, _ := matrixRuns.LoadOrStore(rowName+"/"+mode, &memoRun{})
	memo := m.(*memoRun)
	memo.once.Do(func() {
		row := rowNamed(rowName)
		o := baseOptions(row)
		if mode != baseMode {
			modeNamed(mode).set(&o)
		}
		memo.run, memo.err = runMatrix(o, row.gen)
	})
	if memo.err != nil {
		t.Fatalf("%s/%s: %v", rowName, mode, memo.err)
	}
	return memo.run
}

// baseOptions are row's options for its base run.
func baseOptions(row matrixRow) Options {
	o := row.opts
	o.Parallel, o.Trace, o.Cfg.DigestEvery = 1, true, 1
	return o
}

// digestNoteOf returns the figure's state-digest note ("" when absent).
func digestNoteOf(f Figure) string {
	for _, n := range f.Notes {
		if strings.HasPrefix(n, "state digest") {
			return n
		}
	}
	return ""
}

// compareRuns names every artifact in which got differs from base. A plain
// run (no trace, no digest) must match base with its digest note dropped,
// and must itself carry no trace and no digest note.
func compareRuns(base, got matrixRun, plain bool) []string {
	want, wantTrace, wantDigest := base.fig, base.trace, digestNoteOf(base.fig)
	if plain {
		want.Notes = nil
		for _, n := range base.fig.Notes {
			if n != wantDigest {
				want.Notes = append(want.Notes, n)
			}
		}
		wantTrace, wantDigest = "", ""
	}
	var diffs []string
	if !reflect.DeepEqual(want, got.fig) {
		diffs = append(diffs, "figure")
	}
	if got.log != base.log {
		diffs = append(diffs, "log")
	}
	if got.trace != wantTrace {
		diffs = append(diffs, "trace")
	}
	if digestNoteOf(got.fig) != wantDigest {
		diffs = append(diffs, "digest note")
	}
	return diffs
}

// checkTraceWellFormed asserts the merged JSONL's structure: {"task":N}
// headers ascending from 0, one counters summary per task, and a clean
// conversion to Chrome trace_event JSON.
func checkTraceWellFormed(t *testing.T, jsonl string) {
	t.Helper()
	tasks, summaries := 0, 0
	for _, line := range strings.Split(strings.TrimRight(jsonl, "\n"), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
		if v, ok := m["task"]; ok && len(m) == 1 {
			if int(v.(float64)) != tasks {
				t.Fatalf("task header %v, want %d", v, tasks)
			}
			tasks++
		}
		if _, ok := m["counters"]; ok {
			summaries++
		}
	}
	if tasks == 0 || summaries != tasks {
		t.Fatalf("%d task headers, %d summary lines; want equal and nonzero", tasks, summaries)
	}
	var chrome bytes.Buffer
	if err := trace.JSONLToChrome(&chrome, strings.NewReader(jsonl)); err != nil {
		t.Fatalf("JSONLToChrome: %v", err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(chrome.Bytes(), &doc); err != nil || len(doc.TraceEvents) == 0 {
		t.Fatalf("chrome export: %d events, err %v", len(doc.TraceEvents), err)
	}
}

// checkNames asserts the figure's series are exactly names, in order.
func checkNames(t *testing.T, f Figure, names ...string) {
	t.Helper()
	var got []string
	for _, s := range f.Series {
		got = append(got, s.Name)
	}
	if !reflect.DeepEqual(got, names) {
		t.Errorf("series = %q, want %q", got, names)
	}
}

// checkKinds asserts the trace carries an event of every kind.
func checkKinds(t *testing.T, jsonl string, kinds ...string) {
	t.Helper()
	for _, k := range kinds {
		if !strings.Contains(jsonl, `"kind":"`+k+`"`) {
			t.Errorf("trace has no %q event", k)
		}
	}
}

// checkLabels asserts series s has arms (its labels) exactly names.
func checkLabels(t *testing.T, s Series, names ...string) {
	t.Helper()
	if !reflect.DeepEqual(s.Labels, names) {
		t.Errorf("arms = %q, want %q", s.Labels, names)
	}
}

// faultRow is the faults row's options: the custom-arm sweep, healthy plus
// SM, channel-group and migration-NACK damage.
func faultRow() Options {
	o := scale(60_000, 2)
	o.FaultSpec = "sm=2,group=1,mig=0.05"
	o.FaultSeed = 7
	return o
}

// serveRow is the serve rows' options (ServeSweep doubles the horizon).
func serveRow(faults string) Options {
	o := scale(40_000, 1)
	o.ServeSeed = 9
	o.FaultSpec = faults
	o.FaultSeed = 7
	return o
}

// clusterRow is the cluster rows' options.
func clusterRow(cycles int) Options {
	o := scale(cycles, 1)
	o.ServeSeed = 9
	return o
}

type matrixRow struct {
	name string
	opts Options
	gen  func(Options) (Figure, error)
	// closed-world rows run the UGPU policy over mixes, the bisector's
	// shape: a fast-forward or trace mismatch there is bisected.
	closed bool
	check  func(t *testing.T, r matrixRun) // content checks on the base run
}

var matrixRows = []matrixRow{
	{name: "faults", opts: faultRow(), gen: Options.FaultSweep, closed: true,
		check: func(t *testing.T, r matrixRun) {
			checkNames(t, r.fig, "healthy", "sm=2,group=1,mig=0.05")
			checkKinds(t, r.trace, "fault-inject", "sm-fail", "mig-nack")
		}},
	{name: "serve", opts: serveRow(""), gen: Options.ServeSweep,
		check: func(t *testing.T, r matrixRun) {
			var names []string
			for _, p := range []string{"in-order", "class-aware", "load-aware"} {
				names = append(names, p+" p99", p+" rejectRate", p+" goodput")
			}
			checkNames(t, r.fig, names...)
		}},
	{name: "serve+faults", opts: serveRow("sm=2,group=1"), gen: Options.ServeSweep,
		check: func(t *testing.T, r matrixRun) {
			if !strings.Contains(strings.Join(r.fig.Notes, "\n"), "degraded machine") {
				t.Errorf("faulted sweep does not note the degraded machine: %q", r.fig.Notes)
			}
		}},
	{name: "failover", opts: clusterRow(30_000), gen: Options.FailoverSweep,
		check: func(t *testing.T, r matrixRun) {
			checkLabels(t, r.fig.Series[0], "baseline", "crash", "crash+brownout")
			checkKinds(t, r.trace, "gpu-crash")
		}},
	{name: "gray", opts: clusterRow(30_000), gen: Options.GraySweep,
		check: func(t *testing.T, r matrixRun) {
			checkLabels(t, r.fig.Series[0], "healthy+detect", "gray", "gray+crash", "gray+quarantine")
			checkKinds(t, r.trace, "gray-fault", "health")
			// The healthy arm: the scorer convicts nobody.
			if !strings.Contains(r.log, "healthy+detect   arrived") {
				t.Errorf("progress log missing the healthy arm:\n%s", r.log)
			}
			for _, line := range strings.Split(r.log, "\n") {
				if strings.Contains(line, "healthy+detect") && !strings.Contains(line, "fp=0") {
					t.Errorf("healthy arm reported false positives: %s", line)
				}
			}
			// No arm convicts a healthy GPU: the victim is the only one
			// degraded.
			for _, s := range r.fig.Series {
				if s.Name == "false positives" && !reflect.DeepEqual(s.Values, make([]float64, len(s.Values))) {
					t.Errorf("false positives = %v, want all zero", s.Values)
				}
			}
		}},
	{name: "power", opts: clusterRow(40_000), gen: Options.PowerSweep,
		check: func(t *testing.T, r matrixRun) {
			checkLabels(t, r.fig.Series[0], "baseline", "dvfs", "cap-85", "cap-70")
			checkKinds(t, r.trace, "power")
		}},
	{name: "fig10", opts: scale(30_000, 2), gen: Options.Figure10, closed: true,
		check: func(t *testing.T, r matrixRun) {
			var names []string
			for _, p := range []string{"BP", "BP-BS", "BP-SB", "UGPU", "UGPU-offline"} {
				names = append(names, p+" STP", p+" ANTT")
			}
			checkNames(t, r.fig, names...)
		}},
	{name: "fig14", opts: scale(30_000, 2), gen: Options.Figure14, closed: true,
		check: func(t *testing.T, r matrixRun) {
			checkNames(t, r.fig, "4-program", "8-program")
		}},
}

// matrixModes are the execution switches each row is run under, applied to
// the base options.
type matrixMode struct {
	name  string
	set   func(*Options)
	plain bool
	// bisect, for a mismatch in a closed-world row: the mode arms that
	// differ between base and this mode.
	bisect [2]BisectArm
}

var matrixModes = []matrixMode{
	{name: "parallel8", set: func(o *Options) { o.Parallel = 8 }},
	{name: "noff", set: func(o *Options) { o.NoFastForward = true },
		bisect: [2]BisectArm{{Name: "ff"}, {Name: "noff", NoFastForward: true}}},
	{name: "plain", set: func(o *Options) { o.Trace, o.Cfg.DigestEvery = false, 0 }, plain: true,
		bisect: [2]BisectArm{{Name: "trace", Trace: true}, {Name: "notrace"}}},
}

func rowNamed(name string) matrixRow {
	for _, r := range matrixRows {
		if r.name == name {
			return r
		}
	}
	panic("no matrix row " + name)
}

func modeNamed(name string) matrixMode {
	for _, m := range matrixModes {
		if m.name == name {
			return m
		}
	}
	panic("no matrix mode " + name)
}

func TestModeMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-simulation sweeps")
	}
	var mu sync.Mutex
	bases := map[string]matrixRun{}
	t.Run("rows", func(t *testing.T) {
		for _, row := range matrixRows {
			row := row
			t.Run(row.name, func(t *testing.T) {
				t.Parallel()
				base := rowRun(t, row.name, baseMode)
				mu.Lock()
				bases[row.name] = base
				mu.Unlock()
				if digestNoteOf(base.fig) == "" {
					t.Error("digested run has no state-digest note")
				}
				checkTraceWellFormed(t, base.trace)
				row.check(t, base)
				for _, m := range matrixModes {
					diffs := compareRuns(base, rowRun(t, row.name, m.name), m.plain)
					if len(diffs) == 0 {
						continue
					}
					msg := fmt.Sprintf("%s: %s differ from base", m.name, strings.Join(diffs, ", "))
					if row.closed && m.bisect[0].Name != "" {
						if res, err := baseOptions(row).Bisect(m.bisect[0], m.bisect[1]); err != nil {
							msg += "\nbisect: " + err.Error()
						} else {
							msg += "\n" + res.String()
						}
					}
					t.Error(msg)
				}
			})
		}
	})
	// Faults on the serving machine must change the result.
	serve, ok1 := bases["serve"]
	faulted, ok2 := bases["serve+faults"]
	if ok1 && ok2 && reflect.DeepEqual(serve.fig.Series, faulted.fig.Series) {
		t.Error("serve+faults rendered the same series as serve; faults had no effect")
	}
}

// TestModeMatrixDetectsDivergence proves the matrix's compare step is not
// vacuous: two faults-row runs that differ only in the fault seed must be
// reported, naming the artifacts that differ.
func TestModeMatrixDetectsDivergence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-simulation sweep")
	}
	o := tiny()
	o.FaultSpec = "sm=2,group=1,mig=0.05"
	o.Trace, o.Cfg.DigestEvery = true, 1
	o.FaultSeed = 7
	a, err := runMatrix(o, Options.FaultSweep)
	if err != nil {
		t.Fatal(err)
	}
	o.FaultSeed = 8
	b, err := runMatrix(o, Options.FaultSweep)
	if err != nil {
		t.Fatal(err)
	}
	diffs := compareRuns(a, b, false)
	for _, want := range []string{"figure", "trace", "digest note"} {
		if !strings.Contains(strings.Join(diffs, ","), want) {
			t.Errorf("fault-seed change not reported in %s (diffs %q)", want, diffs)
		}
	}
}

// The tests below assert the digest guarantees on the memoised faults-row
// runs. Unlike TestModeMatrix they run under -short, so the race pass
// checks digest invariance too.

// requireSame fails t for each of artifacts ("figure", "log", "trace",
// "digest note") in which row's run under mode differs from its base run.
func requireSame(t *testing.T, row, mode string, artifacts ...string) {
	t.Helper()
	diffs := compareRuns(rowRun(t, row, baseMode), rowRun(t, row, mode), modeNamed(mode).plain)
	for _, d := range diffs {
		for _, a := range artifacts {
			if d == a {
				t.Errorf("%s row, %s mode: %s differs from base", row, mode, d)
			}
		}
	}
}

// TestSweepDigestModeInvariant: a sweep's folded state digest is
// byte-identical across worker counts and fast-forward modes.
func TestSweepDigestModeInvariant(t *testing.T) {
	if digestNoteOf(rowRun(t, "faults", baseMode).fig) == "" {
		t.Fatal("no state-digest note in figure")
	}
	requireSame(t, "faults", "parallel8", "digest note")
	requireSame(t, "faults", "noff", "digest note")
}

// TestSweepDigestOffByDefault: with DigestEvery 0 the sweep emits no digest
// note (digesting must be zero-cost and invisible when disabled).
func TestSweepDigestOffByDefault(t *testing.T) {
	if n := digestNoteOf(rowRun(t, "faults", "plain").fig); n != "" {
		t.Errorf("digest note emitted with digesting disabled: %q", n)
	}
}
