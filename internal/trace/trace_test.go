package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestKindInfoComplete(t *testing.T) {
	seen := map[string]Kind{}
	for k := Kind(0); k < numKinds; k++ {
		name := k.String()
		if name == "" || strings.HasPrefix(name, "kind(") {
			t.Fatalf("kind %d has no name", k)
		}
		if prev, dup := seen[name]; dup {
			t.Fatalf("kinds %d and %d share name %q", prev, k, name)
		}
		seen[name] = k
		if k.CategoryOf() >= numCategories {
			t.Fatalf("kind %s has out-of-range category", name)
		}
	}
}

func TestRingOrderAndWrap(t *testing.T) {
	tr := New(4)
	for i := 0; i < 6; i++ {
		tr.Emit(KEpochEnd, uint64(i), -1, int32(i), 0, 0, 0)
	}
	ev := tr.Events()
	if len(ev) != 4 {
		t.Fatalf("Len after wrap = %d, want 4", len(ev))
	}
	for i, e := range ev {
		if want := uint64(i + 2); e.Cycle != want {
			t.Fatalf("event %d cycle = %d, want %d (oldest-first order)", i, e.Cycle, want)
		}
	}
	if tr.Overwritten() != 2 {
		t.Fatalf("Overwritten = %d, want 2", tr.Overwritten())
	}
	if tr.Count(KEpochEnd) != 6 {
		t.Fatalf("Count = %d, want 6 (counters survive overwrite)", tr.Count(KEpochEnd))
	}
}

func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	tr.Emit(KMigCommit, 1, 0, 0, 0, 0, 0)
	tr.Note(KNoCDrop)
	tr.Reset()
	if tr.Enabled() || tr.Len() != 0 || tr.Count(KMigCommit) != 0 ||
		tr.Overwritten() != 0 || tr.FilteredOut() != 0 || tr.Events() != nil {
		t.Fatal("nil tracer must be inert")
	}
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil WriteJSONL = (%q, %v), want empty", buf.String(), err)
	}
}

func TestFilterCategoriesAndSeverity(t *testing.T) {
	f, err := ParseFilter("cat=migration,fault,sev=warn")
	if err != nil {
		t.Fatal(err)
	}
	tr := NewFiltered(16, f)
	tr.Emit(KMigNACK, 1, 0, 0, 0, 0, 0)     // migration warn: in
	tr.Emit(KMigCommit, 2, 0, 0, 0, 0, 0)   // migration debug: sev-filtered
	tr.Emit(KFaultInject, 3, 0, 0, 0, 0, 0) // fault warn: in
	tr.Emit(KReject, 4, 0, 0, 0, 0, 0)      // admission warn: cat-filtered
	if tr.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tr.Len())
	}
	if tr.FilteredOut() != 2 {
		t.Fatalf("FilteredOut = %d, want 2", tr.FilteredOut())
	}
	// Counters still tally filtered kinds.
	if tr.Count(KMigCommit) != 1 || tr.Count(KReject) != 1 {
		t.Fatal("counters must tally filtered emits")
	}
}

func TestParseFilter(t *testing.T) {
	cases := []struct {
		spec    string
		wantErr bool
		render  string
	}{
		{"", false, ""},
		{"migration", false, "migration"},
		{"migration,fault", false, "migration,fault"},
		{"cat=admission,sev=warn", false, "admission,sev=warn"},
		{"sev=info", false, "sev=info"},
		{" Fault , SEV=ERROR ", false, "fault,sev=error"},
		{"bogus", true, ""},
		{"sev=loud", true, ""},
	}
	for _, c := range cases {
		f, err := ParseFilter(c.spec)
		if (err != nil) != c.wantErr {
			t.Fatalf("ParseFilter(%q) err = %v, wantErr=%v", c.spec, err, c.wantErr)
		}
		if err == nil && f.String() != c.render {
			t.Fatalf("ParseFilter(%q).String() = %q, want %q", c.spec, f.String(), c.render)
		}
	}
}

func TestWriteJSONLDeterministic(t *testing.T) {
	mk := func() *Tracer {
		tr := New(8)
		tr.Emit(KEpochDecide, 100, 1, 0, 12, 10, 2)
		tr.Emit(KMigCommit, 150, 0, 0, 517, 0, 0)
		tr.Note(KNoCDrop)
		return tr
	}
	var a, b bytes.Buffer
	if err := mk().WriteJSONL(&a); err != nil {
		t.Fatal(err)
	}
	if err := mk().WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("identical tracers must render identical JSONL")
	}
	lines := strings.Split(strings.TrimSuffix(a.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 2 events + 1 summary:\n%s", len(lines), a.String())
	}
	for i, ln := range lines {
		var doc map[string]any
		if err := json.Unmarshal([]byte(ln), &doc); err != nil {
			t.Fatalf("line %d not valid JSON: %v\n%s", i, err, ln)
		}
	}
	if !strings.Contains(lines[2], `"noc-drop":1`) {
		t.Fatalf("summary must include Note counters: %s", lines[2])
	}
	if !strings.Contains(lines[2], `"recorded":3`) {
		t.Fatalf("summary recorded should be 3: %s", lines[2])
	}
}

func TestWriteChromeValidJSON(t *testing.T) {
	tr := New(8)
	tr.Emit(KAttach, 10, 2, 0, 4, 2, 7)
	tr.Emit(KWatchdogStall, 20, -1, 0, 3, 1, 0)
	var jsonl, buf bytes.Buffer
	if err := tr.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	if err := JSONLToChrome(&buf, &jsonl); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("Chrome export not JSON: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("got %d trace events, want 2", len(doc.TraceEvents))
	}
	if doc.TraceEvents[1]["tid"].(float64) != 0 {
		t.Fatal("app -1 must fold onto tid 0")
	}
}

func TestJSONLToChrome(t *testing.T) {
	var jsonl bytes.Buffer
	jsonl.WriteString(`{"task":0,"label":"cell-a"}` + "\n")
	tr := New(8)
	tr.Emit(KAdmit, 30, 1, 5, 0, 4, 120)
	if err := tr.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	jsonl.WriteString(`{"task":1,"label":"cell-b"}` + "\n")
	tr2 := New(8)
	tr2.Emit(KReject, 40, -1, 6, 1, 0, 0)
	if err := tr2.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}

	var chrome bytes.Buffer
	if err := JSONLToChrome(&chrome, &jsonl); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(chrome.Bytes(), &doc); err != nil {
		t.Fatalf("converter output not JSON: %v\n%s", err, chrome.String())
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("got %d events, want 2 (summaries dropped)", len(doc.TraceEvents))
	}
	if doc.TraceEvents[0]["pid"].(float64) != 0 || doc.TraceEvents[1]["pid"].(float64) != 1 {
		t.Fatalf("task headers must set pid: %v", doc.TraceEvents)
	}
}

func TestJSONLToChromeBadInput(t *testing.T) {
	var out bytes.Buffer
	if err := JSONLToChrome(&out, strings.NewReader("not-json\n")); err == nil {
		t.Fatal("want error for malformed JSONL")
	}
}

func TestReset(t *testing.T) {
	tr := NewFiltered(4, Filter{minSev: SevWarn})
	tr.Emit(KMigNACK, 1, 0, 0, 0, 0, 0)
	tr.Emit(KMigCommit, 2, 0, 0, 0, 0, 0) // filtered
	tr.Reset()
	if tr.Len() != 0 || tr.Count(KMigNACK) != 0 || tr.FilteredOut() != 0 {
		t.Fatal("Reset must clear ring and counters")
	}
	tr.Emit(KMigCommit, 3, 0, 0, 0, 0, 0)
	if tr.FilteredOut() != 1 {
		t.Fatal("Reset must keep the filter")
	}
}

// TestDisabledTracerZeroAlloc is the ISSUE's AllocsPerRun-style assertion:
// a nil tracer's Emit and Note paths allocate nothing. Runs under `go test`,
// not just `-bench`, so `make check` enforces it.
func TestDisabledTracerZeroAlloc(t *testing.T) {
	var tr *Tracer
	if n := testing.AllocsPerRun(1000, func() {
		tr.Emit(KMigCommit, 1, 0, 0, 517, 0, 0)
		tr.Note(KNoCDrop)
	}); n != 0 {
		t.Fatalf("disabled tracer allocates %.1f/op, want 0", n)
	}
}

// TestEnabledTracerSteadyStateZeroAlloc: an enabled tracer's ring append
// (including wrap-around) allocates nothing after construction.
func TestEnabledTracerSteadyStateZeroAlloc(t *testing.T) {
	tr := New(64)
	if n := testing.AllocsPerRun(1000, func() {
		tr.Emit(KMigCommit, 1, 0, 0, 517, 0, 0)
		tr.Note(KNoCDrop)
	}); n != 0 {
		t.Fatalf("enabled tracer steady state allocates %.1f/op, want 0", n)
	}
}

func BenchmarkDisabledEmit(b *testing.B) {
	b.ReportAllocs()
	var tr *Tracer
	for i := 0; i < b.N; i++ {
		tr.Emit(KMigCommit, uint64(i), 0, 0, 517, 0, 0)
	}
}

func BenchmarkEnabledEmit(b *testing.B) {
	b.ReportAllocs()
	tr := New(DefaultCapacity)
	for i := 0; i < b.N; i++ {
		tr.Emit(KMigCommit, uint64(i), 0, 0, 517, 0, 0)
	}
}
