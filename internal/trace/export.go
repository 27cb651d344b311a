package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// WriteJSONL renders the ring oldest-first as one JSON object per line with a
// fixed field order, followed by a single "counters" summary line. Output is a
// pure function of the recorded events, so identical runs render identical
// bytes (the property the serial-vs-parallel golden tests pin down).
//
// Event lines:
//
//	{"cycle":120,"kind":"mig-commit","cat":"migration","sev":"debug","app":1,"unit":0,"a0":517,"a1":0,"a2":0}
//
// Summary line (non-zero kinds in kind order):
//
//	{"counters":{"mig-commit":3,"epoch-end":2},"recorded":5,"overwritten":0,"filtered":0}
func (t *Tracer) WriteJSONL(w io.Writer) error {
	if t == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	write := func(e *Event) {
		fmt.Fprintf(bw,
			`{"cycle":%d,"kind":%q,"cat":%q,"sev":%q,"app":%d,"unit":%d,"a0":%d,"a1":%d,"a2":%d}`+"\n",
			e.Cycle, e.Kind.String(), e.Kind.CategoryOf().String(), e.Sev.String(),
			e.App, e.Unit, e.A0, e.A1, e.A2)
	}
	if t.wrapped {
		for i := t.next; i < len(t.ring); i++ {
			write(&t.ring[i])
		}
	}
	for i := 0; i < t.next; i++ {
		write(&t.ring[i])
	}
	bw.WriteString(`{"counters":{`)
	first := true
	var recorded uint64
	for k := Kind(0); k < numKinds; k++ {
		if k == KFastForward {
			// Execution-strategy diagnostic, not a simulation event: the
			// skip tally depends on whether the fast-forward engine is
			// enabled, and the export contract is that identical simulations
			// render identical bytes with fast-forward on or off. Read it
			// via Count(KFastForward) instead.
			continue
		}
		recorded += t.counts[k]
		if t.counts[k] == 0 {
			continue
		}
		if !first {
			bw.WriteByte(',')
		}
		first = false
		fmt.Fprintf(bw, "%q:%d", k.String(), t.counts[k])
	}
	fmt.Fprintf(bw, `},"recorded":%d,"overwritten":%d,"filtered":%d}`+"\n",
		recorded, t.overwritten, t.filteredOut)
	return bw.Flush()
}

// writeChromeEvent emits one instant trace_event. tid folds negative app
// slots onto 0 so global events share a track.
func writeChromeEvent(w io.Writer, pid int, cycle uint64, kind, cat string, app, unit int32, a0, a1, a2 int64) {
	tid := app
	if tid < 0 {
		tid = 0
	}
	fmt.Fprintf(w,
		`{"name":%q,"cat":%q,"ph":"i","s":"t","ts":%d,"pid":%d,"tid":%d,"args":{"app":%d,"unit":%d,"a0":%d,"a1":%d,"a2":%d}}`,
		kind, cat, cycle, pid, tid, app, unit, a0, a1, a2)
}

// jsonlLine mirrors the WriteJSONL event schema for re-parsing. Lines that
// carry other keys (the counters summary, per-task headers) decode with
// Kind == "" and are skipped by JSONLToChrome.
type jsonlLine struct {
	Task  *int   `json:"task"`
	Cycle uint64 `json:"cycle"`
	Kind  string `json:"kind"`
	Cat   string `json:"cat"`
	App   int32  `json:"app"`
	Unit  int32  `json:"unit"`
	A0    int64  `json:"a0"`
	A1    int64  `json:"a1"`
	A2    int64  `json:"a2"`
}

// JSONLToChrome converts concatenated WriteJSONL output (possibly many tasks'
// traces, each introduced by a {"task":N,...} header line written by the
// sweep layer) into one Chrome trace_event document. Each task becomes a pid
// so a multi-cell sweep renders as parallel process tracks; counter summary
// lines are dropped.
func JSONLToChrome(dst io.Writer, src io.Reader) error {
	bw := bufio.NewWriter(dst)
	bw.WriteString(`{"traceEvents":[`)
	first := true
	pid := 0
	sc := bufio.NewScanner(src)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var l jsonlLine
		if err := json.Unmarshal(line, &l); err != nil {
			return fmt.Errorf("trace: bad JSONL line %q: %w", line, err)
		}
		if l.Task != nil {
			pid = *l.Task
			continue
		}
		if l.Kind == "" { // counters summary or foreign line
			continue
		}
		if !first {
			bw.WriteByte(',')
		}
		first = false
		writeChromeEvent(bw, pid, l.Cycle, l.Kind, l.Cat, l.App, l.Unit, l.A0, l.A1, l.A2)
	}
	if err := sc.Err(); err != nil {
		return err
	}
	bw.WriteString(`],"displayTimeUnit":"ns"}` + "\n")
	return bw.Flush()
}
