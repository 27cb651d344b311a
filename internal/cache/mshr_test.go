package cache

import (
	"math/rand"
	"slices"
	"testing"

	"ugpu/internal/digest"
)

func TestMSHRMergeAndCapacity(t *testing.T) {
	m := NewMSHR[string](2)
	alloc, ok := m.Add(1, "a")
	if !alloc || !ok {
		t.Fatal("first Add should allocate")
	}
	alloc, ok = m.Add(1, "b")
	if alloc || !ok {
		t.Fatal("second Add to same line should merge")
	}
	if alloc, ok = m.Add(2, "c"); !alloc || !ok {
		t.Fatal("second line should allocate")
	}
	if _, ok = m.Add(3, "d"); ok {
		t.Fatal("MSHR overfull")
	}
	// Merging to existing lines still works when full.
	if _, ok = m.Add(2, "e"); !ok {
		t.Fatal("merge rejected while entries available")
	}
	ws := m.Remove(1, nil)
	if len(ws) != 2 || ws[0] != "a" || ws[1] != "b" {
		t.Fatalf("Remove(1) = %v, want [a b]", ws)
	}
	if m.Len() != 1 {
		t.Errorf("Len = %d, want 1", m.Len())
	}
	if _, ok = m.Add(3, "d"); !ok {
		t.Fatal("Add after Remove should succeed")
	}
}

func TestMSHRTableSize(t *testing.T) {
	for _, c := range []struct{ capacity, slots int }{{1, 2}, {2, 4}, {3, 8}, {64, 128}, {100, 256}, {128, 256}} {
		if got := len(NewMSHR[int](c.capacity).slots); got != c.slots {
			t.Errorf("NewMSHR(%d): %d slots, want %d", c.capacity, got, c.slots)
		}
	}
}

// linesWithHome returns n distinct lines whose home slot in m is want.
func linesWithHome[W any](m *MSHR[W], want, n int) []uint64 {
	var out []uint64
	for line := uint64(1); len(out) < n; line++ {
		if m.home(line) == want {
			out = append(out, line)
		}
	}
	return out
}

// mshrRef is the reference model: a map from line to waiters in merge
// order, with the same capacity rule.
type mshrRef struct {
	capacity int
	entries  map[uint64][]int
}

func (r *mshrRef) add(line uint64, w int) (allocated, ok bool) {
	if ws, exists := r.entries[line]; exists {
		r.entries[line] = append(ws, w)
		return false, true
	}
	if len(r.entries) >= r.capacity {
		return false, false
	}
	r.entries[line] = []int{w}
	return true, true
}

// checkAgainst compares every observable of m with the reference: Len,
// Full, the outstanding-line set, each line's waiter order, and that every
// occupied slot is reachable from its home by probing.
func checkAgainst(t *testing.T, step int, m *MSHR[int], ref *mshrRef) {
	t.Helper()
	if m.Len() != len(ref.entries) {
		t.Fatalf("step %d: Len = %d, want %d", step, m.Len(), len(ref.entries))
	}
	if m.Full() != (len(ref.entries) >= ref.capacity) {
		t.Fatalf("step %d: Full = %v with %d of %d entries", step, m.Full(), len(ref.entries), ref.capacity)
	}
	occupied := 0
	for i := range m.slots {
		s := &m.slots[i]
		if s.count == 0 {
			continue
		}
		occupied++
		if m.find(s.line) != i {
			t.Fatalf("step %d: line %d in slot %d unreachable from its home %d", step, s.line, i, m.home(s.line))
		}
		want, ok := ref.entries[s.line]
		if !ok {
			t.Fatalf("step %d: stray line %d in slot %d", step, s.line, i)
		}
		var got []int
		for k := s.head; k >= 0; k = m.node(k).next {
			got = append(got, m.node(k).w)
		}
		if len(got) != int(s.count) || m.node(s.tail).next != -1 {
			t.Fatalf("step %d: line %d holds %d waiters but counts %d", step, s.line, len(got), s.count)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("step %d: line %d waiters %v, want %v", step, s.line, got, want)
		}
	}
	if occupied != len(ref.entries) {
		t.Fatalf("step %d: %d occupied slots, want %d", step, occupied, len(ref.entries))
	}
	for line := range ref.entries {
		if !m.Lookup(line) {
			t.Fatalf("step %d: Lookup(%d) = false for an outstanding line", step, line)
		}
	}
}

// TestMSHRMatchesMapModel drives seeded random Add/Remove sequences against
// the map reference model. The line pool mixes ordinary lines with
// a cluster sharing one home slot (long probe runs) and a cluster homed on
// the last slot (runs that wrap past the table's end), so backward-shift
// deletion is exercised across both.
func TestMSHRMatchesMapModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		capacity := 1 + rng.Intn(40)
		m := NewMSHR[int](capacity)
		ref := &mshrRef{capacity: capacity, entries: map[uint64][]int{}}
		last := len(m.slots) - 1
		pool := linesWithHome(m, rng.Intn(len(m.slots)), capacity)
		pool = append(pool, linesWithHome(m, last, capacity)...)
		pool = append(pool, linesWithHome(m, last-1, 2)...)
		for k := 0; k < 2*capacity; k++ {
			pool = append(pool, uint64(rng.Intn(1<<20)))
		}
		waiter := 0
		for step := 0; step < 4000; step++ {
			line := pool[rng.Intn(len(pool))]
			if rng.Intn(5) < 3 {
				waiter++
				gotAlloc, gotOK := m.Add(line, waiter)
				wantAlloc, wantOK := ref.add(line, waiter)
				if gotAlloc != wantAlloc || gotOK != wantOK {
					t.Fatalf("seed %d step %d: Add(%d) = (%v, %v), want (%v, %v)",
						seed, step, line, gotAlloc, gotOK, wantAlloc, wantOK)
				}
			} else {
				got := m.Remove(line, nil)
				want := ref.entries[line]
				delete(ref.entries, line)
				if !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d: Remove(%d) = %v, want %v", seed, step, line, got, want)
				}
			}
			checkAgainst(t, step, m, ref)
		}
	}
}

// TestMSHRProbeWrapsAndShiftsBack fills one probe run that starts on the
// last slot and wraps to the front, then removes its members in an order
// that forces backward shifts across the wrap point.
func TestMSHRProbeWrapsAndShiftsBack(t *testing.T) {
	m := NewMSHR[int](8)
	last := len(m.slots) - 1
	lines := linesWithHome(m, last, 5)
	for i, line := range lines {
		if alloc, ok := m.Add(line, i); !alloc || !ok {
			t.Fatalf("Add(%d) = (%v, %v), want a new entry", line, alloc, ok)
		}
	}
	// The run occupies the last slot and wraps into slots 0..3.
	if m.slots[last].line != lines[0] || m.slots[3].line != lines[4] {
		t.Fatalf("probe run not laid out across the wrap: last=%d slot3=%d", m.slots[last].line, m.slots[3].line)
	}
	removed := make([]bool, len(lines))
	for _, i := range []int{0, 2, 4, 1, 3} {
		ws := m.Remove(lines[i], nil)
		if len(ws) != 1 || ws[0] != i {
			t.Fatalf("Remove(%d) = %v, want [%d]", lines[i], ws, i)
		}
		removed[i] = true
		for j, line := range lines {
			if m.Lookup(line) == removed[j] {
				t.Fatalf("after removing entry %d: Lookup(entry %d) = %v", i, j, !removed[j])
			}
		}
	}
	if m.Len() != 0 {
		t.Fatalf("Len = %d after removing every line", m.Len())
	}
	for i := range m.slots {
		if m.slots[i].count != 0 {
			t.Fatalf("slot %d still occupied", i)
		}
	}
}

// TestMSHRRemoveAbsent: removing a line that is not outstanding returns nil
// and leaves the table alone.
func TestMSHRRemoveAbsent(t *testing.T) {
	m := NewMSHR[string](4)
	m.Add(7, "a")
	if ws := m.Remove(8, nil); ws != nil {
		t.Fatalf("Remove of an absent line = %v, want nil", ws)
	}
	if m.Len() != 1 || !m.Lookup(7) {
		t.Fatal("Remove of an absent line disturbed the table")
	}
}

// mshrCycle allocates capacity lines (each with a merged second waiter),
// then completes them in order into the reused buffer buf: the miss path's
// steady state.
func mshrCycle(m *MSHR[*int], base uint64, w *int, buf []*int) []*int {
	for i := uint64(0); i < uint64(m.capacity); i++ {
		m.Add(base+i*7, w)
		m.Add(base+i*7, w)
	}
	for i := uint64(0); i < uint64(m.capacity); i++ {
		buf = m.Remove(base+i*7, buf[:0])
	}
	return buf
}

func TestMSHRSteadyStateZeroAlloc(t *testing.T) {
	m := NewMSHR[*int](128)
	w := new(int)
	buf := mshrCycle(m, 0, w, nil) // warm the node pool and the buffer
	base := uint64(0)
	if got := testing.AllocsPerRun(100, func() {
		base += 1 << 12
		buf = mshrCycle(m, base, w, buf)
	}); got != 0 {
		t.Errorf("steady-state Add/Remove: %.1f allocs per cycle, want 0", got)
	}
}

// TestWaitTableGrows: the unbounded table never refuses an Add, doubles
// its slot array to keep the load factor at or below 1/2, and keeps every
// entry and its waiter order across the rebuilds.
func TestWaitTableGrows(t *testing.T) {
	m := NewWaitTable[int]()
	const lines = 1000
	for i := 0; i < lines; i++ {
		for k := 0; k < 1+i%3; k++ {
			if alloc, ok := m.Add(uint64(i)*0x51, i*10+k); !ok || alloc != (k == 0) {
				t.Fatalf("Add(line %d, waiter %d) = (%v, %v)", i, k, alloc, ok)
			}
		}
		if m.Full() || 2*m.Len() > len(m.slots) {
			t.Fatalf("%d entries in %d slots (Full %v)", m.Len(), len(m.slots), m.Full())
		}
	}
	for i := 0; i < lines; i++ {
		ws := m.Remove(uint64(i)*0x51, nil)
		if len(ws) != 1+i%3 {
			t.Fatalf("line %d: %d waiters, want %d", i, len(ws), 1+i%3)
		}
		for k, w := range ws {
			if w != i*10+k {
				t.Fatalf("line %d: waiters %v out of merge order", i, ws)
			}
		}
	}
	if m.Len() != 0 || m.AnyLine(func(uint64) bool { return true }) {
		t.Fatal("table not empty after removing every line")
	}
}

// BenchmarkMSHRAddRemove prices one Add+merge+Remove round trip per line on
// a full-size (Table 1: 128-entry) L1 MSHR.
func BenchmarkMSHRAddRemove(b *testing.B) {
	m := NewMSHR[*int](128)
	w := new(int)
	buf := mshrCycle(m, 0, w, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		line := uint64(i) * 0x41
		m.Add(line, w)
		m.Add(line, w)
		if i >= 64 {
			old := uint64(i-64) * 0x41
			buf = m.Remove(old, buf[:0])
		}
	}
}

// TestMSHRDigestIndependentOfSlotLayout: two files holding the same entries
// but built along different probe histories (insertion order, removals that
// shifted runs back) digest identically.
func TestMSHRDigestIndependentOfSlotLayout(t *testing.T) {
	appendWaiter := func(h digest.Hash, w int) digest.Hash { return h.Int(w) }
	a, b := NewMSHR[int](8), NewMSHR[int](8)
	lines := linesWithHome(a, 3, 6)
	for i, line := range lines {
		a.Add(line, i)
	}
	b.Add(999, -1)
	for i := len(lines) - 1; i >= 0; i-- {
		b.Add(lines[i], i)
	}
	b.Remove(999, nil)
	if a.slots[3].line == b.slots[3].line {
		t.Fatal("layouts coincide; the test compares nothing")
	}
	if ha, hb := a.AppendDigest(digest.New(), appendWaiter), b.AppendDigest(digest.New(), appendWaiter); ha != hb {
		t.Errorf("same entries digest %x and %x", ha, hb)
	}
	a.Add(lines[0], 99)
	if ha, hb := a.AppendDigest(digest.New(), appendWaiter), b.AppendDigest(digest.New(), appendWaiter); ha == hb {
		t.Error("an extra waiter left the digest unchanged")
	}
}
