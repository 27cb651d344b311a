package cache

import (
	"math/rand"
	"slices"
	"testing"

	"ugpu/internal/digest"
)

func TestMSHRMergeAndCapacity(t *testing.T) {
	m := NewMSHR(2)
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
	ws := m.Remove(1)
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
		if got := len(NewMSHR(c.capacity).slots); got != c.slots {
			t.Errorf("NewMSHR(%d): %d slots, want %d", c.capacity, got, c.slots)
		}
	}
}

// linesWithHome returns n distinct lines whose home slot in m is want.
func linesWithHome(m *MSHR, want, n int) []uint64 {
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
func checkAgainst(t *testing.T, step int, m *MSHR, ref *mshrRef) {
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
		if s.ws == nil {
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
		got := make([]int, len(s.ws))
		for k, w := range s.ws {
			got[k] = w.(int)
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

// TestMSHRMatchesMapModel drives seeded random Add/Remove/Recycle sequences
// against the map reference model. The line pool mixes ordinary lines with
// a cluster sharing one home slot (long probe runs) and a cluster homed on
// the last slot (runs that wrap past the table's end), so backward-shift
// deletion is exercised across both.
func TestMSHRMatchesMapModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		capacity := 1 + rng.Intn(40)
		m := NewMSHR(capacity)
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
				ws := m.Remove(line)
				got := make([]int, len(ws))
				for k, w := range ws {
					got[k] = w.(int)
				}
				want := ref.entries[line]
				delete(ref.entries, line)
				if !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d: Remove(%d) = %v, want %v", seed, step, line, got, want)
				}
				if rng.Intn(4) != 0 {
					m.Recycle(ws)
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
	m := NewMSHR(8)
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
		ws := m.Remove(lines[i])
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
		if m.slots[i].ws != nil {
			t.Fatalf("slot %d still occupied", i)
		}
	}
}

// TestMSHRRemoveAbsent: removing a line that is not outstanding returns nil
// and leaves the table alone.
func TestMSHRRemoveAbsent(t *testing.T) {
	m := NewMSHR(4)
	m.Add(7, "a")
	if ws := m.Remove(8); ws != nil {
		t.Fatalf("Remove of an absent line = %v, want nil", ws)
	}
	if m.Len() != 1 || !m.Lookup(7) {
		t.Fatal("Remove of an absent line disturbed the table")
	}
}

// mshrCycle allocates capacity lines (each with a merged second waiter),
// then completes and recycles them in order: the miss path's steady state.
func mshrCycle(m *MSHR, base uint64, w any) {
	for i := uint64(0); i < uint64(m.capacity); i++ {
		m.Add(base+i*7, w)
		m.Add(base+i*7, w)
	}
	for i := uint64(0); i < uint64(m.capacity); i++ {
		m.Recycle(m.Remove(base + i*7))
	}
}

func TestMSHRSteadyStateZeroAlloc(t *testing.T) {
	m := NewMSHR(128)
	w := new(int)
	mshrCycle(m, 0, w) // warm the waiter freelist
	base := uint64(0)
	if got := testing.AllocsPerRun(100, func() {
		base += 1 << 12
		mshrCycle(m, base, w)
	}); got != 0 {
		t.Errorf("steady-state Add/Remove/Recycle: %.1f allocs per cycle, want 0", got)
	}
}

// BenchmarkMSHRAddRemove prices one Add+merge+Remove+Recycle round trip per
// line on a full-size (Table 1: 128-entry) L1 MSHR.
func BenchmarkMSHRAddRemove(b *testing.B) {
	m := NewMSHR(128)
	w := new(int)
	mshrCycle(m, 0, w)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		line := uint64(i) * 0x41
		m.Add(line, w)
		m.Add(line, w)
		if i >= 64 {
			old := uint64(i-64) * 0x41
			m.Recycle(m.Remove(old))
		}
	}
}

// TestMSHRDigestIndependentOfSlotLayout: two files holding the same entries
// but built along different probe histories (insertion order, removals that
// shifted runs back) digest identically.
func TestMSHRDigestIndependentOfSlotLayout(t *testing.T) {
	hashWaiter := func(w any) digest.Hash { return digest.New().Int(w.(int)) }
	a, b := NewMSHR(8), NewMSHR(8)
	lines := linesWithHome(a, 3, 6)
	for i, line := range lines {
		a.Add(line, i)
	}
	b.Add(999, -1)
	for i := len(lines) - 1; i >= 0; i-- {
		b.Add(lines[i], i)
	}
	b.Recycle(b.Remove(999))
	if a.slots[3].line == b.slots[3].line {
		t.Fatal("layouts coincide; the test compares nothing")
	}
	if ha, hb := a.AppendDigest(digest.New(), hashWaiter), b.AppendDigest(digest.New(), hashWaiter); ha != hb {
		t.Errorf("same entries digest %x and %x", ha, hb)
	}
	a.Add(lines[0], 99)
	if ha, hb := a.AppendDigest(digest.New(), hashWaiter), b.AppendDigest(digest.New(), hashWaiter); ha == hb {
		t.Error("an extra waiter left the digest unchanged")
	}
}
