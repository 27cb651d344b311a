package cache

// MSHR tracks outstanding misses and merges requests to the same line. It is
// a fixed-capacity associative file (Table 1 gives the L1 128 entries), held
// as an open-addressed table: a power-of-two slot array of at least twice the
// capacity, indexed by a multiplicative hash of the line, with linear probing
// and backward-shift deletion. The load factor stays at or below 1/2, so
// every operation probes a short run and none allocates once the waiter
// freelist is warm: waiter slices retired via Recycle are reused for later
// allocations.
type MSHR struct {
	capacity int
	n        int // occupied slots
	shift    uint
	slots    []mshrSlot
	free     [][]any // recycled waiter-slice backing arrays
}

// mshrSlot is one table slot; ws is nil exactly when the slot is empty
// (an occupied slot always holds at least one waiter).
type mshrSlot struct {
	line uint64
	ws   []any
}

// NewMSHR builds an MSHR file with the given entry capacity.
func NewMSHR(capacity int) *MSHR {
	if capacity <= 0 {
		panic("cache: MSHR capacity must be positive")
	}
	bits := uint(1)
	for 1<<bits < 2*capacity {
		bits++
	}
	return &MSHR{capacity: capacity, shift: 64 - bits, slots: make([]mshrSlot, 1<<bits)}
}

// home is the line's preferred slot (Fibonacci hashing: the top bits of the
// product spread consecutive lines across the table).
func (m *MSHR) home(line uint64) int { return int(line * 0x9E3779B97F4A7C15 >> m.shift) }

// find returns the slot holding line, or the empty slot that ends its probe
// run. The table is never full, so the probe always terminates.
func (m *MSHR) find(line uint64) int {
	mask := len(m.slots) - 1
	i := m.home(line)
	for m.slots[i].ws != nil && m.slots[i].line != line {
		i = (i + 1) & mask
	}
	return i
}

// Lookup reports whether a miss for the line is already outstanding.
func (m *MSHR) Lookup(line uint64) bool { return m.slots[m.find(line)].ws != nil }

// Add registers a waiter for the line. It returns (allocated, ok): ok is
// false if the line is new and the MSHR is full; allocated is true when this
// call created the entry — the caller must then issue the fill request
// downstream.
func (m *MSHR) Add(line uint64, waiter any) (allocated, ok bool) {
	s := &m.slots[m.find(line)]
	if s.ws != nil {
		s.ws = append(s.ws, waiter)
		return false, true
	}
	if m.n >= m.capacity {
		return false, false
	}
	var ws []any
	if k := len(m.free); k > 0 {
		ws = m.free[k-1]
		m.free = m.free[:k-1]
	} else {
		ws = make([]any, 0, 4)
	}
	s.line, s.ws = line, append(ws, waiter)
	m.n++
	return true, true
}

// Remove completes the line's miss and returns its waiters (nil if the line
// is not outstanding). Callers that fully consume the returned slice should
// hand it back via Recycle.
func (m *MSHR) Remove(line uint64) []any {
	i := m.find(line)
	ws := m.slots[i].ws
	if ws == nil {
		return nil
	}
	// Backward-shift deletion: pull later members of the probe run into the
	// hole unless their home lies cyclically in (hole, j], so every entry
	// stays reachable from its home without tombstones.
	mask := len(m.slots) - 1
	for j := (i + 1) & mask; m.slots[j].ws != nil; j = (j + 1) & mask {
		k := m.home(m.slots[j].line)
		if (j-k)&mask < (j-i)&mask {
			continue
		}
		m.slots[i] = m.slots[j]
		i = j
	}
	m.slots[i] = mshrSlot{}
	m.n--
	return ws
}

// Recycle returns a consumed waiter slice (from Remove) to the MSHR's
// freelist. The caller must not retain the slice afterwards.
func (m *MSHR) Recycle(ws []any) {
	if cap(ws) == 0 || len(m.free) >= m.capacity {
		return
	}
	ws = ws[:cap(ws)]
	clear(ws) // drop waiter references for GC
	m.free = append(m.free, ws[:0])
}

// Len reports the number of outstanding lines.
func (m *MSHR) Len() int { return m.n }

// Full reports whether no new line can be allocated.
func (m *MSHR) Full() bool { return m.n >= m.capacity }
