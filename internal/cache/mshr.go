package cache

// MSHR tracks outstanding misses and merges requests to the same line. It is
// a fixed-capacity associative file (Table 1 gives the L1 128 entries), held
// as an open-addressed table: a power-of-two slot array of at least twice the
// capacity, indexed by a multiplicative hash of the line, with linear probing
// and backward-shift deletion. The load factor stays at or below 1/2, so
// every operation probes a short run.
//
// W is the waiter type (the gpu package files warps at the L1, its own
// request type at the LLC). An entry's waiters form an intrusive list, in
// merge order, threaded through a node pool the file owns: Remove returns
// every node to the pool's freelist, and the pool grows, one fixed-size
// chunk at a time, only when more waiters are held at once than ever
// before. A warm file allocates nothing, and growth neither copies nodes
// nor leaves garbage behind.
//
// NewWaitTable builds the same table with no entry limit; its slot array
// starts small and doubles to keep the load factor at or below 1/2.
type MSHR[W any] struct {
	capacity   int // entry limit; 0 = unbounded (NewWaitTable)
	n          int // occupied slots
	shift      uint
	slots      []mshrSlot
	chunks     [][]waitNode[W] // the node pool, 1<<chunkShift nodes a chunk
	chunkShift uint
	used       int32 // nodes ever carved from the chunks
	free       int32 // head of the node freelist, -1 when empty
}

// mshrSlot is one table slot; count is 0 exactly when the slot is empty (an
// occupied slot always holds at least one waiter). head and tail index the
// entry's first and last waiter nodes.
type mshrSlot struct {
	line       uint64
	head, tail int32
	count      int32
}

// waitNode is one pooled waiter; next is the following node of its entry
// (or of the freelist), -1 at the end.
type waitNode[W any] struct {
	w    W
	next int32
}

// NewMSHR builds an MSHR file with the given entry capacity.
func NewMSHR[W any](capacity int) *MSHR[W] {
	if capacity <= 0 {
		panic("cache: MSHR capacity must be positive")
	}
	m := &MSHR[W]{capacity: capacity, chunkShift: 6, free: -1}
	m.resize(2 * capacity)
	return m
}

// NewWaitTable builds an MSHR-style merge table with no entry limit: Add
// never refuses, and Full is always false. Its node chunks are larger, for
// tens of thousands of waiters.
func NewWaitTable[W any]() *MSHR[W] {
	m := &MSHR[W]{chunkShift: 9, free: -1}
	m.resize(16)
	return m
}

// node returns pooled node k.
func (m *MSHR[W]) node(k int32) *waitNode[W] {
	return &m.chunks[k>>m.chunkShift][k&(1<<m.chunkShift-1)]
}

// resize rebuilds the slot array with the smallest power of two (at least
// 2) of slots not below atLeast, reinserting every entry.
func (m *MSHR[W]) resize(atLeast int) {
	bits := uint(1)
	for 1<<bits < atLeast {
		bits++
	}
	old := m.slots
	m.shift = 64 - bits
	m.slots = make([]mshrSlot, 1<<bits)
	for i := range old {
		if old[i].count != 0 {
			m.slots[m.find(old[i].line)] = old[i]
		}
	}
}

// home is the line's preferred slot (Fibonacci hashing: the top bits of the
// product spread consecutive lines across the table).
func (m *MSHR[W]) home(line uint64) int { return int(line * 0x9E3779B97F4A7C15 >> m.shift) }

// find returns the slot holding line, or the empty slot that ends its probe
// run. The table is never full, so the probe always terminates.
func (m *MSHR[W]) find(line uint64) int {
	mask := len(m.slots) - 1
	i := m.home(line)
	for m.slots[i].count != 0 && m.slots[i].line != line {
		i = (i + 1) & mask
	}
	return i
}

// Lookup reports whether a miss for the line is already outstanding.
func (m *MSHR[W]) Lookup(line uint64) bool { return m.slots[m.find(line)].count != 0 }

// Add registers a waiter for the line. It returns (allocated, ok): ok is
// false if the line is new and the MSHR is full; allocated is true when this
// call created the entry — the caller must then issue the fill request
// downstream.
func (m *MSHR[W]) Add(line uint64, w W) (allocated, ok bool) {
	s := &m.slots[m.find(line)]
	if s.count == 0 {
		if m.capacity == 0 && 2*(m.n+1) > len(m.slots) {
			m.resize(2 * len(m.slots))
			s = &m.slots[m.find(line)]
		} else if m.capacity > 0 && m.n >= m.capacity {
			return false, false
		}
		s.line = line
		m.n++
		allocated = true
	}
	k := m.free
	if k >= 0 {
		m.free = m.node(k).next
	} else {
		k = m.used
		if int(k>>m.chunkShift) == len(m.chunks) {
			m.chunks = append(m.chunks, make([]waitNode[W], 1<<m.chunkShift))
		}
		m.used++
	}
	*m.node(k) = waitNode[W]{w: w, next: -1}
	if s.count == 0 {
		s.head = k
	} else {
		m.node(s.tail).next = k
	}
	s.tail = k
	s.count++
	return allocated, true
}

// Remove completes the line's miss: it appends the line's waiters, in merge
// order, to dst and returns the extended slice (dst unchanged when the line
// is not outstanding). The waiters' nodes return to the pool.
func (m *MSHR[W]) Remove(line uint64, dst []W) []W {
	i := m.find(line)
	s := m.slots[i]
	if s.count == 0 {
		return dst
	}
	var zero W
	for k := s.head; k >= 0; {
		nd := m.node(k)
		dst = append(dst, nd.w)
		next := nd.next
		nd.w, nd.next = zero, m.free // drop the waiter reference for GC
		m.free = k
		k = next
	}
	// Backward-shift deletion: pull later members of the probe run into the
	// hole unless their home lies cyclically in (hole, j], so every entry
	// stays reachable from its home without tombstones.
	mask := len(m.slots) - 1
	for j := (i + 1) & mask; m.slots[j].count != 0; j = (j + 1) & mask {
		k := m.home(m.slots[j].line)
		if (j-k)&mask < (j-i)&mask {
			continue
		}
		m.slots[i] = m.slots[j]
		i = j
	}
	m.slots[i] = mshrSlot{}
	m.n--
	return dst
}

// AnyLine reports whether pred holds for some outstanding line.
func (m *MSHR[W]) AnyLine(pred func(line uint64) bool) bool {
	for i := range m.slots {
		if m.slots[i].count != 0 && pred(m.slots[i].line) {
			return true
		}
	}
	return false
}

// Len reports the number of outstanding lines.
func (m *MSHR[W]) Len() int { return m.n }

// Full reports whether no new line can be allocated.
func (m *MSHR[W]) Full() bool { return m.capacity > 0 && m.n >= m.capacity }
