// Package cache implements set-associative caches with LRU replacement and
// miss-status holding registers (MSHRs), used for both the per-SM L1 data
// caches and the LLC slices of the simulated GPU (Table 1 geometries).
//
// Caches are modelled at tag granularity: Access checks and updates
// replacement state, Fill inserts a line. Data values are not stored — data
// correctness in the simulator is tracked at page granularity by the vm
// package.
package cache

// Cache is a set-associative tag array with LRU replacement. The zero value
// is not usable; use New.
//
// Each set is one contiguous run of ways holding tag and LRU stamp together,
// so a lookup walks a single array and touches nothing else. A way is valid
// iff its stamp is non-zero: the clock advances before every stamp, so a
// valid way never holds 0. A set's valid ways are always a prefix of its
// run: fills take the first invalid way, InvalidateAll clears every way, and
// Invalidate moves the set's last valid way into the hole. Ways never move
// otherwise, so way positions and stamps are exactly those a per-way valid
// bit would give.
type Cache struct {
	sets      int
	ways      int
	lineShift uint

	lines []way // sets*ways, set-major
	clock uint64

	stats Stats
}

// way is one tag-array entry; stamp is its LRU timestamp, 0 when invalid.
type way struct{ tag, stamp uint64 }

// Stats holds cumulative access counters.
type Stats struct {
	Accesses  uint64
	Hits      uint64
	Misses    uint64
	Evictions uint64
}

// New builds a cache with the given geometry. lineBytes must be a power of
// two.
func New(sets, ways, lineBytes int) *Cache {
	if sets <= 0 || ways <= 0 || lineBytes <= 0 || lineBytes&(lineBytes-1) != 0 {
		panic("cache: invalid geometry")
	}
	shift := uint(0)
	for 1<<shift < lineBytes {
		shift++
	}
	return &Cache{
		sets:      sets,
		ways:      ways,
		lineShift: shift,
		lines:     make([]way, sets*ways),
	}
}

// lineOf maps an address to its line tag; setOf folds upper bits into the
// index so power-of-two strides do not all land in one set.
func (c *Cache) lineOf(pa uint64) uint64 { return pa >> c.lineShift }

func (c *Cache) setOf(line uint64) int {
	h := line ^ line>>7 ^ line>>13
	return int(h % uint64(c.sets))
}

// set returns the ways of the set holding line.
func (c *Cache) set(line uint64) []way {
	base := c.setOf(line) * c.ways
	return c.lines[base : base+c.ways]
}

// Access looks up pa, updating LRU state on a hit. It reports whether the
// line was present.
func (c *Cache) Access(pa uint64) bool {
	c.stats.Accesses++
	c.clock++
	line := c.lineOf(pa)
	ws := c.set(line)
	for i := range ws {
		if ws[i].stamp == 0 {
			break
		}
		if ws[i].tag == line {
			ws[i].stamp = c.clock
			c.stats.Hits++
			return true
		}
	}
	c.stats.Misses++
	return false
}

// Peek reports whether pa is present without touching statistics or LRU
// state.
func (c *Cache) Peek(pa uint64) bool {
	line := c.lineOf(pa)
	for _, w := range c.set(line) {
		if w.stamp == 0 {
			break
		}
		if w.tag == line {
			return true
		}
	}
	return false
}

// Fill inserts the line containing pa into the set's first invalid way, or
// evicts the LRU way if the set is full. Filling a line that is already
// present refreshes its LRU stamp.
func (c *Cache) Fill(pa uint64) {
	c.clock++
	line := c.lineOf(pa)
	ws := c.set(line)
	victim := 0
	oldest := ^uint64(0)
	for i := range ws {
		stamp := ws[i].stamp
		if stamp == 0 {
			ws[i] = way{line, c.clock}
			return
		}
		if ws[i].tag == line {
			ws[i].stamp = c.clock
			return
		}
		if stamp < oldest {
			oldest, victim = stamp, i
		}
	}
	c.stats.Evictions++
	ws[victim] = way{line, c.clock}
}

// Invalidate removes the line containing pa if present. The set's last
// valid way moves into the hole, keeping the valid ways a prefix.
func (c *Cache) Invalidate(pa uint64) {
	line := c.lineOf(pa)
	ws := c.set(line)
	hole := -1
	last := len(ws) - 1
	for i := range ws {
		if ws[i].stamp == 0 {
			last = i - 1
			break
		}
		if ws[i].tag == line {
			hole = i
		}
	}
	if hole >= 0 {
		ws[hole], ws[last] = ws[last], way{}
	}
}

// InvalidateAll flushes the whole cache (used when memory resources are
// reallocated, Section 4.4).
func (c *Cache) InvalidateAll() { clear(c.lines) }

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats clears the counters (used at epoch boundaries).
func (c *Cache) ResetStats() { c.stats = Stats{} }

// Occupancy reports the number of valid lines (for tests and invariants).
func (c *Cache) Occupancy() int {
	n := 0
	for _, w := range c.lines {
		if w.stamp != 0 {
			n++
		}
	}
	return n
}

// CheckInvariants verifies that every set's valid ways form a prefix and
// hold no duplicate tags. It returns false on corruption; tests use it as a
// property check.
func (c *Cache) CheckInvariants() bool {
	for base := 0; base < len(c.lines); base += c.ways {
		ws := c.lines[base : base+c.ways]
		n := 0
		for n < len(ws) && ws[n].stamp != 0 {
			n++
		}
		for i := range ws[:n] {
			for j := i + 1; j < n; j++ {
				if ws[i].tag == ws[j].tag {
					return false
				}
			}
		}
		for _, w := range ws[n:] {
			if w.stamp != 0 {
				return false
			}
		}
	}
	return true
}
