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
type Cache struct {
	sets      int
	ways      int
	lineShift uint

	tags  []uint64 // sets*ways; valid bit encoded separately
	valid []bool
	stamp []uint64 // LRU timestamps
	clock uint64

	stats Stats
}

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
		tags:      make([]uint64, sets*ways),
		valid:     make([]bool, sets*ways),
		stamp:     make([]uint64, sets*ways),
	}
}

// lineOf maps an address to its line tag; setOf folds upper bits into the
// index so power-of-two strides do not all land in one set.
func (c *Cache) lineOf(pa uint64) uint64 { return pa >> c.lineShift }

func (c *Cache) setOf(line uint64) int {
	h := line ^ line>>7 ^ line>>13
	return int(h % uint64(c.sets))
}

// Access looks up pa, updating LRU state on a hit. It reports whether the
// line was present.
func (c *Cache) Access(pa uint64) bool {
	c.stats.Accesses++
	c.clock++
	line := c.lineOf(pa)
	base := c.setOf(line) * c.ways
	for w := 0; w < c.ways; w++ {
		if c.valid[base+w] && c.tags[base+w] == line {
			c.stamp[base+w] = c.clock
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
	base := c.setOf(line) * c.ways
	for w := 0; w < c.ways; w++ {
		if c.valid[base+w] && c.tags[base+w] == line {
			return true
		}
	}
	return false
}

// Fill inserts the line containing pa, evicting the LRU way if the set is
// full. Filling a line that is already present refreshes its LRU stamp.
func (c *Cache) Fill(pa uint64) {
	c.clock++
	line := c.lineOf(pa)
	base := c.setOf(line) * c.ways
	victim := base
	var oldest uint64 = ^uint64(0)
	for w := 0; w < c.ways; w++ {
		i := base + w
		if !c.valid[i] {
			victim = i
			oldest = 0
			break
		}
		if c.tags[i] == line {
			c.stamp[i] = c.clock
			return
		}
		if c.stamp[i] < oldest {
			oldest = c.stamp[i]
			victim = i
		}
	}
	if c.valid[victim] {
		c.stats.Evictions++
	}
	c.tags[victim] = line
	c.valid[victim] = true
	c.stamp[victim] = c.clock
}

// Invalidate removes the line containing pa if present.
func (c *Cache) Invalidate(pa uint64) {
	line := c.lineOf(pa)
	base := c.setOf(line) * c.ways
	for w := 0; w < c.ways; w++ {
		if c.valid[base+w] && c.tags[base+w] == line {
			c.valid[base+w] = false
			return
		}
	}
}

// InvalidateAll flushes the whole cache (used when memory resources are
// reallocated, Section 4.4).
func (c *Cache) InvalidateAll() {
	for i := range c.valid {
		c.valid[i] = false
	}
}

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats clears the counters (used at epoch boundaries).
func (c *Cache) ResetStats() { c.stats = Stats{} }

// Occupancy reports the number of valid lines (for tests and invariants).
func (c *Cache) Occupancy() int {
	n := 0
	for _, v := range c.valid {
		if v {
			n++
		}
	}
	return n
}

// CheckInvariants verifies that no set holds duplicate tags and that valid
// counts are within capacity. It returns false on corruption; tests use it
// as a property check.
func (c *Cache) CheckInvariants() bool {
	for s := 0; s < c.sets; s++ {
		base := s * c.ways
		for i := 0; i < c.ways; i++ {
			if !c.valid[base+i] {
				continue
			}
			for j := i + 1; j < c.ways; j++ {
				if c.valid[base+j] && c.tags[base+i] == c.tags[base+j] {
					return false
				}
			}
		}
	}
	return true
}
