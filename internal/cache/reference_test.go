package cache

import (
	"math/rand"
	"testing"

	"ugpu/internal/digest"
)

// refCache is the earlier tag array, kept as a test oracle: three parallel
// per-way arrays (tag, valid bit, LRU stamp), each set scanned in full.
type refCache struct {
	sets, ways int
	lineShift  uint
	tags       []uint64
	valid      []bool
	stamp      []uint64
	clock      uint64
	stats      Stats
}

func newRefCache(sets, ways, lineBytes int) *refCache {
	c := New(sets, ways, lineBytes)
	return &refCache{sets: sets, ways: ways, lineShift: c.lineShift,
		tags: make([]uint64, sets*ways), valid: make([]bool, sets*ways), stamp: make([]uint64, sets*ways)}
}

func (c *refCache) base(pa uint64) (uint64, int) {
	line := pa >> c.lineShift
	h := line ^ line>>7 ^ line>>13
	return line, int(h%uint64(c.sets)) * c.ways
}

func (c *refCache) Access(pa uint64) bool {
	c.stats.Accesses++
	c.clock++
	line, base := c.base(pa)
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

func (c *refCache) Fill(pa uint64) {
	c.clock++
	line, base := c.base(pa)
	victim := base
	var oldest uint64 = ^uint64(0)
	for w := 0; w < c.ways; w++ {
		i := base + w
		if !c.valid[i] {
			victim = i
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

func (c *refCache) InvalidateAll() { clear(c.valid) }

func (c *refCache) AppendDigest(h digest.Hash) digest.Hash {
	h = h.Int(c.sets).Int(c.ways).U64(c.clock)
	for i := range c.tags {
		if c.valid[i] {
			h = h.Bool(true).U64(c.tags[i]).U64(c.stamp[i])
		} else {
			h = h.Bool(false)
		}
	}
	st := c.stats
	return h.U64(st.Accesses).U64(st.Hits).U64(st.Misses).U64(st.Evictions)
}

// TestCacheMatchesReference: on random Access/Fill/InvalidateAll sequences
// the one-array tag store gives the reference's hits, evictions and
// per-way-index digest after every operation, so way positions and stamps
// are unchanged.
func TestCacheMatchesReference(t *testing.T) {
	geoms := []struct{ sets, ways int }{{1, 2}, {8, 6}, {32, 16}, {5, 3}}
	for seed := int64(1); seed <= 8; seed++ {
		for _, g := range geoms {
			rng := rand.New(rand.NewSource(seed))
			got, want := New(g.sets, g.ways, 128), newRefCache(g.sets, g.ways, 128)
			lines := g.sets * g.ways * 3 // a working set past capacity
			for op := 0; op < 4000; op++ {
				pa := uint64(rng.Intn(lines))*128 + uint64(rng.Intn(128))
				switch r := rng.Intn(100); {
				case r < 55:
					if a, b := got.Access(pa), want.Access(pa); a != b {
						t.Fatalf("seed %d %dx%d op %d: Access = %v, reference %v", seed, g.sets, g.ways, op, a, b)
					}
				case r < 99:
					got.Fill(pa)
					want.Fill(pa)
				default:
					got.InvalidateAll()
					want.InvalidateAll()
				}
				if got.Stats() != want.stats {
					t.Fatalf("seed %d %dx%d op %d: stats %+v, reference %+v", seed, g.sets, g.ways, op, got.Stats(), want.stats)
				}
				if a, b := got.AppendDigest(digest.New()), want.AppendDigest(digest.New()); a != b {
					t.Fatalf("seed %d %dx%d op %d: digest %x, reference %x", seed, g.sets, g.ways, op, a, b)
				}
			}
		}
	}
}

// TestInvalidateKeepsValidPrefix interleaves single-line Invalidate (which
// moves a set's last valid way into the hole) with the other operations: no
// set may hold duplicates or exceed its ways, an invalidated line is gone,
// and a filled line is present.
func TestInvalidateKeepsValidPrefix(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := New(8, 4, 128)
		for op := 0; op < 3000; op++ {
			pa := uint64(rng.Intn(96)) * 128
			switch rng.Intn(5) {
			case 0, 1:
				if !c.Access(pa) {
					c.Fill(pa)
				}
			case 2:
				c.Fill(pa)
				if !c.Peek(pa) {
					t.Fatalf("seed %d op %d: line absent after Fill", seed, op)
				}
			case 3:
				c.Invalidate(pa)
				if c.Peek(pa) {
					t.Fatalf("seed %d op %d: line present after Invalidate", seed, op)
				}
			case 4:
				if rng.Intn(50) == 0 {
					c.InvalidateAll()
				}
			}
			if !c.CheckInvariants() || c.Occupancy() > 8*4 {
				t.Fatalf("seed %d op %d: invariants broken (occupancy %d)", seed, op, c.Occupancy())
			}
		}
	}
}
