package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ugpu/internal/digest"
)

func TestMissThenHit(t *testing.T) {
	c := New(64, 6, 128)
	if c.Access(0x1000) {
		t.Fatal("cold access hit")
	}
	c.Fill(0x1000)
	if !c.Access(0x1000) {
		t.Fatal("access after fill missed")
	}
	if !c.Access(0x1040) {
		t.Fatal("same-line access (offset 64) missed")
	}
	if c.Access(0x1080) {
		t.Fatal("next line hit without fill")
	}
	s := c.Stats()
	if s.Accesses != 4 || s.Hits != 2 || s.Misses != 2 {
		t.Errorf("stats = %+v, want 4 accesses, 2 hits, 2 misses", s)
	}
}

func TestLRUEviction(t *testing.T) {
	// Direct-mapped-ish: 1 set, 2 ways.
	c := New(1, 2, 128)
	c.Fill(0 * 128)
	c.Fill(1 * 128)
	c.Access(0 * 128) // make line 0 MRU
	c.Fill(2 * 128)   // must evict line 1
	if !c.Peek(0 * 128) {
		t.Error("MRU line evicted")
	}
	if c.Peek(1 * 128) {
		t.Error("LRU line survived")
	}
	if !c.Peek(2 * 128) {
		t.Error("filled line absent")
	}
	if c.Stats().Evictions != 1 {
		t.Errorf("evictions = %d, want 1", c.Stats().Evictions)
	}
}

func TestInvalidate(t *testing.T) {
	c := New(16, 4, 128)
	c.Fill(0x4000)
	c.Invalidate(0x4000)
	if c.Peek(0x4000) {
		t.Error("line present after Invalidate")
	}
	for i := 0; i < 100; i++ {
		c.Fill(uint64(i) * 128)
	}
	c.InvalidateAll()
	if c.Occupancy() != 0 {
		t.Errorf("occupancy = %d after InvalidateAll, want 0", c.Occupancy())
	}
}

func TestCapacityBound(t *testing.T) {
	c := New(8, 2, 128)
	for i := 0; i < 1000; i++ {
		c.Fill(uint64(i) * 128)
	}
	if occ := c.Occupancy(); occ > 16 {
		t.Errorf("occupancy = %d exceeds capacity 16", occ)
	}
}

func TestInvariantsUnderRandomOps(t *testing.T) {
	f := func(seed int64) bool {
		c := New(32, 4, 128)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 3000; i++ {
			pa := uint64(rng.Intn(1<<16) * 128)
			switch rng.Intn(4) {
			case 0, 1:
				if !c.Access(pa) {
					c.Fill(pa)
				}
			case 2:
				c.Fill(pa)
			case 3:
				c.Invalidate(pa)
			}
		}
		return c.CheckInvariants() && c.Occupancy() <= 32*4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestHitRateReflectsWorkingSet(t *testing.T) {
	// A working set that fits should converge to ~100% hit rate; one 4x the
	// capacity should be well below.
	run := func(lines int) float64 {
		c := New(64, 6, 128) // 384-line capacity
		for pass := 0; pass < 8; pass++ {
			for i := 0; i < lines; i++ {
				pa := uint64(i) * 128
				if !c.Access(pa) {
					c.Fill(pa)
				}
			}
		}
		s := c.Stats()
		return float64(s.Hits) / float64(s.Accesses)
	}
	small := run(128)
	big := run(64 * 6 * 4)
	if small < 0.85 {
		t.Errorf("small working set hit rate = %.2f, want >= 0.85", small)
	}
	if big > small {
		t.Errorf("oversized working set hit rate %.2f not below fitting set %.2f", big, small)
	}
}

// TestAppendDigestPairMatchesSingle: the lockstep pair fold returns exactly
// the two standalone digests, for equal and for mismatched geometries (the
// longer array's tail folds alone), in either argument order.
func TestAppendDigestPairMatchesSingle(t *testing.T) {
	warm := func(c *Cache, seed int64) *Cache {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 500; i++ {
			pa := uint64(rng.Intn(1<<14) * 128)
			if !c.Access(pa) {
				c.Fill(pa)
			}
		}
		return c
	}
	cases := []struct {
		name string
		a, b *Cache
	}{
		{"equal", warm(New(64, 6, 128), 1), warm(New(64, 6, 128), 2)},
		{"identical", warm(New(16, 4, 128), 3), warm(New(16, 4, 128), 3)},
		{"mismatched", warm(New(64, 6, 128), 4), warm(New(16, 4, 128), 5)},
		{"empty", New(8, 2, 128), warm(New(32, 8, 128), 6)},
	}
	for _, c := range cases {
		ha, hb := digest.New().U64(1), digest.New().U64(2)
		wantA, wantB := c.a.AppendDigest(ha), c.b.AppendDigest(hb)
		if gotA, gotB := AppendDigestPair(ha, c.a, hb, c.b); gotA != wantA || gotB != wantB {
			t.Errorf("%s: pair = (%x, %x), want (%x, %x)", c.name, gotA, gotB, wantA, wantB)
		}
		if gotB, gotA := AppendDigestPair(hb, c.b, ha, c.a); gotA != wantA || gotB != wantB {
			t.Errorf("%s (swapped): pair = (%x, %x), want (%x, %x)", c.name, gotB, gotA, wantB, wantA)
		}
	}
}
