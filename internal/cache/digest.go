package cache

// State digests. The tag array digests in index order (layout is
// deterministic); the MSHR's slot table digests as an unordered multiset of
// its entries (slot positions depend on probe history, not on state), with
// each entry's waiters folded in their (deterministic) merge order through a
// caller-supplied waiter hasher — the cache package stores waiters as opaque
// `any` values and cannot hash them itself. The waiter-slice freelist is
// pooling state and is excluded.

import "ugpu/internal/digest"

// AppendDigest folds the tag array, LRU state, and counters.
func (c *Cache) AppendDigest(h digest.Hash) digest.Hash {
	return c.appendStats(c.appendLines(c.appendHeader(h), 0))
}

// AppendDigestPair returns (a.AppendDigest(ha), b.AppendDigest(hb)). The two
// tag-array folds are independent FNV chains; running them in lockstep lets
// the CPU overlap their multiply latencies, which halves the cost of the
// snapshot's largest arrays. Geometries may differ: the longer array's tail
// folds alone.
func AppendDigestPair(ha digest.Hash, a *Cache, hb digest.Hash, b *Cache) (digest.Hash, digest.Hash) {
	ha, hb = a.appendHeader(ha), b.appendHeader(hb)
	n := min(len(a.lines), len(b.lines))
	// The per-line fold of appendLines, written out for each side: as a
	// call it is too large to inline.
	for i := 0; i < n; i++ {
		if w := a.lines[i]; w.stamp != 0 {
			ha = ha.Bool(true).U64(w.tag).U64(w.stamp)
		} else {
			ha = ha.Bool(false)
		}
		if w := b.lines[i]; w.stamp != 0 {
			hb = hb.Bool(true).U64(w.tag).U64(w.stamp)
		} else {
			hb = hb.Bool(false)
		}
	}
	return a.appendStats(a.appendLines(ha, n)), b.appendStats(b.appendLines(hb, n))
}

func (c *Cache) appendHeader(h digest.Hash) digest.Hash {
	return h.Int(c.sets).Int(c.ways).U64(c.clock)
}

// appendLines folds the tag array from line index from on.
func (c *Cache) appendLines(h digest.Hash, from int) digest.Hash {
	for _, w := range c.lines[from:] {
		if w.stamp != 0 {
			h = h.Bool(true).U64(w.tag).U64(w.stamp)
		} else {
			h = h.Bool(false)
		}
	}
	return h
}

func (c *Cache) appendStats(h digest.Hash) digest.Hash {
	st := c.stats
	return h.U64(st.Accesses).U64(st.Hits).U64(st.Misses).U64(st.Evictions)
}

// AppendDigest folds the outstanding-miss file. hashWaiter maps one opaque
// waiter to its content hash (the gpu package supplies per-level hashers for
// *sm.Warp and its own request type). The literal 0 stands where a per-line
// merge limit used to fold, so digests match those of earlier versions.
func (m *MSHR) AppendDigest(h digest.Hash, hashWaiter func(any) digest.Hash) digest.Hash {
	var acc digest.Acc
	// The fold is a sum over occupied slots, so the scan stops at the last.
	for i := 0; i < len(m.slots) && acc.Len() < uint64(m.n); i++ {
		s := &m.slots[i]
		if s.ws == nil {
			continue
		}
		eh := digest.New().U64(s.line).Int(len(s.ws))
		for _, w := range s.ws {
			eh = eh.U64(uint64(hashWaiter(w)))
		}
		acc.Add(eh)
	}
	return h.Int(m.capacity).Int(0).Acc(acc)
}
