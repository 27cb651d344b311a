package cache

// State digests. The tag array digests in index order (layout is
// deterministic); the MSHR's slot table digests as an unordered multiset of
// its entries (slot positions depend on probe history, not on state), with
// each entry's waiters folded in their (deterministic) merge order through a
// caller-supplied waiter fold — the cache package is generic over the waiter
// type and cannot hash it itself. The node pool's freelist is pooling state
// and is excluded.

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

// AppendDigestQuad returns each c[k].AppendDigest(h[k]), folding the four
// tag arrays in lockstep over their common prefix (four FNV chains keep the
// multiplier busier than two) and the tails as AppendDigestPair does.
func AppendDigestQuad(h [4]digest.Hash, c [4]*Cache) [4]digest.Hash {
	h0, h1, h2, h3 := c[0].appendHeader(h[0]), c[1].appendHeader(h[1]), c[2].appendHeader(h[2]), c[3].appendHeader(h[3])
	l0, l1, l2, l3 := c[0].lines, c[1].lines, c[2].lines, c[3].lines
	n := min(len(l0), len(l1), len(l2), len(l3))
	// The per-line fold written out for each side, as in AppendDigestPair.
	for i := 0; i < n; i++ {
		if w := l0[i]; w.stamp != 0 {
			h0 = h0.Bool(true).U64(w.tag).U64(w.stamp)
		} else {
			h0 = h0.Bool(false)
		}
		if w := l1[i]; w.stamp != 0 {
			h1 = h1.Bool(true).U64(w.tag).U64(w.stamp)
		} else {
			h1 = h1.Bool(false)
		}
		if w := l2[i]; w.stamp != 0 {
			h2 = h2.Bool(true).U64(w.tag).U64(w.stamp)
		} else {
			h2 = h2.Bool(false)
		}
		if w := l3[i]; w.stamp != 0 {
			h3 = h3.Bool(true).U64(w.tag).U64(w.stamp)
		} else {
			h3 = h3.Bool(false)
		}
	}
	h0, h1 = c[0].appendLines(h0, n), c[1].appendLines(h1, n)
	h2, h3 = c[2].appendLines(h2, n), c[3].appendLines(h3, n)
	return [4]digest.Hash{c[0].appendStats(h0), c[1].appendStats(h1), c[2].appendStats(h2), c[3].appendStats(h3)}
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

// AppendDigest folds the outstanding-miss file. appendWaiter folds one
// waiter into its entry's hash (the gpu package supplies per-level folds for
// *sm.Warp and its own request type). The literal 0 stands where a per-line
// merge limit used to fold, so digests match those of earlier versions.
func (m *MSHR[W]) AppendDigest(h digest.Hash, appendWaiter func(digest.Hash, W) digest.Hash) digest.Hash {
	return h.Int(m.capacity).Int(0).Acc(m.EntryDigests(appendWaiter))
}

// EntryDigests returns the multiset of entry hashes: per outstanding line,
// the line, its waiter count and each waiter in merge order (appendWaiter
// folds one waiter).
func (m *MSHR[W]) EntryDigests(appendWaiter func(digest.Hash, W) digest.Hash) digest.Acc {
	var acc digest.Acc
	// The fold is a sum over occupied slots, so the scan stops at the last.
	for i := 0; i < len(m.slots) && acc.Len() < uint64(m.n); i++ {
		s := &m.slots[i]
		if s.count == 0 {
			continue
		}
		eh := digest.New().U64(s.line).Int(int(s.count))
		for k := s.head; k >= 0; k = m.node(k).next {
			eh = appendWaiter(eh, m.node(k).w)
		}
		acc.Add(eh)
	}
	return acc
}
