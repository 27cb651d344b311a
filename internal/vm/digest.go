package vm

// State digests. The tables are dense slices, so they could fold in index
// order, but page tables, flag sets and frame records still fold as
// unordered multisets (Acc) of the same elements the earlier hash-map tables
// folded: digests of every run stay identical across the change of layout,
// and the recorded goldens remain valid. Recycle stacks are LIFO — their
// order decides future allocations — so they fold in place. Per-group page
// counts digest only by size: which pages sit on a group is already covered
// by the page-table multiset (VPN -> PA determines the group). Audit stamps
// (frameRec.mark) are scratch and excluded.

import "ugpu/internal/digest"

func (s *space) appendDigest(h digest.Hash) digest.Hash {
	h = h.Int(s.id).Bool(s.rebalancing)
	var pt, mig, pend digest.Acc
	for i, e := range s.pt {
		vpn, f := uint64(i), s.flags[i]
		if e != 0 {
			pt.Add(digest.New().U64(vpn).U64(e - 1))
		}
		if f&flagMigrating != 0 {
			mig.Add(digest.New().U64(vpn).Bool(true))
		}
		if f&flagPending != 0 {
			pend.Add(digest.New().U64(vpn))
		}
	}
	h = h.Acc(pt)
	for _, n := range s.groupN {
		h = h.Int(n)
	}
	h = h.Int(len(s.groups))
	for _, g := range s.groups {
		h = h.Int(g)
	}
	for _, a := range s.allowed {
		h = h.Bool(a)
	}
	return h.Acc(mig).Acc(pend)
}

// AppendDigest folds every address space, the frame allocator, the content
// tags, and the counters.
func (m *Manager) AppendDigest(h digest.Hash) digest.Hash {
	h = h.Int(len(m.spaces))
	for _, sp := range m.spaces {
		h = sp.appendDigest(h)
	}
	for _, recs := range m.frames {
		h = h.U64(uint64(len(recs)))
	}
	for g := range m.recycled {
		h = h.Int(len(m.recycled[g]))
		for _, f := range m.recycled[g] {
			h = h.U64(f)
		}
	}
	var tags, owners digest.Acc
	for g, recs := range m.frames {
		for f := range recs {
			r := &recs[f]
			if r.app < 0 {
				continue
			}
			pa := m.mapper.FrameBase(g, uint64(f))
			tags.Add(digest.New().U64(pa).U64(r.tag))
			owners.Add(digest.New().U64(pa).U64(uint64(r.app)).U64(r.vpn))
		}
	}
	h = h.Acc(tags).Acc(owners)
	for _, d := range m.deadGroup {
		h = h.Bool(d)
	}
	st := m.stats
	return h.U64(st.Faults).U64(st.Migrations).U64(st.Allocated).
		U64(st.Freed).U64(st.Remaps)
}
