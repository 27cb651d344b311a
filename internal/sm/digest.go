package sm

// State digests (ISSUE 9): every field that can influence a future cycle
// folds in; observation-only and pooling state (freeWarps, addrBuf, Trace,
// Wake) is excluded. Warp and scheduler order are themselves deterministic
// across execution modes, so slices fold in place — no canonicalization
// beyond the field ordering fixed here.

import (
	"ugpu/internal/digest"
	"ugpu/internal/workload"
)

// AppendDigest folds one warp's architectural state. The owning SM and the
// stream's backing pointers digest by value, never identity. The small
// bounded fields — presence, the four flags, Outstanding/MaxOut (MSHR-
// limited) and the TB slot index — pack into 16-bit lanes of a single word
// to keep the per-epoch snapshot within its 2% budget (digest_bench_test.go
// in the gpu package).
func (w *Warp) AppendDigest(h digest.Hash) digest.Hash {
	if w == nil {
		return h.Bool(false)
	}
	h = h.U64(w.packedFlags())
	h = w.Stream.AppendDigest(h)
	h = h.U64(w.LastVPN).U64(w.LastPA).U64(w.LastVer)
	h = h.Int(len(w.pending))
	for _, va := range w.pending {
		h = h.U64(va)
	}
	return h
}

// AppendWarpDigestPair returns (a.AppendDigest(ha), b.AppendDigest(hb)) for
// two non-nil warps, folding them in lockstep so the two hash chains
// overlap (the GPU's replay queues digest this way, two SMs at a time).
func AppendWarpDigestPair(ha digest.Hash, a *Warp, hb digest.Hash, b *Warp) (digest.Hash, digest.Hash) {
	ha, hb = ha.U64(a.packedFlags()), hb.U64(b.packedFlags())
	ha, hb = workload.AppendDigestPair(ha, &a.Stream, hb, &b.Stream)
	ha, hb = ha.U64(a.LastVPN), hb.U64(b.LastVPN)
	ha, hb = ha.U64(a.LastPA), hb.U64(b.LastPA)
	ha, hb = ha.U64(a.LastVer), hb.U64(b.LastVer)
	ha, hb = ha.Int(len(a.pending)), hb.Int(len(b.pending))
	pa, pb := a.pending, b.pending
	n := min(len(pa), len(pb))
	for i := 0; i < n; i++ {
		ha, hb = ha.U64(pa[i]), hb.U64(pb[i])
	}
	for _, va := range pa[n:] {
		ha = ha.U64(va)
	}
	for _, va := range pb[n:] {
		hb = hb.U64(va)
	}
	return ha, hb
}

// packedFlags packs the warp's small bounded fields into the one word
// AppendDigest folds first.
func (w *Warp) packedFlags() uint64 {
	packed := uint64(1)
	if w.LastValid {
		packed |= 1 << 1
	}
	if w.blocked {
		packed |= 1 << 2
	}
	if w.structStall {
		packed |= 1 << 3
	}
	if w.done {
		packed |= 1 << 4
	}
	packed |= uint64(uint16(w.Outstanding))<<16 |
		uint64(uint16(w.MaxOut))<<32 | uint64(uint16(w.tb))<<48
	return packed
}

// StandaloneDigest returns w.AppendDigest(digest.New()), computing it at
// most once per snapshot: gen numbers the caller's snapshots (gen > 0) and
// the warp's state must not change while one is taken. The GPU's MSHRs list
// a warp once per outstanding line, so the memo saves most warp folds.
func (w *Warp) StandaloneDigest(gen uint64) digest.Hash {
	if w.digestGen != gen {
		w.digestGen, w.digestMemo = gen, w.AppendDigest(digest.New())
	}
	return w.digestMemo
}

// AppendDigest folds the SM's scheduler, TB, and counter state. Call only at
// a settled observation point: the fast-forward engine's lazily-accrued
// stall statistics must be credited first (gpu.settleParked), or the same
// machine state digests differently with the engine on and off.
func (s *SM) AppendDigest(h digest.Hash) digest.Hash {
	h = s.appendHead(h)
	// Age-ordered resident warps (including done-but-uncompacted ones): this
	// order decides GTO picks, so it is semantic and deterministic.
	h = appendWarps(h, s.warps)
	h = appendWarps(h, s.retry)
	return s.appendStats(h)
}

// AppendDigestPair returns (a.AppendDigest(ha), b.AppendDigest(hb)),
// folding the two SMs' warps in lockstep so the two chains overlap.
func AppendDigestPair(ha digest.Hash, a *SM, hb digest.Hash, b *SM) (digest.Hash, digest.Hash) {
	ha, hb = a.appendHead(ha), b.appendHead(hb)
	ha, hb = appendWarpsPair(ha, a.warps, hb, b.warps)
	ha, hb = appendWarpsPair(ha, a.retry, hb, b.retry)
	return a.appendStats(ha), b.appendStats(hb)
}

func appendWarps(h digest.Hash, ws []*Warp) digest.Hash {
	h = h.Int(len(ws))
	for _, w := range ws {
		h = w.AppendDigest(h)
	}
	return h
}

// appendWarpsPair returns (appendWarps(ha, wa), appendWarps(hb, wb)).
func appendWarpsPair(ha digest.Hash, wa []*Warp, hb digest.Hash, wb []*Warp) (digest.Hash, digest.Hash) {
	ha, hb = ha.Int(len(wa)), hb.Int(len(wb))
	n := min(len(wa), len(wb))
	for i := 0; i < n; i++ {
		ha, hb = AppendWarpDigestPair(ha, wa[i], hb, wb[i])
	}
	for _, w := range wa[n:] {
		ha = w.AppendDigest(ha)
	}
	for _, w := range wb[n:] {
		hb = w.AppendDigest(hb)
	}
	return ha, hb
}

// appendHead folds the SM's scheduler and TB state.
func (s *SM) appendHead(h digest.Hash) digest.Hash {
	h = h.Int(s.ID).Int(int(s.state)).Int(s.AppID()).
		U64(s.switchUntil).Bool(s.onFree != nil).
		F64(s.tbDurationEMA).Int(s.current).Int(s.unready)
	for _, at := range s.tbStart {
		h = h.U64(at)
	}
	h = h.Int(len(s.tbSlots))
	for i := range s.tbSlots {
		slot := &s.tbSlots[i]
		packed := uint64(uint32(slot.liveWarp)) << 1
		if slot.valid {
			packed |= 1
		}
		h = h.U64(packed)
	}
	return h
}

// appendStats folds the SM's counters.
func (s *SM) appendStats(h digest.Hash) digest.Hash {
	st := s.stats
	return h.U64(st.Instructions).U64(st.MemInstrs).U64(st.IssueSlots).
		U64(st.ActiveCycles).U64(st.StallCycles).U64(st.TBsCompleted)
}
