package workload

// State digests (ISSUE 9). WarpStream and Dispatcher carry the only
// unexported mutable state in this package that survives across cycles, so
// they fold themselves; everything else (Benchmark, Kernel, Job) is
// immutable after construction and digests through its owner when needed.

import "ugpu/internal/digest"

// immutableHash folds every stream field that never changes between
// InitWarpStream calls: kernel parameters (by value, not identity),
// thresholds, and geometry. InitWarpStream caches the result in immHash.
func (ws *WarpStream) immutableHash() uint64 {
	h := digest.New()
	if ws.kernel != nil {
		h = h.Bool(true).F64(ws.kernel.MemFraction).F64(ws.kernel.HotProb).
			U64(ws.kernel.StrideBytes).Int(ws.kernel.InstrPerWarp).
			Int(ws.kernel.Divergence).Int(ws.kernel.TBs)
	} else {
		h = h.Bool(false)
	}
	return uint64(h.U32(ws.memThresh).U32(ws.hotThresh).
		U64(ws.footBytes).U64(ws.hotBytes).U64(ws.pageBytes).
		Int(ws.hotRun).Int(ws.streamRun).U64(ws.stride).
		Int(ws.diverge).Int(ws.quota))
}

// AppendDigest folds the stream's full replay state: every field that
// influences a future NextInstr result. Immutable fields enter through the
// cached immHash; the mutable replay state is five words — the run-mode
// trio (modeHot, modeLeft, issued) is range-bounded (modeLeft a burst-run
// countdown, issued at most InstrPerWarp) and packs into one.
func (ws *WarpStream) AppendDigest(h digest.Hash) digest.Hash {
	if ws == nil {
		return h.Bool(false)
	}
	return h.U64(ws.immHash).
		U64(ws.cursor).U64(ws.hotPage).U64(ws.mode()).U64(ws.rng)
}

// AppendDigestPair returns (a.AppendDigest(ha), b.AppendDigest(hb)) for two
// non-nil streams, folding them in lockstep so the two chains overlap.
func AppendDigestPair(ha digest.Hash, a *WarpStream, hb digest.Hash, b *WarpStream) (digest.Hash, digest.Hash) {
	ha, hb = ha.U64(a.immHash), hb.U64(b.immHash)
	ha, hb = ha.U64(a.cursor), hb.U64(b.cursor)
	ha, hb = ha.U64(a.hotPage), hb.U64(b.hotPage)
	ha, hb = ha.U64(a.mode()), hb.U64(b.mode())
	return ha.U64(a.rng), hb.U64(b.rng)
}

// mode packs the run-mode trio (modeHot, modeLeft, issued) into one word.
func (ws *WarpStream) mode() uint64 {
	mode := uint64(ws.issued)<<32 | uint64(uint32(ws.modeLeft))<<1
	if ws.modeHot {
		mode |= 1
	}
	return mode
}

// AppendDigest folds the dispatcher's kernel-cycling cursor (the state that
// decides which thread block is handed out next).
func (d *Dispatcher) AppendDigest(h digest.Hash) digest.Hash {
	if d == nil {
		return h.Bool(false)
	}
	return h.Bool(true).Str(d.bench.Abbr).U64(d.footPages).U64(d.hotPages).
		Int(d.kernelIdx).Int(d.launches).Int(d.tbNext).Int(d.KernelSwitches)
}
