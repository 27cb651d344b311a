package gpu

// Whole-machine state digests (ISSUE 9). DigestComponents folds every
// stateful component into a named per-component digest; StateDigest rolls
// them into one value. The digest is canonical across execution modes: it is
// byte-identical with fast-forward on or off, with tracing on or off, under
// -parallel, and at DVFS nominal — so any cross-mode mismatch is a real
// state divergence, and the component naming localizes it.
//
// Excluded (non-semantic or mode-dependent observation state):
//   - object pools and scratch (freeReqs, freeDramReqs, freeWaiters,
//     epochDeltas/epochOut, the wheel's spare pool),
//   - the fast-forward engine's bookkeeping (activeSM, smInSet, smParked,
//     smParkedAt, switchingInSet, pendingWakes, ffStats, sprintFrom,
//     sprintEnd, sprintWarp) — it exists only in one mode; the lazily-accrued
//     stall and sprint statistics it defers are settled (settleParked)
//     before any SM digests,
//   - watchdog fields (lastFingerprint, lastProgressAt), which depend on
//     RunChecked's slicing cadence, not on machine state,
//   - cached bounds (wheel.nextAt/overMin; bucket-vs-overflow residency is
//     canonicalized by digesting the wheel as one event multiset).

import (
	"strconv"

	"ugpu/internal/cache"
	"ugpu/internal/digest"
	"ugpu/internal/sm"
)

// ensureDigestSupport builds the cached labels and waiter hashers on first
// use so steady-state digesting allocates nothing.
func (g *GPU) ensureDigestSupport() {
	if g.hashWarpFn != nil {
		return
	}
	g.hashWarpFn = func(a any) digest.Hash {
		return a.(*sm.Warp).StandaloneDigest(g.digestGen)
	}
	g.hashMemReqFn = func(a any) digest.Hash {
		r := a.(*memReq)
		return digest.New().Int(r.app).Int(r.sm).Int(r.slice).U64(r.pa).U64(r.vpn)
	}
	g.digestSMNames = make([]string, len(g.sms))
	for i := range g.digestSMNames {
		g.digestSMNames[i] = "sm" + strconv.Itoa(i)
	}
	g.digestSliceNames = make([]string, len(g.slices))
	for i := range g.digestSliceNames {
		g.digestSliceNames[i] = "llc" + strconv.Itoa(i)
	}
}

func hashWheelEvent(ev *wheelEvent) digest.Hash {
	return digest.New().U64(ev.at).Int(int(ev.kind)).Int(int(ev.app)).
		Int(int(ev.idx)).U64(ev.vpn).U64(ev.pa).
		Bool(ev.w != nil).Bool(ev.fn != nil)
}

// appendDigest folds the wheel as one unordered multiset over every pending
// event, wherever it currently lives: a deadline's residency (bucket vs
// overflow, and when the overflow drained) legitimately differs between
// fast-forward modes, but the logical event set does not. Bucketed events
// lie in [cycle, cycle+wheelSize), so the bucket scan starts at cycle's
// bucket and stops once it has seen all of them.
func (w *wheel) appendDigest(h digest.Hash, cycle uint64) digest.Hash {
	var acc digest.Acc
	inBuckets := uint64(w.pending - len(w.overflow))
	for k := cycle; k < cycle+wheelSize && acc.Len() < inBuckets; k++ {
		b := w.buckets[k&(wheelSize-1)]
		for j := range b {
			acc.Add(hashWheelEvent(&b[j]))
		}
	}
	for i := range w.overflow {
		acc.Add(hashWheelEvent(&w.overflow[i]))
	}
	return h.Acc(acc).Int(w.pending).U64(w.fired)
}

// DigestComponents records one named digest per machine component into rec
// (rec is Reset first). Parked SMs are settled beforehand so lazily-deferred
// stall accounting cannot make identical machines digest differently.
func (g *GPU) DigestComponents(rec *digest.Recorder) {
	g.ensureDigestSupport()
	g.settleParked()
	rec.Reset()
	g.digestGen++ // invalidates every warp's StandaloneDigest memo

	h := digest.New().U64(g.cycle).U64(g.epochStart).U64(g.transVersion).
		U64(g.checkTick).U64(g.dataMigCycles).U64(g.smMigCycles).
		Int(g.parkedTotal).Int(g.toDramTotal)
	st := g.stats
	h = h.U64(st.Loads).U64(st.L1Hits).U64(st.TLBL1Hits).
		U64(st.FaultMigrations).U64(st.RebalanceMigrations).
		U64(st.ScrubMigrations).U64(st.ChecksSampled)
	for _, n := range g.memInFlight {
		h = h.Int(n)
	}
	rec.Add("clock", h)

	// SMs and LLC slices digest two at a time: each component is an
	// independent FNV chain, and folding a pair's tag arrays and replay
	// queues in lockstep lets the CPU overlap the two chains' multiplies.
	// The replay queues, the longest chains, fold four SMs at a time.
	i := 0
	for ; i+3 < len(g.sms); i += 4 {
		h := g.digestSMQuad([4]int{i, i + 1, i + 2, i + 3})
		for k := range h {
			rec.Add(g.digestSMNames[i+k], h[k])
		}
	}
	for ; i+1 < len(g.sms); i += 2 {
		h0, h1 := g.digestSMPair(i, i+1)
		rec.Add(g.digestSMNames[i], h0)
		rec.Add(g.digestSMNames[i+1], h1)
	}
	if i < len(g.sms) {
		rec.Add(g.digestSMNames[i], g.digestSM(i))
	}

	rec.Add("l2tlb", g.l2tlb.AppendDigest(digest.New()))
	rec.Add("walker", g.walker.AppendDigest(digest.New()))

	h = g.reqNet.AppendDigest(digest.New(), g.hashMemReqFn)
	h = g.rspNet.AppendDigest(h, g.hashMemReqFn)
	rec.Add("noc", h)

	for i = 0; i+1 < len(g.slices); i += 2 {
		a, b := g.slices[i], g.slices[i+1]
		h0, h1 := cache.AppendDigestPair(digest.New(), a.cache, digest.New(), b.cache)
		rec.Add(g.digestSliceNames[i], g.appendSliceQueues(h0, a))
		rec.Add(g.digestSliceNames[i+1], g.appendSliceQueues(h1, b))
	}
	if i < len(g.slices) {
		sl := g.slices[i]
		rec.Add(g.digestSliceNames[i], g.appendSliceQueues(sl.cache.AppendDigest(digest.New()), sl))
	}

	rec.Add("dram", g.hbm.AppendDigest(digest.New()))
	rec.Add("vm", g.vmm.AppendDigest(digest.New()))
	rec.Add("wheel", g.wheel.appendDigest(digest.New(), g.cycle))

	h = digest.New().Int(len(g.apps))
	for _, app := range g.apps {
		h = h.Int(app.ID).Int(int(app.state)).Int(app.inbound).
			U64(app.TotalInstr).U64(app.baseLLCAcc).U64(app.baseLLCHit).
			U64(app.baseDRAM).U64(app.llcAcc).U64(app.llcHit)
		h = h.Int(len(app.SMs))
		for _, id := range app.SMs {
			h = h.Int(id)
		}
		h = h.Int(len(app.Groups))
		for _, gr := range app.Groups {
			h = h.Int(gr)
		}
		h = app.Disp.AppendDigest(h)
		if app.smApp != nil {
			h = h.Bool(true).Int(app.smApp.ID).Int(app.smApp.PageBytes).
				U64(app.smApp.SeedBase)
		} else {
			h = h.Bool(false)
		}
	}
	rec.Add("apps", h)

	var trans digest.Acc
	for key, ws := range g.transPending {
		eh := digest.New().U64(key).Int(len(ws))
		for _, w := range ws {
			eh = eh.Int(w.sm).U64(w.va).Int(w.app).Bool(w.w != nil)
		}
		trans.Add(eh)
	}
	rec.Add("trans", digest.New().Acc(trans))

	h = digest.New().Int(g.migActive).Int(g.reconfigSMs)
	var migs digest.Acc
	for k, v := range g.migInFlight {
		migs.Add(digest.New().U64(k).Bool(v))
	}
	h = h.Acc(migs).Int(len(g.migQueue))
	for _, j := range g.migQueue {
		h = h.Int(j.app).U64(j.vpn).Int(int(j.attempts))
	}
	var moves digest.Acc
	for id, app := range g.pendingMoveTo {
		moves.Add(digest.New().Int(id).Int(app.ID))
	}
	rec.Add("mig", h.Acc(moves))

	h = g.inj.AppendDigest(digest.New())
	for _, f := range g.failedSMs {
		h = h.Bool(f)
	}
	for _, d := range g.deadGroups {
		h = h.Bool(d)
	}
	fs := g.faultStats
	h = h.U64(fs.EmergencyMigrations).U64(fs.MigFailures).
		U64(fs.MigRetries).U64(fs.SpillRemaps).U64(g.firstFaultCycle)
	rec.Add("fault", h)

	rec.Add("power", g.pm.AppendDigest(digest.New()))
}

// digestSM folds SM i's component: execution state, L1 tag array, L1 MSHR,
// L1 TLB, epoch baseline and replay queue.
func (g *GPU) digestSM(i int) digest.Hash {
	h := g.sms[i].AppendDigest(digest.New())
	h = g.smL1[i].AppendDigest(h)
	h = g.appendSMMiss(h, i)
	return appendReplays(h, g.replayQ[i].pending())
}

// digestSMPair returns (g.digestSM(i), g.digestSM(j)), folding the two tag
// arrays and replay queues in lockstep.
func (g *GPU) digestSMPair(i, j int) (digest.Hash, digest.Hash) {
	hi, hj := g.digestSMPairHead(i, j)
	return appendReplayPair(hi, g.replayQ[i].pending(), hj, g.replayQ[j].pending())
}

// digestSMQuad returns g.digestSM of each of the four SMs: two pairs whose
// replay queues fold in lockstep, four chains wide over their common prefix.
func (g *GPU) digestSMQuad(ids [4]int) [4]digest.Hash {
	var h [4]digest.Hash
	var q [4][]replayReq
	for k := 0; k < 4; k += 2 {
		h[k], h[k+1] = g.digestSMPairHead(ids[k], ids[k+1])
	}
	for k, id := range ids {
		q[k] = g.replayQ[id].pending()
	}
	n := min(len(q[0]), len(q[1]), len(q[2]), len(q[3]))
	for j := 0; j < n; j++ {
		h[0], h[1] = appendReplayPairAt(h[0], &q[0][j], h[1], &q[1][j])
		h[2], h[3] = appendReplayPairAt(h[2], &q[2][j], h[3], &q[3][j])
	}
	h[0], h[1] = appendReplayPair(h[0], q[0][n:], h[1], q[1][n:])
	h[2], h[3] = appendReplayPair(h[2], q[2][n:], h[3], q[3][n:])
	return h
}

// digestSMPairHead folds SMs i and j up to their replay queues.
func (g *GPU) digestSMPairHead(i, j int) (digest.Hash, digest.Hash) {
	hi, hj := sm.AppendDigestPair(digest.New(), g.sms[i], digest.New(), g.sms[j])
	hi, hj = cache.AppendDigestPair(hi, g.smL1[i], hj, g.smL1[j])
	return g.appendSMMiss(hi, i), g.appendSMMiss(hj, j)
}

// appendSMMiss folds SM i's L1 MSHR, L1 TLB, epoch baseline and replay
// queue length.
func (g *GPU) appendSMMiss(h digest.Hash, i int) digest.Hash {
	h = g.smMSHR[i].AppendDigest(h, g.hashWarpFn)
	h = g.smL1TLB[i].AppendDigest(h)
	return h.U64(g.smBase[i]).Int(g.replayQ[i].len())
}

func appendReplay(h digest.Hash, r *replayReq) digest.Hash {
	return r.w.AppendDigest(h.Int(r.app).U64(r.pa).U64(r.vpn))
}

// appendReplayPairAt returns (appendReplay(ha, a), appendReplay(hb, b)).
func appendReplayPairAt(ha digest.Hash, a *replayReq, hb digest.Hash, b *replayReq) (digest.Hash, digest.Hash) {
	ha, hb = ha.Int(a.app), hb.Int(b.app)
	ha, hb = ha.U64(a.pa), hb.U64(b.pa)
	ha, hb = ha.U64(a.vpn), hb.U64(b.vpn)
	return sm.AppendWarpDigestPair(ha, a.w, hb, b.w)
}

func appendReplays(h digest.Hash, q []replayReq) digest.Hash {
	for k := range q {
		h = appendReplay(h, &q[k])
	}
	return h
}

// appendReplayPair returns (appendReplays(ha, qa), appendReplays(hb, qb)),
// folding the common prefix of the two queues in lockstep.
func appendReplayPair(ha digest.Hash, qa []replayReq, hb digest.Hash, qb []replayReq) (digest.Hash, digest.Hash) {
	n := min(len(qa), len(qb))
	for k := 0; k < n; k++ {
		ha, hb = appendReplayPairAt(ha, &qa[k], hb, &qb[k])
	}
	return appendReplays(ha, qa[n:]), appendReplays(hb, qb[n:])
}

// appendSliceQueues folds an LLC slice's MSHR, parked requests and DRAM
// spill queue.
func (g *GPU) appendSliceQueues(h digest.Hash, sl *llcSlice) digest.Hash {
	h = sl.mshr.AppendDigest(h, g.hashMemReqFn)
	h = h.Int(len(sl.parked))
	for _, r := range sl.parked {
		h = h.U64(uint64(g.hashMemReqFn(r)))
	}
	h = h.Int(len(sl.toDram))
	for _, r := range sl.toDram {
		h = r.AppendDigest(h)
	}
	return h
}

// StateDigest rolls every component digest into one machine-state value.
// Callers that digest repeatedly (the epoch chain, the bisector's per-cycle
// probe) should hold their own Recorder and use DigestComponents instead.
func (g *GPU) StateDigest() digest.Hash {
	var rec digest.Recorder
	g.DigestComponents(&rec)
	return rec.Fold()
}

// PerturbStateForTest injects a pure-observation state divergence: it bumps
// the L2 TLB's access counter by a value no real execution reaches, so from
// this point on the "l2tlb" component digests differently while simulated
// behaviour is completely unchanged. The digest harness's acceptance test
// uses it to prove the bisector pinpoints a single-component divergence.
func (g *GPU) PerturbStateForTest() {
	g.l2tlb.PerturbStatsForTest()
}

// SchedulePerturbForTest schedules a wheel event delta cycles ahead that
// applies PerturbStateForTest when it fires — but only when mutate is true;
// otherwise the event is a deterministic no-op. Scheduled callbacks digest as
// presence bits, so two runs that schedule the event at the same cycle stay
// digest-identical until the mutating one fires: this is how the bisector's
// tests plant a divergence in the middle of an epoch rather than at its
// boundary.
func (g *GPU) SchedulePerturbForTest(delta uint64, mutate bool) {
	g.wheel.schedule(g.cycle, g.cycle+delta, func(uint64) {
		if mutate {
			g.l2tlb.PerturbStatsForTest()
		}
	})
}
