package dram

// State digests (ISSUE 9). Channels, banks, and migration jobs all digest in
// index order — their layouts are deterministic across execution modes (bank
// queues are rings, so elements fold in logical order from qHead). Request
// completion callbacks digest as presence bits. migsDone is per-tick scratch
// and is excluded, as are the retired-job pool (freeJobs), the caller's job
// tags, the MigNACK fault hook and the trace sink, and the
// PPMM wake state (migJob.wakeAt, migLine.wakeAt, the migEnds ring), which
// is derived from the digested state and only elides tries that would fail.

import "ugpu/internal/digest"

// AppendDigest folds one request's routing and payload identity (the Done
// callback digests as a presence bit). Callers holding requests outside the
// controller (the GPU's LLC->DRAM spill queues) use it directly.
func (r *Request) AppendDigest(h digest.Hash) digest.Hash {
	return h.U64(uint64(requestHash(r)))
}

func requestHash(r *Request) digest.Hash {
	h := digest.New().U64(r.Addr).
		Int(r.Loc.Stack).Int(r.Loc.Channel).Int(r.Loc.BankGroup).
		Int(r.Loc.Bank).Int(r.Loc.Row)
	return h.Bool(r.IsWrite).Int(r.AppID).Bool(r.Done != nil).
		I64(int64(r.Tag)).U64(r.enqueuedAt)
}

func (b *bank) appendDigest(h digest.Hash) digest.Hash {
	h = h.Int(b.openRow).I64(b.readyAt).I64(b.actAt).I64(b.rasUntil)
	h = h.Int(b.qLen)
	for i := 0; i < b.qLen; i++ {
		r := b.q[(b.qHead+i)&(len(b.q)-1)]
		h = h.U64(uint64(requestHash(r)))
	}
	return h
}

func (c *channel) appendDigest(h digest.Hash, queued int) digest.Hash {
	for i := range c.banks {
		h = c.banks[i].appendDigest(h)
	}
	for i := range c.groups {
		g := &c.groups[i]
		h = h.I64(g.lastCAS).I64(g.lastACT).I64(g.writeEnd).I64(g.migBusyTil)
	}
	h = h.I64(c.busFreeAt).I64(c.lastCAS).I64(c.lastACT).I64(c.writeEnd)
	for _, t := range c.actTimes {
		h = h.I64(t)
	}
	h = h.Int(c.actIdx).Int(c.rrBank).Int(queued).I64(c.lastUse).
		Bool(c.degraded).Int(c.freqNum).Int(c.freqDen)
	st := c.stats
	return h.U64(st.Reads).U64(st.Writes).U64(st.RowHits).U64(st.RowMisses).
		U64(st.Activates).U64(st.Precharges).U64(st.Migrations).
		U64(st.BusyCycles).U64(st.QueueFull).U64(st.BankFaults).
		U64(st.DegradedServes).U64(st.ThrottledServes)
}

func (j *migJob) appendDigest(h digest.Hash) digest.Hash {
	h = h.Int(len(j.lines))
	for i := range j.lines {
		l := &j.lines[i]
		h = h.Int(l.src.Stack).Int(l.src.Channel).Int(l.src.BankGroup).
			Int(l.src.Bank).Int(l.src.Row)
		h = h.Int(l.dst.Stack).Int(l.dst.Channel).Int(l.dst.BankGroup).
			Int(l.dst.Bank).Int(l.dst.Row)
		h = h.Int(l.state).U64(l.endAt).U64(l.retryAt).Int(int(l.retries))
	}
	h = h.Int(int(j.mode)).Int(j.appID).Int(j.remaining).Int(j.inflight).
		Bool(j.failed).Bool(j.done != nil).Bool(j.fail != nil)
	h = h.Int(len(j.writes))
	for _, w := range j.writes {
		h = h.U64(w.readyAt).Int(w.line)
	}
	return h
}

// AppendDigest folds the memory system's full timing, queue, migration, and
// counter state.
func (h *HBM) AppendDigest(d digest.Hash) digest.Hash {
	d = d.Int(len(h.channels))
	for i, c := range h.channels {
		d = c.appendDigest(d, h.queued[i])
	}
	for _, a := range h.perApp {
		d = d.U64(a.ReadLines).U64(a.WriteLines)
	}
	d = d.Int(len(h.migs))
	for _, j := range h.migs {
		d = j.appendDigest(d)
	}
	for _, v := range h.crossLink {
		d = d.U64(v)
	}
	for _, v := range h.tsvBusy {
		d = d.Int(v)
	}
	return d.Int(h.activeMigPP).Int(h.queuedTotal)
}
