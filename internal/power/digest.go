package power

// State digests (ISSUE 9). Everything a future cycle can observe folds in:
// domain states, transition deadlines, meter anchors, per-state attribution,
// and the governor's hysteresis. Two fields are deliberately excluded as
// mode-dependent caches: domain.full is restored lazily by SMOpen (a
// fast-forwarded span may never query the gate on the restoring cycle, so
// its raw value differs between modes while the semantic state — ratio and
// window — is identical), and Manager.smNotFull mirrors it. The governor's
// desSM/desCh scratch is rebuilt from scratch every Step and is excluded too.

import "ugpu/internal/digest"

func (d *domain) appendDigest(h digest.Hash) digest.Hash {
	h = h.Int(d.state).U64(d.until).U32(d.num).U32(d.den).
		U64(d.lastCycle).U64(d.lastActive).U64(d.lastAccess).U64(d.lastAct)
	for _, v := range d.resCycles {
		h = h.U64(v)
	}
	for _, v := range d.active {
		h = h.U64(v)
	}
	for _, v := range d.activates {
		h = h.U64(v)
	}
	return h
}

// AppendDigest folds all DVFS domain and energy-meter state. Nil-safe: a GPU
// without power management digests as a single absence bit.
func (m *Manager) AppendDigest(h digest.Hash) digest.Hash {
	if m == nil {
		return h.Bool(false)
	}
	h = h.Bool(true).Int(len(m.smDom)).Int(len(m.chDom))
	for i := range m.smDom {
		h = m.smDom[i].appendDigest(h)
	}
	for i := range m.chDom {
		h = m.chDom[i].appendDigest(h)
	}
	return h.U64(m.sampledTo).U64(m.transitions).
		U64(m.lastPowerAt).F64(m.lastPowerE).F64(m.lastPower)
}

// AppendDigest folds the governor's hysteresis and cap-controller state.
// Nil-safe for runs without a governor.
func (g *Governor) AppendDigest(h digest.Hash) digest.Hash {
	if g == nil {
		return h.Bool(false)
	}
	h = h.Bool(true).F64(g.cap).Int(g.capDepth).Bool(g.clamped)
	h = h.Int(len(g.slots))
	for i := range g.slots {
		s := &g.slots[i]
		h = h.Int(s.gen).Int(s.memStreak).Int(s.upStreak).
			Int(s.dnChan).Int(s.upChan).Int(s.hold).Int(s.holdChan).
			Int(s.smState).Int(s.chState)
	}
	return h
}
