package dram

import (
	"math/rand"
	"testing"

	"ugpu/internal/addr"
	"ugpu/internal/config"
)

// refPick is the earlier FR-FCFS scan, kept as a test oracle: it walks all
// banks in rotation from rrBank with a modulo per bank and reads each head
// request through its pointer.
func refPick(h *HBM, c int64, ch *channel) int {
	var hit, ready, oldest *Request
	hitIdx, readyIdx, oldIdx := -1, -1, -1
	tRC := int64(h.cfg.Timing.TRC)
	nb := len(ch.banks)
	for k := 0; k < nb; k++ {
		bi := (ch.rrBank + k) % nb
		b := &ch.banks[bi]
		if b.qLen == 0 {
			continue
		}
		if ch.groups[bi/h.cfg.BanksPerGroup].migBusyTil > c {
			continue
		}
		r := b.qFront()
		if oldest == nil || r.enqueuedAt < oldest.enqueuedAt {
			oldest, oldIdx = r, bi
		}
		if b.readyAt > c {
			continue
		}
		if b.openRow == r.Loc.Row {
			if hit == nil || r.enqueuedAt < hit.enqueuedAt {
				hit, hitIdx = r, bi
			}
			continue
		}
		if b.actAt+tRC <= c {
			if ready == nil || r.enqueuedAt < ready.enqueuedAt {
				ready, readyIdx = r, bi
			}
		}
	}
	switch {
	case hit != nil:
		return hitIdx
	case ready != nil:
		return readyIdx
	}
	return oldIdx
}

// checkBankCache verifies the channel's non-empty mask, each bank's cached
// head fields and the channel's migration hold bound against the state they
// summarise.
func checkBankCache(t *testing.T, step int, ch *channel) {
	t.Helper()
	for g := range ch.groups {
		if ch.groups[g].migBusyTil > ch.migBusyTil {
			t.Fatalf("step %d: group %d held until %d, past the channel's bound %d", step, g, ch.groups[g].migBusyTil, ch.migBusyTil)
		}
	}
	for bi := range ch.banks {
		b := &ch.banks[bi]
		if got, want := ch.queuedOn>>bi&1 == 1, b.qLen > 0; got != want {
			t.Fatalf("step %d: bank %d mask bit %v, queue length %d", step, bi, got, b.qLen)
		}
		if b.qLen > 0 && (b.headAt != b.qFront().enqueuedAt || b.headRow != b.qFront().Loc.Row) {
			t.Fatalf("step %d: bank %d cached head (%d, %d), queue head (%d, %d)", step, bi,
				b.headAt, b.headRow, b.qFront().enqueuedAt, b.qFront().Loc.Row)
		}
	}
}

// TestPickMatchesLinearScan: on randomised bank states (readyAt, actAt,
// openRow, migBusyTil, rrBank) and queues with arrival-time ties, the
// bitmask walk over cached heads picks the same bank as the full scan, and
// issuing keeps the mask and head caches exact.
func TestPickMatchesLinearScan(t *testing.T) {
	cfg := config.Default()
	tRC := int64(cfg.Timing.TRC)
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := New(cfg, 1)
		ch := h.channels[0]
		var cycle uint64 = 1000
		picks := 0
		for step := 0; step < 3000; step++ {
			for n := rng.Intn(4); n > 0 && h.queued[0] < cfg.QueueEntries; n-- {
				r := &Request{Loc: addr.Location{
					BankGroup: rng.Intn(cfg.BankGroups), Bank: rng.Intn(cfg.BanksPerGroup), Row: rng.Intn(4),
				}}
				h.Enqueue(cycle, r)
			}
			if rng.Intn(3) == 0 {
				cycle += uint64(rng.Intn(3)) // repeats make arrival-time ties
			}
			c := int64(cycle)
			for bi := range ch.banks {
				b := &ch.banks[bi]
				b.readyAt = c + int64(rng.Intn(60)) - 40
				b.actAt = c - tRC + int64(rng.Intn(40)) - 20
				b.openRow = rng.Intn(5) - 1
			}
			ch.migBusyTil = farPast
			for g := range ch.groups {
				ch.groups[g].migBusyTil = farPast
				if rng.Intn(4) == 0 {
					ch.groups[g].migBusyTil = c + int64(rng.Intn(20)) - 5
				}
				ch.migBusyTil = max(ch.migBusyTil, ch.groups[g].migBusyTil)
			}
			ch.rrBank = rng.Intn(len(ch.banks))
			checkBankCache(t, step, ch)
			got, want := h.pick(c, ch), refPick(h, c, ch)
			if got != want {
				t.Fatalf("seed %d step %d: pick = %d, linear scan = %d", seed, step, got, want)
			}
			if got >= 0 {
				picks++
			}
			if rng.Intn(2) == 0 {
				ch.busFreeAt = farPast // open the issue gate
				h.issueOne(cycle, 0, ch)
			}
		}
		if picks < 1000 {
			t.Fatalf("seed %d: only %d of 3000 steps picked a bank", seed, picks)
		}
	}
}
