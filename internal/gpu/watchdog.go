package gpu

// Watchdog and invariant auditor: the liveness/consistency half of the
// robustness layer. RunChecked slices a run into heartbeat windows and
// verifies forward progress; CheckInvariants audits cross-layer conservation
// properties at quiescent points (epoch boundaries, after reconfiguration).
// Both are observation-only — a fault-free run produces byte-identical
// output with or without them.

import (
	"fmt"
	"strings"

	"ugpu/internal/sm"
	"ugpu/internal/tlb"
	"ugpu/internal/trace"
)

// Snapshot is a structured diagnostic of the simulator's in-flight state,
// attached to watchdog errors so a hung run is debuggable post mortem.
type Snapshot struct {
	Cycle            uint64
	WheelPending     int
	ReqNetPending    int
	RspNetPending    int
	DramQueued       int
	DramMigJobs      int
	MigActive        int
	MigQueued        int
	TransPending     int
	ResidentWarps    int
	BlockedWarps     int
	OutstandingLoads int
	FailedSMs        []int
	DeadGroups       []int
}

// String renders the snapshot on one line.
func (s Snapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cycle=%d wheel=%d noc=%d/%d dramQ=%d migJobs=%d migActive=%d migQueued=%d trans=%d warps=%d blocked=%d loads=%d",
		s.Cycle, s.WheelPending, s.ReqNetPending, s.RspNetPending, s.DramQueued,
		s.DramMigJobs, s.MigActive, s.MigQueued, s.TransPending,
		s.ResidentWarps, s.BlockedWarps, s.OutstandingLoads)
	if len(s.FailedSMs) > 0 {
		fmt.Fprintf(&b, " failedSMs=%v", s.FailedSMs)
	}
	if len(s.DeadGroups) > 0 {
		fmt.Fprintf(&b, " deadGroups=%v", s.DeadGroups)
	}
	return b.String()
}

// StallError is returned by RunChecked when the progress fingerprint did not
// change over a full watchdog window while work was still outstanding — a
// livelock or lost-wakeup deadlock in the model.
type StallError struct {
	Cycle  uint64 // cycle at which the stall was detected
	Window uint64 // watchdog window length in cycles
	Snap   Snapshot
}

func (e *StallError) Error() string {
	return fmt.Sprintf("gpu: watchdog: no forward progress over %d cycles (detected at cycle %d): %s",
		e.Window, e.Cycle, e.Snap)
}

// InvariantError is returned by CheckInvariants when a cross-layer
// conservation property is violated.
type InvariantError struct {
	Name   string // short invariant identifier
	Detail string
}

func (e *InvariantError) Error() string {
	return fmt.Sprintf("gpu: invariant %s violated: %s", e.Name, e.Detail)
}

// TakeSnapshot captures the current in-flight state for diagnostics.
func (g *GPU) TakeSnapshot() Snapshot {
	s := Snapshot{
		Cycle:         g.cycle,
		WheelPending:  g.wheel.Pending(),
		ReqNetPending: g.reqNet.Pending(),
		RspNetPending: g.rspNet.Pending(),
		DramQueued:    g.hbm.QueuedTotal(),
		DramMigJobs:   g.hbm.PendingMigrations(),
		MigActive:     g.migActive,
		MigQueued:     g.migQueue.len(),
		TransPending:  g.transPending.Len(),
		FailedSMs:     g.FailedSMs(),
		DeadGroups:    g.DeadGroups(),
	}
	for _, smu := range g.sms {
		s.ResidentWarps += smu.ResidentWarps()
		s.BlockedWarps += smu.BlockedWarps()
		s.OutstandingLoads += smu.OutstandingLoads()
	}
	return s
}

// progressFingerprint folds every monotone progress counter in the model
// into one value: if any instruction issued, any event fired, any NoC
// message moved, or any DRAM command completed, the fingerprint changes.
func (g *GPU) progressFingerprint() uint64 {
	g.settleParked() // credit sprinted instructions
	var instr uint64
	for _, smu := range g.sms {
		instr += smu.Stats().Instructions
	}
	req, rsp := g.reqNet.Stats(), g.rspNet.Stats()
	d := g.hbm.TotalStats()
	fp := instr
	fp = fp*0x9E3779B97F4A7C15 + g.wheel.fired
	fp = fp*0x9E3779B97F4A7C15 + req.Messages + rsp.Messages
	fp = fp*0x9E3779B97F4A7C15 + d.Reads + d.Writes + d.Migrations
	return fp
}

// outstandingWork reports whether anything in the machine is still waiting
// for something: a stalled fingerprint only signals a hang when this holds
// (an idle machine whose apps finished is quiescent, not stuck).
func (g *GPU) outstandingWork() bool {
	if g.wheel.Pending() > 0 || g.reqNet.Pending() > 0 || g.rspNet.Pending() > 0 {
		return true
	}
	if g.hbm.QueuedTotal() > 0 || g.hbm.PendingMigrations() > 0 {
		return true
	}
	if g.migActive > 0 || g.migQueue.len() > 0 || g.transPending.Len() > 0 {
		return true
	}
	for _, smu := range g.sms {
		if smu.OutstandingLoads() > 0 {
			return true
		}
	}
	return false
}

// scheduledWakeup reports whether any component holds a concrete completion
// deadline: a pending timer-wheel event, an in-flight NoC message, a queued
// DRAM command, a page-table walk, a switching SM, or an armed fault plan.
// Every one of these fires at its deadline and moves a fingerprint counter
// (or drains from this set), so a frozen fingerprint with a scheduled wakeup
// is a legitimate long wait — a spill-remap's page-fault-scale driver delay
// or a migration NACK backoff can exceed the watchdog window — not a stall.
// A real lost-wakeup hang (a blocked warp whose completion was dropped)
// schedules nothing, so it still trips. The sources mirror nextActivity
// (fastforward.go) but scan all SMs, not the fast-forward active set, so the
// answer is identical in every execution mode.
func (g *GPU) scheduledWakeup() bool {
	for _, s := range g.sms {
		if s.State() == sm.Switching {
			return true
		}
	}
	if _, ok := g.wheel.next(g.cycle); ok {
		return true
	}
	if _, ok := g.reqNet.NextArrival(); ok {
		return true
	}
	if _, ok := g.rspNet.NextArrival(); ok {
		return true
	}
	if _, ok := g.walker.NextDone(); ok {
		return true
	}
	if _, ok := g.hbm.NextActivity(g.cycle); ok {
		return true
	}
	if _, ok := g.inj.NextCycle(); ok {
		return true
	}
	return false
}

// RunChecked advances the simulation n cycles under watchdog supervision:
// every cfg.WatchdogCycles cycles the progress fingerprint is compared with
// the previous window's; if it did not change while work is outstanding, a
// *StallError with a diagnostic snapshot is returned instead of spinning
// forever. WatchdogCycles == 0 disables supervision (plain Run).
func (g *GPU) RunChecked(n uint64) error {
	hb := uint64(g.cfg.WatchdogCycles)
	if hb == 0 {
		g.Run(n)
		return nil
	}
	end := g.cycle + n
	for g.cycle < end {
		step := hb
		if rem := end - g.cycle; rem < step {
			step = rem
		}
		target := g.cycle + step
		g.runSpan(target)
		cur := g.progressFingerprint()
		if step == hb && g.tr.Enabled() {
			// Snapshot only when tracing: TakeSnapshot is read-only but not
			// free, and the disabled path must stay zero-cost.
			snap := g.TakeSnapshot()
			progressed := int64(0)
			if cur != g.lastFingerprint {
				progressed = 1
			}
			g.tr.Emit(trace.KWatchdogWindow, g.cycle, -1, 0,
				progressed, int64(snap.ResidentWarps), int64(snap.OutstandingLoads))
		}
		// Only a full window with a frozen fingerprint and outstanding work
		// is a stall; partial windows at the end of a slice are skipped. A
		// scheduled wakeup (a completion deadline still in the future) is
		// exempted: fast-forward elides such spans in one jump, and the
		// plain loop ticks through them — either way the machine is
		// legitimately waiting, not hung.
		if step == hb && cur == g.lastFingerprint && g.lastProgressAt > 0 &&
			g.outstandingWork() && !g.scheduledWakeup() {
			snap := g.TakeSnapshot()
			g.tr.Emit(trace.KWatchdogStall, g.cycle, -1, 0,
				int64(snap.OutstandingLoads), int64(snap.MigActive+snap.MigQueued), int64(snap.TransPending))
			return &StallError{Cycle: g.cycle, Window: hb, Snap: snap}
		}
		if cur != g.lastFingerprint {
			g.lastProgressAt = g.cycle
		}
		g.lastFingerprint = cur
		if g.lastProgressAt == 0 {
			g.lastProgressAt = g.cycle // first window observed
		}
	}
	return nil
}

// CheckInvariants audits cross-layer conservation at a quiescent point
// (between ticks). It returns the first violated invariant as an
// *InvariantError, or nil.
func (g *GPU) CheckInvariants() error {
	// 1. SM conservation: every owned SM exists, is alive, is owned by
	// exactly one app, and the in-flight accounting balances.
	owner := g.auditSMOwner
	for i := range owner {
		owner[i] = -1
	}
	inboundSum := 0
	for _, app := range g.apps {
		inboundSum += app.inbound
		for _, id := range app.SMs {
			if id < 0 || id >= g.cfg.NumSMs {
				return &InvariantError{"sm-conservation", fmt.Sprintf("app %d owns out-of-range SM %d", app.ID, id)}
			}
			if g.failedSMs[id] {
				return &InvariantError{"sm-conservation", fmt.Sprintf("app %d owns failed SM %d", app.ID, id)}
			}
			if owner[id] >= 0 {
				return &InvariantError{"sm-conservation", fmt.Sprintf("SM %d owned by both app %d and app %d", id, owner[id], app.ID)}
			}
			owner[id] = app.ID
		}
	}
	if inboundSum != g.reconfigSMs {
		return &InvariantError{"sm-conservation", fmt.Sprintf("inbound sum %d != reconfigSMs %d", inboundSum, g.reconfigSMs)}
	}
	if len(g.pendingMoveTo) != g.reconfigSMs {
		return &InvariantError{"sm-conservation", fmt.Sprintf("%d pending moves tracked, %d SMs reconfiguring", len(g.pendingMoveTo), g.reconfigSMs)}
	}

	// 2. No app may hold a dead channel group; every non-vacant app must
	// hold at least one group (vacant slots hold none by design).
	for _, app := range g.apps {
		for _, gr := range app.Groups {
			if g.deadGroups[gr] {
				return &InvariantError{"dead-group-ownership", fmt.Sprintf("app %d still owns dead group %d", app.ID, gr)}
			}
		}
		if len(app.Groups) == 0 && app.state != appVacant {
			return &InvariantError{"dead-group-ownership", fmt.Sprintf("app %d owns no channel groups", app.ID)}
		}
	}

	// 3. Pages resident on a dead group are only tolerated while their
	// emergency migration is still pending.
	for grp, dead := range g.deadGroups {
		if !dead {
			continue
		}
		for _, app := range g.apps {
			for _, vpn := range g.vmm.PagesOnGroup(app.ID, grp) {
				if !g.migInFlight[migKey(app.ID, vpn)] {
					return &InvariantError{"page-on-dead-group",
						fmt.Sprintf("app %d vpn %#x resident on dead group %d with no pending evacuation", app.ID, vpn, grp)}
				}
			}
		}
	}

	// 4. VM frame accounting (ownership, free lists, per-group indexes).
	if err := g.vmm.CheckInvariants(); err != nil {
		return &InvariantError{"vm-frames", err.Error()}
	}

	// 5. Event-wheel accounting and deadline monotonicity.
	if msg := g.wheel.audit(g.cycle); msg != "" {
		return &InvariantError{"event-wheel", msg}
	}

	// 6. Vacant slots own nothing: a departed tenant must leak no SMs,
	// in-flight SM moves, channel groups, pages, or memory requests.
	for _, app := range g.apps {
		if app.state != appVacant {
			continue
		}
		switch {
		case len(app.SMs) != 0:
			return &InvariantError{"vacant-slot", fmt.Sprintf("vacant app %d still owns %d SMs", app.ID, len(app.SMs))}
		case app.inbound != 0:
			return &InvariantError{"vacant-slot", fmt.Sprintf("vacant app %d has %d inbound SMs", app.ID, app.inbound)}
		case len(app.Groups) != 0:
			return &InvariantError{"vacant-slot", fmt.Sprintf("vacant app %d still owns %d channel groups", app.ID, len(app.Groups))}
		case g.memInFlight[app.ID] != 0:
			return &InvariantError{"vacant-slot", fmt.Sprintf("vacant app %d has %d memory requests in flight", app.ID, g.memInFlight[app.ID])}
		}
		if n := g.vmm.PageCount(app.ID); n != 0 {
			return &InvariantError{"vacant-slot", fmt.Sprintf("vacant app %d still holds %d pages", app.ID, n)}
		}
		// Strengthened with ISSUE 4's detach-leak audit: a vacant slot must
		// also have no queued/in-flight migrations, no merged translations,
		// and no SM still executing on its behalf (the drain-away hole
		// refsApp now closes).
		for key := range g.migInFlight {
			if tlb.AppOf(key) == app.ID {
				return &InvariantError{"vacant-slot", fmt.Sprintf("vacant app %d has a migration in flight (key %#x)", app.ID, key)}
			}
		}
		for _, job := range g.migQueue.pending() {
			if job.app == app.ID {
				return &InvariantError{"vacant-slot", fmt.Sprintf("vacant app %d has a queued migration (vpn %#x)", app.ID, job.vpn)}
			}
		}
		var key uint64
		if g.transPending.AnyLine(func(k uint64) bool { key = k; return tlb.AppOf(k) == app.ID }) {
			return &InvariantError{"vacant-slot", fmt.Sprintf("vacant app %d has a pending merged translation (key %#x)", app.ID, key)}
		}
		for _, s := range g.sms {
			if s.AppID() == app.ID {
				return &InvariantError{"vacant-slot", fmt.Sprintf("vacant app %d still bound to SM %d (state %s)", app.ID, s.ID, s.State())}
			}
		}
	}

	// 7. Requests parked on an LLC slice wait for a fill: the slice's MSHR
	// is full and the head's line is not outstanding, so no Add can succeed
	// before the next fill drains the queue. This is what lets retrySlices
	// skip parked requests instead of polling them every cycle.
	parked := 0
	for i, sl := range g.slices {
		if len(sl.parked) == 0 {
			continue
		}
		parked += len(sl.parked)
		if !sl.mshr.Full() {
			return &InvariantError{"llc-parked", fmt.Sprintf("slice %d parks %d requests but its MSHR is not full (%d entries)", i, len(sl.parked), sl.mshr.Len())}
		}
		if line := sl.parked[0].pa >> g.lineShift; sl.mshr.Lookup(line) {
			return &InvariantError{"llc-parked", fmt.Sprintf("slice %d parked head line %#x is outstanding in its MSHR", i, line)}
		}
	}
	if parked != g.parkedTotal {
		return &InvariantError{"llc-parked", fmt.Sprintf("parkedTotal %d != %d requests parked across slices", g.parkedTotal, parked)}
	}

	// 8. LLC->DRAM spills: a slice spills only requests for its own channel
	// (retrySlices skips a channel whose queue is full), spilled marks
	// exactly the channels with a spilled request, and toDramTotal sums them.
	spilled := 0
	for idx, sl := range g.slices {
		ch := idx / g.slicesPerCh
		for _, r := range sl.toDram {
			if gc := r.Loc.GlobalChannel(g.cfg.ChannelsPerStack); gc != ch {
				return &InvariantError{"llc-spill", fmt.Sprintf("slice %d spills a request for channel %d, not its own %d", idx, gc, ch)}
			}
		}
		spilled += len(sl.toDram)
		if (idx+1)%g.slicesPerCh != 0 {
			continue
		}
		n := 0
		for _, s := range g.slices[idx+1-g.slicesPerCh : idx+1] {
			n += len(s.toDram)
		}
		if marked := g.spilled[ch/64]>>(ch%64)&1 == 1; marked != (n > 0) {
			return &InvariantError{"llc-spill", fmt.Sprintf("channel %d spill mark is %v with %d spilled requests", ch, marked, n)}
		}
	}
	if spilled != g.toDramTotal {
		return &InvariantError{"llc-spill", fmt.Sprintf("toDramTotal %d != %d requests spilled across slices", g.toDramTotal, spilled)}
	}
	return nil
}
