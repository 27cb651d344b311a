package gpu

// Fault application and degraded-mode repair (the runtime half of
// internal/fault): when the injector's schedule delivers a discrete fault,
// the GPU immediately repairs ownership so every surviving application keeps
// at least one SM and one live channel group, marks the lost hardware
// unavailable to the partitioner, and evacuates pages stranded on a dying
// channel group through the ordinary migration machinery (bounded retries
// with exponential backoff, spilling to a slow-path driver remap on
// exhaustion). Epoch policies then re-solve the partition over the surviving
// resources at the next boundary.

import (
	"sort"

	"ugpu/internal/fault"
	"ugpu/internal/trace"
)

// applyFaults delivers every planned fault due at this cycle.
func (g *GPU) applyFaults(cycle uint64) {
	for {
		ev, ok := g.inj.PopDue(cycle)
		if !ok {
			return
		}
		if g.firstFaultCycle == 0 {
			g.firstFaultCycle = cycle
		}
		g.tr.Emit(trace.KFaultInject, cycle, -1, int32(ev.Unit),
			int64(ev.Kind), int64(ev.Aux), int64(ev.Duration))
		switch ev.Kind {
		case fault.SMFail:
			g.failSM(cycle, ev.Unit)
		case fault.GroupFail:
			g.failGroup(cycle, ev.Unit)
		case fault.BankFault:
			g.hbm.InjectBankFault(cycle, ev.Unit, ev.Aux, ev.Duration)
		}
	}
}

// failSM permanently removes one SM. Ownership bookkeeping is repaired
// immediately: an owned SM leaves its app's list, an in-flight (draining or
// switching) SM cancels its pending handoff, and an app reduced to zero SMs
// is granted one from the best-provisioned survivor.
func (g *GPU) failSM(cycle uint64, id int) {
	if id < 0 || id >= len(g.sms) || g.failedSMs[id] {
		return
	}
	g.failedSMs[id] = true

	var starved *App
	if dest, moving := g.pendingMoveTo[id]; moving {
		// The SM died mid-drain/switch: it was already removed from the old
		// owner's list, so only the destination's in-flight accounting needs
		// unwinding. sm.Fail clears the onFree handoff so it never lands.
		dest.inbound--
		g.reconfigSMs--
		delete(g.pendingMoveTo, id)
		if len(dest.SMs) == 0 && dest.inbound == 0 && dest.state == appActive {
			starved = dest
		}
	} else {
		for _, app := range g.apps {
			for i, smID := range app.SMs {
				if smID != id {
					continue
				}
				app.SMs = append(app.SMs[:i], app.SMs[i+1:]...)
				if len(app.SMs) == 0 && app.inbound == 0 && app.state == appActive {
					starved = app
				}
				break
			}
		}
	}

	// Discard the SM's execution state and any accesses parked on its L1
	// MSHR replay queue (their warps died with the SM).
	g.sms[id].Fail(cycle)
	g.replayQ[id] = replayFIFO{}

	if starved != nil {
		g.grantSM(cycle, starved)
	}
}

// grantSM donates one SM from the best-provisioned surviving app to an app
// that lost its last SM, so no application is silently starved out of the
// machine between epochs.
func (g *GPU) grantSM(cycle uint64, to *App) {
	donor := -1
	for i, app := range g.apps {
		if app == to || app.state != appActive || len(app.SMs) < 2 {
			continue
		}
		if donor < 0 || len(app.SMs) > len(g.apps[donor].SMs) {
			donor = i
		}
	}
	if donor < 0 {
		return // nothing to donate; the epoch policy may still recover
	}
	g.tr.Emit(trace.KFaultRepair, cycle, int32(to.ID), int32(donor), 0, 0, 0)
	_ = g.MoveSMs(cycle, donor, to.ID, 1)
}

// failGroup permanently kills one memory channel group: its channels across
// every stack degrade (queued traffic drains slowly, nothing new is placed
// there), the VM refuses new frames on it, the owning app's group set is
// repaired, and every page still resident on the group is emergency-queued
// for migration onto surviving groups.
func (g *GPU) failGroup(cycle uint64, grp int) {
	if grp < 0 || grp >= len(g.deadGroups) || g.deadGroups[grp] {
		return
	}
	alive := 0
	for i, dead := range g.deadGroups {
		if !dead && i != grp {
			alive++
		}
	}
	// Every non-vacant app (active or still draining pages) needs at least one
	// live group; vacant slots own nothing.
	needGroups := 0
	for _, app := range g.apps {
		if app.state != appVacant {
			needGroups++
		}
	}
	if alive < needGroups {
		// Refuse: every app needs at least one live group. The fault is
		// dropped rather than wedging the machine.
		return
	}
	g.deadGroups[grp] = true
	g.vmm.FailGroup(grp)
	for s := 0; s < g.cfg.NumStacks; s++ {
		g.hbm.DegradeChannel(s*g.cfg.ChannelsPerStack + grp)
	}

	// Repair ownership: remove the group from its owner (if any); an owner
	// left with no groups is granted one from the richest survivor.
	for _, app := range g.apps {
		idx := -1
		for i, gr := range app.Groups {
			if gr == grp {
				idx = i
				break
			}
		}
		if idx < 0 {
			continue
		}
		newGroups := make([]int, 0, len(app.Groups)-1)
		newGroups = append(newGroups, app.Groups[:idx]...)
		newGroups = append(newGroups, app.Groups[idx+1:]...)
		if len(newGroups) == 0 {
			if donated, ok := g.grantGroup(cycle, app); ok {
				newGroups = []int{donated}
			} else {
				continue // unreachable given the alive-count guard above
			}
		}
		// SetGroups flushes the TLB/cache state and arms rebalancing.
		_ = g.SetGroups(cycle, app.ID, newGroups)
		if app.state != appActive {
			// Bugfix: SetGroups arms rebalancing whenever the set gains a
			// group, but a detaching tenant must never attract inbound
			// migrations again — BeginDetach disarmed it on purpose. Re-arming
			// here would keep pulling the departing tenant's pages toward its
			// (soon-to-be-freed) groups and delay quiescence indefinitely
			// under churn.
			g.vmm.SetRebalancing(app.ID, false)
		}
	}

	// Emergency evacuation: every page still resident on the dead group (any
	// app; pages can be stranded on non-owned groups between reallocations)
	// is queued for migration. App order and VPN order are deterministic.
	for _, app := range g.apps {
		for _, vpn := range g.vmm.PagesOnGroup(app.ID, grp) {
			k := migKey(app.ID, vpn)
			if g.migInFlight[k] {
				continue
			}
			g.migInFlight[k] = true
			g.faultStats.EmergencyMigrations++
			g.tr.Emit(trace.KMigEvacuate, cycle, int32(app.ID), int32(grp), int64(vpn), 0, 0)
			g.migQueue.push(migJobReq{app: app.ID, vpn: vpn})
		}
	}
	g.startQueuedMigrations(cycle)
}

// grantGroup takes one channel group from the surviving app with the most
// groups (which must keep at least one) and returns it for reassignment.
func (g *GPU) grantGroup(cycle uint64, to *App) (int, bool) {
	donor := -1
	for i, app := range g.apps {
		if app == to || app.state != appActive || len(app.Groups) < 2 {
			continue
		}
		if donor < 0 || len(app.Groups) > len(g.apps[donor].Groups) {
			donor = i
		}
	}
	if donor < 0 {
		return 0, false
	}
	d := g.apps[donor]
	donated := d.Groups[len(d.Groups)-1]
	g.tr.Emit(trace.KFaultRepair, cycle, int32(to.ID), int32(donor), 1, 0, 0)
	_ = g.SetGroups(cycle, donor, d.Groups[:len(d.Groups)-1])
	return donated, true
}

// FaultStats returns the GPU-side degraded-mode counters.
func (g *GPU) FaultStats() FaultTotals { return g.faultStats }

// InjectorCounts returns the raw fault-delivery tallies (zero when fault
// injection is disabled).
func (g *GPU) InjectorCounts() fault.Counts { return g.inj.Counts() }

// SetNoCDropP replaces the per-message NoC drop probability (gray-failure
// degradation windows elevate it at epoch boundaries and restore 0 after).
// A GPU built without a fault spec gets an empty injector on first use —
// its drop stream is seeded exactly like a spec-built one, so a window's
// drop sequence depends only on the seed and the messages sent while
// elevated, never on whether other fault kinds were configured. With p = 0
// the wired hook answers false without consuming the stream, so an
// un-elevated GPU stays byte-identical to one that never had the hook.
func (g *GPU) SetNoCDropP(p float64) {
	if g.inj == nil {
		g.inj = g.newInjector(fault.Spec{})
	}
	g.inj.SetDropP(p)
	if p > 0 && g.reqNet.Drop == nil {
		drop := func(src, dst int) bool { return g.inj.DropMessage() }
		g.reqNet.Drop = drop
		g.rspNet.Drop = drop
	}
}

// newInjector builds the GPU's fault injector for spec, seeded by
// Options.FaultSeed (the config seed when zero) and traced on the GPU's
// tracer. Callers wire the hooks the spec needs.
func (g *GPU) newInjector(spec fault.Spec) *fault.Injector {
	seed := g.opt.FaultSeed
	if seed == 0 {
		seed = g.cfg.Seed
	}
	inj := fault.NewInjector(seed, spec, fault.Geometry{
		NumSMs:        g.cfg.NumSMs,
		NumGroups:     g.cfg.ChannelGroups(),
		NumChannels:   g.cfg.NumChannels(),
		BankGroups:    g.cfg.BankGroups,
		BanksPerGroup: g.cfg.BanksPerGroup,
		Horizon:       uint64(g.cfg.MaxCycles),
	})
	inj.Trace = g.tr
	return inj
}

// FirstFaultCycle reports when the first discrete fault struck (0 = none).
func (g *GPU) FirstFaultCycle() uint64 { return g.firstFaultCycle }

// AvailableSMs counts SMs that have not hard-failed.
func (g *GPU) AvailableSMs() int {
	n := g.cfg.NumSMs
	for _, f := range g.failedSMs {
		if f {
			n--
		}
	}
	return n
}

// FailedSMs lists hard-failed SM ids in ascending order.
func (g *GPU) FailedSMs() []int {
	var out []int
	for i, f := range g.failedSMs {
		if f {
			out = append(out, i)
		}
	}
	return out
}

// DeadGroups lists failed channel groups in ascending order.
func (g *GPU) DeadGroups() []int {
	var out []int
	for i, d := range g.deadGroups {
		if d {
			out = append(out, i)
		}
	}
	return out
}

// AliveGroups lists surviving channel groups in ascending order.
func (g *GPU) AliveGroups() []int {
	out := make([]int, 0, len(g.deadGroups))
	for i, d := range g.deadGroups {
		if !d {
			out = append(out, i)
		}
	}
	sort.Ints(out)
	return out
}
