package gpu

// Resource reallocation primitives (Sections 3.3 and 4.4): moving SMs
// between applications via draining or context switching, and moving memory
// channel groups with page migration.

import (
	"fmt"
	"sort"

	"ugpu/internal/dram"
	smpkg "ugpu/internal/sm"
	"ugpu/internal/trace"
)

// contextBytes is the per-SM context (register file + shared memory) saved
// on a context switch; the save traffic is injected into the old owner's
// memory channels.
const contextBytes = 256 * 1024

// MoveSMs transfers n SMs from one application to another. Each SM is
// drained if its TB-duration estimate fits comfortably in an epoch,
// otherwise context-switched (Section 3.3). The SM joins the destination
// app when it frees.
func (g *GPU) MoveSMs(cycle uint64, fromID, toID, n int) error {
	if fromID == toID || n <= 0 {
		return nil
	}
	from, to := g.apps[fromID], g.apps[toID]
	if n >= len(from.SMs) {
		return fmt.Errorf("gpu: cannot move %d of app %d's %d SMs (at least one must remain)", n, fromID, len(from.SMs))
	}
	// Take the highest-numbered SMs so slices stay contiguous-ish.
	moved := from.SMs[len(from.SMs)-n:]
	from.SMs = from.SMs[:len(from.SMs)-n]
	to.inbound += n
	for _, id := range moved {
		s := g.sms[id]
		g.reconfigSMs++
		// Track the in-flight destination so a fault striking a moving SM
		// can unwind the inbound accounting (faults.go).
		g.pendingMoveTo[id] = to
		handoff := func(c uint64, freed *smpkg.SM) {
			g.reconfigSMs--
			to.inbound--
			delete(g.pendingMoveTo, freed.ID)
			if to.state != appActive {
				// Destination departed while the SM was in flight (online
				// serving): leave the SM idle in the free pool instead of
				// resurrecting the tenant.
				return
			}
			to.SMs = append(to.SMs, freed.ID)
			freed.Assign(c, to.smApp)
		}
		if est := s.TBDurationEstimate(); est > 0 && est < float64(g.cfg.EpochCycles)/2 {
			g.tr.Emit(trace.KSMDrain, cycle, int32(fromID), int32(id), int64(toID), 0, 0)
			s.BeginDrain(cycle, handoff)
		} else {
			ready := cycle + g.switchCost(from)
			g.tr.Emit(trace.KSMSwitch, cycle, int32(fromID), int32(id), int64(toID), int64(ready), 0)
			g.injectContextTraffic(cycle, from)
			s.BeginSwitch(cycle, ready, handoff)
		}
	}
	return nil
}

// switchCost estimates the context save latency: pipeline drain plus
// writing the context over the app's channels.
func (g *GPU) switchCost(app *App) uint64 {
	lines := contextBytes / g.cfg.L1LineBytes
	channels := len(app.Groups) * g.cfg.ChannelsPerGroup()
	if channels == 0 {
		channels = 1
	}
	return 500 + uint64(lines/channels*g.cfg.BurstCycles)
}

// injectContextTraffic writes the saved context into the app's memory,
// contending with regular accesses (the paper models context-switch data
// movement in DRAM).
func (g *GPU) injectContextTraffic(cycle uint64, app *App) {
	lines := contextBytes / g.cfg.L1LineBytes
	groups := app.Groups
	if len(groups) == 0 {
		return
	}
	for i := 0; i < lines; i++ {
		group := groups[i%len(groups)]
		// Context pages live in a reserved high frame region per group.
		frame := g.mapper.FramesPerGroup() - 1 - uint64(i/len(groups))/uint64(g.cfg.LinesPerPage())
		base := g.mapper.FrameBase(group, frame)
		pa := base + uint64(i/len(groups))%uint64(g.cfg.LinesPerPage())*uint64(g.cfg.L1LineBytes)
		req := g.newDramReq()
		*req = dram.Request{
			Addr:    pa,
			Loc:     g.mapper.Decode(pa),
			IsWrite: true,
			AppID:   app.ID,
			Done:    g.ctxDone,
		}
		if !g.hbm.Enqueue(cycle, req) {
			// Memory saturated: drop the remainder; the closed-form
			// switchCost still charges the latency.
			g.releaseDramReq(req)
			return
		}
	}
}

// SetGroups reassigns an application's memory channel groups. Pages
// stranded on de-allocated groups migrate lazily on access and in the
// background (Section 4.4). Caches and TLBs are flushed as the paper
// requires for coherence across the remap.
func (g *GPU) SetGroups(cycle uint64, appID int, groups []int) error {
	if len(groups) == 0 {
		return fmt.Errorf("gpu: app %d needs at least one channel group", appID)
	}
	for _, gr := range groups {
		if gr < 0 || gr >= len(g.deadGroups) {
			return fmt.Errorf("gpu: app %d assigned invalid channel group %d", appID, gr)
		}
		if g.deadGroups[gr] {
			return fmt.Errorf("gpu: app %d assigned dead channel group %d", appID, gr)
		}
	}
	app := g.apps[appID]
	if equalGroups(app.Groups, groups) {
		return nil
	}
	old := make(map[int]bool, len(app.Groups))
	for _, gr := range app.Groups {
		old[gr] = true
	}
	gained := false
	for _, gr := range groups {
		if !old[gr] {
			gained = true
		}
	}
	app.Groups = append(app.Groups[:0], groups...)
	sort.Ints(app.Groups)
	detaching := int64(0)
	if app.state != appActive {
		detaching = 1
	}
	g.tr.Emit(trace.KSetGroups, cycle, int32(appID), 0, int64(len(app.Groups)), b2i(gained), detaching)
	g.vmm.SetGroups(appID, app.Groups)
	if gained {
		// Section 4.4: the channel-list register drives fault-driven
		// migration into the newly allocated channels until balanced.
		g.vmm.SetRebalancing(appID, true)
	}
	if g.opt.OriReshuffle {
		g.vmm.MarkAllPending(appID)
	}

	// Flush translation and cache state (Section 4.4): L1 TLBs of all SMs,
	// the app's L2 TLB entries, L1 caches, and the LLC.
	for i, t := range g.smL1TLB {
		t.InvalidateApp(appID)
		g.sms[i].InvalidateTranslationFilters()
		if g.sms[i].AppID() == appID {
			g.smL1[i].InvalidateAll()
		}
	}
	g.l2tlb.InvalidateApp(appID)
	for _, sl := range g.slices {
		sl.cache.InvalidateAll()
	}
	g.transVersion++
	return nil
}

func b2i(v bool) int64 {
	if v {
		return 1
	}
	return 0
}

func equalGroups(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	as := append([]int(nil), a...)
	bs := append([]int(nil), b...)
	sort.Ints(as)
	sort.Ints(bs)
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

// Partition describes one application's resource share.
type Partition struct {
	SMs    int
	Groups []int
}

// ApplyPartition moves SMs and channel groups so each app matches its
// target partition. SM counts must sum to at most NumSMs; group sets must
// be disjoint and cover only valid groups.
func (g *GPU) ApplyPartition(cycle uint64, targets []Partition) error {
	if len(targets) != len(g.apps) {
		return fmt.Errorf("gpu: %d partition targets for %d apps", len(targets), len(g.apps))
	}
	totalSM := 0
	want := make([]int, len(targets))
	for i, t := range targets {
		totalSM += t.SMs
		want[i] = t.SMs
	}
	if avail := g.AvailableSMs(); totalSM > avail {
		return fmt.Errorf("gpu: partition wants %d SMs, have %d alive", totalSM, avail)
	}
	// Channel groups first (migration overlaps with SM draining).
	for i, t := range targets {
		if len(t.Groups) > 0 {
			if err := g.SetGroups(cycle, i, t.Groups); err != nil {
				return err
			}
		}
	}
	return g.BalanceSMs(cycle, want)
}

// BalanceSMs moves SMs between apps toward want[i] SMs for app i (drained
// SMs in flight count toward their destination); apps with a negative want
// take no part. Each pass drains from the most over-provisioned app to the
// most under-provisioned one (lowest index on ties) and shrinks the total
// imbalance by at least two, so NumSMs passes always suffice. Draining SMs
// are not movable yet: a deficit they block resolves at a later boundary.
func (g *GPU) BalanceSMs(cycle uint64, want []int) error {
	for range g.cfg.NumSMs {
		give, take, excess, deficit := -1, -1, 0, 0
		for i, w := range want {
			if w < 0 {
				continue
			}
			diff := len(g.apps[i].SMs) + g.apps[i].inbound - w
			if diff > excess {
				give, excess = i, diff
			}
			if -diff > deficit {
				take, deficit = i, -diff
			}
		}
		if give < 0 || take < 0 {
			break
		}
		n := min(excess, deficit, len(g.apps[give].SMs)-1)
		if n <= 0 {
			break
		}
		if err := g.MoveSMs(cycle, give, take, n); err != nil {
			return err
		}
	}
	return nil
}

// PartitionOf reports the app's current resources (drained SMs in flight
// count toward neither side until they land).
func (g *GPU) PartitionOf(appID int) Partition {
	app := g.apps[appID]
	return Partition{SMs: len(app.SMs), Groups: append([]int(nil), app.Groups...)}
}
