package gpu

// Timer wheel for delayed simulation events. Nearly all latencies in the
// model are below the wheel horizon (32768 cycles covers the 28000-cycle
// page-fault delay); later events spill into an overflow slice that is
// scanned only when its earliest deadline is due.
//
// Events are typed, not closures: the hot callbacks (a warp's load
// completing, a DRAM fill arriving at an LLC slice, an L2 TLB lookup) and the
// driver's page-migration steps carry their few words of context inside the
// wheelEvent value, so scheduling them does not allocate. Only test hooks
// still use the generic evFn kind with a closure. Fired bucket arrays are
// recycled through a small spare pool, so steady-state wheel operation stays
// allocation-free.

import "ugpu/internal/sm"

const wheelSize = 1 << 15 // must be a power of two

// Event kinds. evFn is the generic closure fallback; the others are
// allocation-free. The driver kinds from evMigQueue on replaced closures and
// digest as those did (hashWheelEvent).
const (
	evFn          uint8 = iota // run fn(cycle)
	evWarpDone                 // w.LoadDone()
	evDramFill                 // g.dramFill(cycle, idx, pa)
	evL2Translate              // g.l2Translate(cycle, app, vpn)
	evMigQueue                 // queue a fault-driven migration of (app, vpn)
	evMigRetry                 // g.retryMigration(cycle, app, vpn, idx)
	evSpillRemap               // remap (app, vpn) by the slow path
	evDemandFault              // map (app, vpn) and resolve its translation
)

type wheelEvent struct {
	at   uint64
	kind uint8
	app  int32
	idx  int32 // LLC slice index (evDramFill), attempts (evMigRetry)
	vpn  uint64
	pa   uint64
	w    *sm.Warp
	fn   func(cycle uint64)
}

type wheel struct {
	// g is the dispatch target for typed events. It is set by gpu.New; a
	// zero-value wheel (tests) supports only evFn events.
	g *GPU

	buckets  [wheelSize][]wheelEvent
	overflow []wheelEvent
	overMin  uint64
	pending  int
	fired    uint64 // cumulative events fired (watchdog progress signal)

	// spare recycles fired bucket backing arrays.
	spare [][]wheelEvent

	// nextAt caches the earliest pending deadline for the fast-forward
	// engine. The cache is only ever an exact minimum or stale-low: schedule
	// lowers it, firing leaves it at the just-fired cycle (forcing a
	// recompute on the next query), and events are never removed otherwise —
	// so next() can never report a deadline later than a real pending event.
	nextAt    uint64
	nextValid bool
}

// fire dispatches one due event.
func (w *wheel) fire(ev *wheelEvent, cycle uint64) {
	switch ev.kind {
	case evFn:
		ev.fn(cycle)
	case evWarpDone:
		ev.w.LoadDone()
	case evDramFill:
		w.g.dramFill(cycle, int(ev.idx), ev.pa)
	case evL2Translate:
		w.g.l2Translate(cycle, int(ev.app), ev.vpn)
	case evMigQueue:
		w.g.migQueue.push(migJobReq{app: int(ev.app), vpn: ev.vpn})
		w.g.startQueuedMigrations(cycle)
	case evMigRetry:
		w.g.retryMigration(cycle, int(ev.app), ev.vpn, uint8(ev.idx))
	case evSpillRemap:
		w.g.vmm.RemapPage(int(ev.app), ev.vpn)
		w.g.completeMigration(cycle, int(ev.app), ev.vpn)
	case evDemandFault:
		pa := w.g.vmm.HandleFault(int(ev.app), ev.vpn)
		w.g.resolveTranslation(cycle, int(ev.app), ev.vpn, pa, true)
	}
}

// schedule runs fn at cycle `at` (or immediately on the current tick if at
// <= now).
func (w *wheel) schedule(now, at uint64, fn func(uint64)) {
	w.scheduleEvent(now, wheelEvent{at: at, kind: evFn, fn: fn})
}

// scheduleEvent enqueues a typed event (ev.at clamped to now).
func (w *wheel) scheduleEvent(now uint64, ev wheelEvent) {
	if ev.at < now {
		ev.at = now
	}
	if w.nextValid && ev.at < w.nextAt {
		w.nextAt = ev.at
	}
	w.pending++
	if ev.at-now < wheelSize {
		idx := ev.at & (wheelSize - 1)
		if w.buckets[idx] == nil && len(w.spare) > 0 {
			w.buckets[idx] = w.spare[len(w.spare)-1]
			w.spare = w.spare[:len(w.spare)-1]
		}
		w.buckets[idx] = append(w.buckets[idx], ev)
		return
	}
	if len(w.overflow) == 0 || ev.at < w.overMin {
		w.overMin = ev.at
	}
	w.overflow = append(w.overflow, ev)
}

// recycle returns a fired bucket's backing array to the spare pool, clearing
// pointer fields so recycled slots do not retain warps or closures.
func (w *wheel) recycle(b []wheelEvent) {
	if cap(b) == 0 || cap(b) > 1024 || len(w.spare) >= 64 {
		return
	}
	for i := range b {
		b[i] = wheelEvent{}
	}
	w.spare = append(w.spare, b[:0])
}

// run fires every event due at exactly this cycle. Calls must be in
// increasing cycle order, but cycles with no due events may be skipped (the
// fast-forward engine does, bounded by next()). Handlers may schedule
// further events, including at the current cycle; the bucket is re-scanned
// until it stabilises.
//
// Overflow drains before the bucket scan: a skip can land exactly on
// overMin, and the migrated event (at == cycle) must land in this cycle's
// bucket before that bucket is scanned, or it would fire a whole wheel
// revolution late.
func (w *wheel) run(cycle uint64) {
	if len(w.overflow) > 0 && cycle+wheelSize-1 >= w.overMin {
		w.drainOverflow(cycle)
	}
	idx := cycle & (wheelSize - 1)
	for len(w.buckets[idx]) > 0 {
		b := w.buckets[idx]
		w.buckets[idx] = nil
		fired := false
		for i := range b {
			ev := &b[i]
			if ev.at == cycle {
				w.pending--
				w.fired++
				fired = true
				w.fire(ev, cycle)
			} else {
				w.buckets[idx] = append(w.buckets[idx], *ev)
			}
		}
		w.recycle(b)
		if !fired {
			break
		}
	}
}

func (w *wheel) drainOverflow(cycle uint64) {
	keep := w.overflow[:0]
	var newMin uint64 = ^uint64(0)
	for _, ev := range w.overflow {
		if ev.at-cycle < wheelSize {
			idx := ev.at & (wheelSize - 1)
			w.buckets[idx] = append(w.buckets[idx], ev)
		} else {
			if ev.at < newMin {
				newMin = ev.at
			}
			keep = append(keep, ev)
		}
	}
	w.overflow = keep
	w.overMin = newMin
}

// Pending reports outstanding events (for draining).
func (w *wheel) Pending() int { return w.pending }

// next returns the earliest pending deadline at or after cycle, or false
// when the wheel is empty. Called before run(cycle) on the current tick, so
// due events (at == cycle) are still stored and bound the result at `cycle`.
//
// The bucket walk relies on the wheel's residency invariant: between ticks
// every bucketed event satisfies cycle <= at < cycle+wheelSize (older events
// fired when their bucket was last visited, later ones overflow), so every
// entry in bucket (cycle+k)&mask has deadline exactly cycle+k and the first
// non-empty bucket in walk order is the minimum. The walk stops early at the
// overflow minimum, and the result is cached: schedule lowers the cache, a
// firing strands it at the fired cycle (<= now on the next query, forcing a
// recompute), so the cache is never later than a real pending deadline.
func (w *wheel) next(cycle uint64) (uint64, bool) {
	if w.pending == 0 {
		return 0, false
	}
	if w.nextValid && w.nextAt > cycle {
		return w.nextAt, true
	}
	best := ^uint64(0)
	if len(w.overflow) > 0 {
		best = w.overMin
	}
	if w.pending > len(w.overflow) {
		for k := uint64(0); k < wheelSize; k++ {
			at := cycle + k
			if at >= best {
				break
			}
			if len(w.buckets[at&(wheelSize-1)]) > 0 {
				best = at
				break
			}
		}
	}
	w.nextAt, w.nextValid = best, true
	return best, true
}

// audit validates the wheel's internal accounting at a quiescent point
// (between ticks): the pending counter must equal the events actually
// stored, no stored event may be in the past, and the overflow minimum must
// lower-bound every overflow deadline. It returns a short description of the
// first violation, or "" when consistent.
func (w *wheel) audit(cycle uint64) string {
	n := 0
	for i := range w.buckets {
		for j := range w.buckets[i] {
			if w.buckets[i][j].at < cycle {
				return "bucketed event in the past"
			}
			n++
		}
	}
	for i := range w.overflow {
		if w.overflow[i].at < w.overMin {
			return "overflow event below overMin"
		}
		n++
	}
	if n != w.pending {
		return "pending counter out of sync with stored events"
	}
	return ""
}
