// Package sm models streaming multiprocessors at warp granularity.
//
// Each SM holds up to TBsPerSM thread blocks of WarpsPerTB warps. Two GTO
// (greedy-then-oldest) warp schedulers issue up to one warp instruction each
// per cycle (Table 1). Memory instructions issue loads through a Port
// (implemented by the gpu package: L1 TLB, L1 cache, NoC, LLC, HBM); a warp
// blocks when its outstanding loads reach its memory-level-parallelism
// bound and wakes when data returns.
//
// For UGPU's compute-resource reallocation (Section 3.3) an SM can be
// drained (resident TBs finish, no refill) or context-switched (immediate
// stop, cost charged by the controller), then reassigned to another
// application.
package sm

import (
	"fmt"
	"math/bits"

	"ugpu/internal/digest"
	"ugpu/internal/trace"
	"ugpu/internal/workload"
)

// Port is the SM's view of the memory hierarchy. IssueLoad reports whether
// the access was accepted this cycle (false on structural hazards such as a
// full MSHR); rejected accesses are retried by the warp.
type Port interface {
	IssueLoad(cycle uint64, smID, appID int, va uint64, w *Warp) bool
}

// State is the SM occupancy state.
type State int

const (
	// Idle SMs have no application assigned.
	Idle State = iota
	// Active SMs execute their application's thread blocks.
	Active
	// Draining SMs finish resident TBs without refilling (SM draining).
	Draining
	// Switching SMs are mid context-switch and issue nothing.
	Switching
	// Failed SMs are permanently dead (hard fault): they issue nothing,
	// accept no application, and never leave this state.
	Failed
)

// NumStates is the number of SM occupancy states (diagnostic snapshots
// index histograms by State).
const NumStates = int(Failed) + 1

func (s State) String() string {
	switch s {
	case Idle:
		return "idle"
	case Active:
		return "active"
	case Draining:
		return "draining"
	case Switching:
		return "switching"
	case Failed:
		return "failed"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// App binds an application to SMs: its id and TB source.
type App struct {
	ID         int
	Dispatcher *workload.Dispatcher
	PageBytes  int
	// SeedBase decorrelates warp streams across SMs and TBs.
	SeedBase uint64
}

// MaxWarps bounds the resident warps per SM: the scheduler's ready set is
// one 64-bit mask indexed by age position.
const MaxWarps = 64

// Warp is one resident warp. The fields issue, drainPending and LoadDone
// read come first, so they share the object's first cache line; the
// instruction stream is stored inline after them.
type Warp struct {
	Outstanding int
	MaxOut      int
	sm          *SM
	pending     []uint64 // generated but not-yet-accepted load addresses
	blocked     bool
	structStall bool // blocked on a structural hazard (queued in sm retry list)
	done        bool
	// orphaned marks a warp that left the resident list (dropped, or done
	// and compacted away) with loads still in flight: its last LoadDone
	// returns it to the SM's freelist.
	orphaned bool

	// LastValid/LastVPN/LastPA/LastVer form a one-entry per-warp
	// translation filter the gpu package uses to shortcut consecutive
	// same-page accesses. LastVer must match the GPU's global translation
	// version (bumped on any page migration or reallocation) for the entry
	// to be used. LastValid sits with the flags above to share their word.
	LastValid bool

	tb  int32  // TB slot index
	idx int32  // position in sm.warps (its bit in sm.ready)
	gen uint64 // sm.gen at launch; a mismatch marks an orphan

	LastVPN uint64
	LastPA  uint64
	LastVer uint64

	Stream workload.WarpStream

	// Snapshot memo for StandaloneDigest (observation state, not digested).
	digestGen  uint64
	digestMemo digest.Hash
}

// LoadDone signals one returned load. It may be called with a completion
// cycle in the future relative to the issuing tick; the warp becomes
// schedulable again on the next SM tick.
func (w *Warp) LoadDone() {
	w.Outstanding--
	// Unblock MLP-stalled warps even if addresses are still pending: the
	// scheduler replays them through drainPending on the next pick (a warp
	// can stall mid-instruction when a divergent access hits the MLP bound).
	if w.blocked && !w.structStall && w.Outstanding < w.MaxOut {
		w.unblock()
	}
	if w.orphaned && w.Outstanding == 0 {
		w.orphaned = false
		w.sm.freeWarps = append(w.sm.freeWarps, w)
	}
}

func (w *Warp) block() {
	if !w.blocked {
		w.blocked = true
		w.sm.unready++
		w.sm.ready &^= 1 << w.idx
	}
}

// unblock makes a blocked warp schedulable again. Orphans (warps dropped by
// a context switch, release or failure, whose loads still drain) keep
// touching the counter and the wake hook as they always have, but never the
// ready mask: their positions belong to the SM's next tenant.
func (w *Warp) unblock() {
	if w.blocked {
		w.blocked = false
		w.sm.unready--
		if !w.done && w.gen == w.sm.gen {
			w.sm.ready |= 1 << w.idx
		}
		if w.sm.Wake != nil {
			w.sm.Wake(w.sm)
		}
	}
}

// Stats holds per-SM cumulative counters.
type Stats struct {
	Instructions uint64 // warp instructions issued
	MemInstrs    uint64
	IssueSlots   uint64 // scheduler slots with an issue
	ActiveCycles uint64 // cycles with the SM in Active/Draining state
	StallCycles  uint64 // active cycles with zero issue
	TBsCompleted uint64
}

// tbSlot tracks one resident thread block.
type tbSlot struct {
	liveWarp int
	valid    bool
}

// SM is one streaming multiprocessor.
type SM struct {
	// The state a tick reads comes first, in the object's first lines.
	state      State
	schedulers int
	ready      uint64  // bit i set iff warps[i] is neither done nor blocked
	current    int     // greedy scheduler position (index into warps)
	cur        *Warp   // warps[current], or nil until pickWarp reloads it
	warps      []*Warp // age-ordered resident warps
	app        *App

	ID int

	addrBuf []uint64
	retry   []*Warp // warps with structurally-rejected loads to replay
	stats   Stats

	// gen numbers resident-warp generations: every drop of the warp list
	// (assign, switch, free, fail) bumps it, orphaning the warps of the
	// previous generation, which then no longer touch ready.
	gen uint64
	// unready counts blocked or done warps. It is not exact: a warp that
	// blocks on its last instruction is uncounted by its later completion,
	// and orphans' completions decrement the next tenant's count. It folds
	// into the state digest, so it is kept as is; scheduling reads ready.
	unready int

	// Trace receives lifecycle events (assign/release/fail); nil disables.
	Trace *trace.Tracer

	// Wake, when non-nil, is invoked whenever the SM might transition from
	// "provably inert this cycle" to "needs ticking": a blocked warp
	// unblocks, an application is assigned, a context switch begins (the SM
	// must be ticked to observe switchUntil), or the SM leaves the machine
	// (Fail/Release — so an owner tracking lazily-accrued stall statistics
	// can settle them at the moment execution stops). The gpu package's
	// fast-forward engine uses it to maintain its active-SM set; nil (tests,
	// standalone use) disables the hook at one branch per call site.
	Wake func(s *SM)

	warpsPerTB int
	tbSlots    []tbSlot

	switchUntil uint64
	onFree      func(cycle uint64, s *SM) // drain/switch completion callback

	// tbDurationEMA estimates TB duration in cycles for the drain-vs-
	// switch decision (Section 3.3).
	tbDurationEMA float64
	tbStart       []uint64 // per-slot TB launch cycle

	// freeWarps recycles Warp objects (with their embedded WarpStreams and
	// pending-address arrays) so TB refill and reassignment do not allocate.
	// A warp is recycled only once nothing downstream can still reference
	// it: it has left the resident list and has no loads outstanding (see
	// retire). The first assignment allocates a full complement of warps
	// as one slab, later shortfalls (orphans still draining) one TB's worth
	// at a time.
	freeWarps []*Warp
	pendArena []uint64 // carvePending's uncarved addresses
}

// New builds an SM with the given geometry; it holds at most MaxWarps
// warps.
func New(id, tbsPerSM, warpsPerTB, schedulers int) *SM {
	if tbsPerSM*warpsPerTB > MaxWarps {
		panic(fmt.Sprintf("sm: %d warps per SM exceeds %d", tbsPerSM*warpsPerTB, MaxWarps))
	}
	return &SM{
		ID:         id,
		warpsPerTB: warpsPerTB,
		tbSlots:    make([]tbSlot, tbsPerSM),
		schedulers: schedulers,
		state:      Idle,
		tbStart:    make([]uint64, tbsPerSM),
		addrBuf:    make([]uint64, 0, 64),
	}
}

// State reports the SM's occupancy state.
func (s *SM) State() State { return s.state }

// AppID reports the bound application, or -1.
func (s *SM) AppID() int {
	if s.app == nil {
		return -1
	}
	return s.app.ID
}

// Stats returns a copy of the counters.
func (s *SM) Stats() Stats { return s.stats }

// ResetStats clears per-epoch counters.
func (s *SM) ResetStats() { s.stats = Stats{} }

// TBDurationEstimate reports the EMA of completed TB durations (0 if no TB
// has completed yet).
func (s *SM) TBDurationEstimate() float64 { return s.tbDurationEMA }

// Fail permanently kills the SM (hard fault). Resident warps are lost:
// their in-flight loads drain harmlessly into orphaned Warp objects, exactly
// as on a context switch, but the SM never becomes assignable again. Any
// pending drain/switch completion callback is cancelled — the controller
// compensates its in-flight bookkeeping separately.
func (s *SM) Fail(cycle uint64) {
	s.Trace.Emit(trace.KSMFail, cycle, int32(s.AppID()), int32(s.ID), 0, 0, 0)
	s.state = Failed
	s.app = nil
	s.onFree = nil
	s.dropWarps()
	s.current = 0
	for i := range s.tbSlots {
		s.tbSlots[i] = tbSlot{}
	}
	if s.Wake != nil {
		s.Wake(s)
	}
}

// Release immediately detaches the SM from its application and returns it to
// the idle pool (tenant departure in the online serving layer). Resident
// warps are dropped exactly as on a context switch — their in-flight loads
// drain harmlessly into orphaned Warp objects — and any pending drain/switch
// completion callback is cancelled (the controller unwinds its own in-flight
// bookkeeping). A failed SM stays failed; an idle SM is a no-op.
func (s *SM) Release(cycle uint64) {
	if s.state == Failed || s.state == Idle {
		return
	}
	s.Trace.Emit(trace.KSMRelease, cycle, int32(s.AppID()), int32(s.ID), 0, 0, 0)
	s.onFree = nil
	s.finishFree(cycle)
	if s.Wake != nil {
		s.Wake(s)
	}
}

// OutstandingLoads sums resident warps' in-flight loads (diagnostics).
func (s *SM) OutstandingLoads() int {
	n := 0
	for _, w := range s.warps {
		n += w.Outstanding
	}
	return n
}

// BlockedWarps counts resident warps that cannot issue (diagnostics).
func (s *SM) BlockedWarps() int {
	n := 0
	for _, w := range s.warps {
		if w.blocked && !w.done {
			n++
		}
	}
	return n
}

// Assign binds an application and fills all TB slots. Assigning a failed SM
// is a programming error.
func (s *SM) Assign(cycle uint64, app *App) {
	if s.state == Failed {
		panic(fmt.Sprintf("sm: assigning app %d to failed SM %d", app.ID, s.ID))
	}
	s.Trace.Emit(trace.KSMAssign, cycle, int32(app.ID), int32(s.ID), 0, 0, 0)
	s.app = app
	s.state = Active
	s.dropWarps()
	s.current = 0
	for i := range s.tbSlots {
		s.fillTB(cycle, i)
	}
	if s.Wake != nil {
		s.Wake(s)
	}
}

// dropWarps empties the resident-warp list and retry list and starts a new
// warp generation. The dropped warps become orphans: their in-flight loads
// still complete into them, but they no longer reach the ready mask.
func (s *SM) dropWarps() {
	for i, w := range s.warps {
		s.warps[i] = nil
		s.retire(w)
	}
	s.warps = s.warps[:0]
	s.cur = nil
	s.retry = s.retry[:0]
	s.unready = 0
	s.ready = 0
	s.gen++
}

// retire takes a warp that has left the resident list out of service: it
// is reusable at once with no loads outstanding (nothing downstream — MSHR,
// translation, replay queue or event wheel — can still reference it);
// otherwise its last LoadDone recycles it. Loads that never complete (their
// replay queue discarded with a failed or released SM) keep it out of the
// pool for good.
func (s *SM) retire(w *Warp) {
	if w.Outstanding == 0 {
		s.freeWarps = append(s.freeWarps, w)
	} else {
		w.orphaned = true
	}
}

// newWarp pops a recycled warp (keeping its pending-address backing array),
// restocking the freelist first when it is empty. fillTB reinitialises the
// embedded stream.
func (s *SM) newWarp() *Warp {
	if len(s.freeWarps) == 0 {
		n := s.warpsPerTB
		if cap(s.freeWarps) == 0 {
			// First assignment: no warp exists yet, so the resident list
			// is empty too; size both lists for a full complement.
			n = len(s.tbSlots) * s.warpsPerTB
			s.freeWarps = make([]*Warp, 0, n)
			s.warps = make([]*Warp, 0, n)
		}
		slab := make([]Warp, n)
		for i := n - 1; i >= 0; i-- {
			s.freeWarps = append(s.freeWarps, &slab[i])
		}
	}
	k := len(s.freeWarps) - 1
	w := s.freeWarps[k]
	s.freeWarps[k] = nil
	s.freeWarps = s.freeWarps[:k]
	pending := w.pending[:0]
	*w = Warp{pending: pending}
	return w
}

func (s *SM) fillTB(cycle uint64, slot int) {
	app := s.app
	tb := app.Dispatcher.NextTB()
	for wi := 0; wi < s.warpsPerTB; wi++ {
		seed := app.SeedBase ^ uint64(s.ID)<<40 ^ uint64(tb.Launch)<<28 ^ uint64(tb.TBIndex)<<8 ^ uint64(wi) + 1
		w := s.newWarp()
		app.Dispatcher.InitWarpStream(&w.Stream, tb, wi, app.PageBytes, seed)
		w.MaxOut = tb.Kernel.MaxOutstanding
		w.sm = s
		w.tb = int32(slot)
		w.idx = int32(len(s.warps))
		w.gen = s.gen
		s.warps = append(s.warps, w)
		s.ready |= 1 << w.idx
	}
	s.tbSlots[slot] = tbSlot{liveWarp: s.warpsPerTB, valid: true}
	s.tbStart[slot] = cycle
}

// BeginDrain stops TB refill; onFree fires when the last TB finishes.
func (s *SM) BeginDrain(cycle uint64, onFree func(cycle uint64, s *SM)) {
	if s.state == Idle {
		if onFree != nil {
			onFree(cycle, s)
		}
		return
	}
	s.state = Draining
	s.onFree = onFree
	if s.residentWarps() == 0 {
		s.finishFree(cycle)
	}
}

// BeginSwitch preempts immediately; the SM is unavailable until readyAt
// (context save/restore cost computed by the controller), after which
// onFree fires.
func (s *SM) BeginSwitch(cycle, readyAt uint64, onFree func(cycle uint64, s *SM)) {
	s.state = Switching
	s.onFree = onFree
	s.switchUntil = readyAt
	// Drop resident warps: their context is saved and will resume when the
	// application next gets this SM (modelled as re-dispatching TBs).
	s.dropWarps()
	for i := range s.tbSlots {
		s.tbSlots[i] = tbSlot{}
	}
	if s.Wake != nil {
		s.Wake(s)
	}
}

func (s *SM) residentWarps() int {
	n := 0
	for _, w := range s.warps {
		if !w.done {
			n++
		}
	}
	return n
}

func (s *SM) finishFree(cycle uint64) {
	s.state = Idle
	s.app = nil
	s.dropWarps()
	for i := range s.tbSlots {
		s.tbSlots[i] = tbSlot{}
	}
	if s.onFree != nil {
		cb := s.onFree
		s.onFree = nil
		cb(cycle, s)
	}
}

// Tick advances the SM one cycle.
func (s *SM) Tick(cycle uint64, port Port) {
	switch s.state {
	case Idle, Failed:
		return
	case Switching:
		if cycle >= s.switchUntil {
			s.finishFree(cycle)
		}
		return
	}
	s.stats.ActiveCycles++
	issued := 0
	for sched := 0; sched < s.schedulers; sched++ {
		w := s.pickWarp()
		if w == nil {
			break
		}
		if s.issue(cycle, w, port) {
			issued++
		}
	}
	if issued == 0 {
		s.stats.StallCycles++
	}
}

// pickWarp implements GTO: stay on the current warp while it is ready;
// otherwise take the oldest ready warp — the lowest set bit of the ready
// mask, since warps are age-ordered.
func (s *SM) pickWarp() *Warp {
	if s.ready>>uint(s.current)&1 == 0 {
		if s.ready == 0 {
			return nil
		}
		s.current = bits.TrailingZeros64(s.ready)
		s.cur = nil
	}
	if s.cur == nil {
		s.cur = s.warps[s.current]
	}
	return s.cur
}

// issue runs one warp instruction (or retries its pending loads). It
// reports whether an issue slot was consumed.
func (s *SM) issue(cycle uint64, w *Warp, port Port) bool {
	// Retry loads that were generated earlier but rejected downstream.
	if len(w.pending) > 0 {
		s.drainPending(cycle, w, port)
		return false
	}
	addrs := w.Stream.NextInstr(s.addrBuf)
	// NextInstr appends into the shared buffer; adopt any regrown backing
	// array so a divergent kernel does not reallocate it every instruction.
	s.addrBuf = addrs[:0]
	s.stats.Instructions++
	s.stats.IssueSlots++
	if len(addrs) > 0 {
		s.stats.MemInstrs++
		if cap(w.pending) < len(addrs) {
			w.pending = s.carvePending(len(addrs))
		}
		w.pending = append(w.pending, addrs...)
		s.drainPending(cycle, w, port)
	}
	if w.Stream.Done() {
		w.done = true
		s.ready &^= 1 << w.idx
		if !w.blocked {
			s.unready++ // done warps are permanently unready
		}
		s.completeWarp(cycle, w)
	}
	return true
}

// carvePending returns an empty pending-address array of capacity n cut
// from the SM's arena, refilled pendingArena addresses at a time, so warps
// do not allocate their arrays one by one. A warp keeps its array when it
// is recycled. Pending is empty whenever a warp issues, so n addresses (one
// instruction's) always fit.
func (s *SM) carvePending(n int) []uint64 {
	if len(s.pendArena) < n {
		s.pendArena = make([]uint64, max(n, pendingArena))
	}
	p := s.pendArena[:0:n]
	s.pendArena = s.pendArena[n:]
	return p
}

// pendingArena is the carvePending refill size in addresses.
const pendingArena = 256

func (s *SM) drainPending(cycle uint64, w *Warp, port Port) {
	// Consume by index and compact once at the end: popping via
	// pending[1:] would advance the backing array's base, forcing the next
	// append to reallocate — one allocation per memory instruction.
	i := 0
	for i < len(w.pending) {
		if w.Outstanding >= w.MaxOut {
			w.compactPending(i)
			w.block()
			return
		}
		va := w.pending[i]
		if !port.IssueLoad(cycle, s.ID, s.app.ID, va, w) {
			// Structural stall: park the warp on the retry list.
			w.compactPending(i)
			w.block()
			if !w.structStall {
				w.structStall = true
				s.retry = append(s.retry, w)
			}
			return
		}
		w.Outstanding++
		i++
	}
	w.pending = w.pending[:0]
	if w.Outstanding >= w.MaxOut {
		w.block()
		return
	}
	w.unblock()
}

// compactPending drops the i consumed addresses while keeping the slice's
// backing array (and therefore its capacity) in place.
func (w *Warp) compactPending(i int) {
	if i > 0 {
		n := copy(w.pending, w.pending[i:])
		w.pending = w.pending[:n]
	}
}

// RetryBlocked replays structurally-rejected loads; the gpu package calls it
// once per cycle. Only warps parked by a structural hazard are visited.
func (s *SM) RetryBlocked(cycle uint64, port Port) {
	if len(s.retry) == 0 {
		return
	}
	still := s.retry[:0]
	for _, w := range s.retry {
		if w.done || len(w.pending) == 0 {
			w.structStall = false
			continue
		}
		w.structStall = false
		s.drainPending(cycle, w, port)
		if w.structStall {
			still = append(still, w)
		}
	}
	s.retry = still
}

func (s *SM) completeWarp(cycle uint64, w *Warp) {
	slot := &s.tbSlots[w.tb]
	slot.liveWarp--
	if slot.liveWarp > 0 {
		return
	}
	// TB finished.
	s.stats.TBsCompleted++
	dur := float64(cycle - s.tbStart[w.tb])
	if s.tbDurationEMA == 0 {
		s.tbDurationEMA = dur
	} else {
		s.tbDurationEMA = 0.75*s.tbDurationEMA + 0.25*dur
	}
	slot.valid = false
	s.compactWarps()
	switch s.state {
	case Active:
		s.fillTB(cycle, int(w.tb))
	case Draining:
		if s.residentWarps() == 0 {
			s.finishFree(cycle)
		}
	}
}

// compactWarps removes completed warps from the age list and recomputes the
// unready counter and the ready mask. Completed warps are retired; one that
// still has pending addresses sits on the structural-retry list and stays
// out of the pool.
func (s *SM) compactWarps() {
	live := s.warps[:0]
	unready := 0
	var ready uint64
	for _, w := range s.warps {
		if w.done {
			if len(w.pending) == 0 {
				s.retire(w)
			}
			continue
		}
		w.idx = int32(len(live))
		live = append(live, w)
		if w.blocked {
			unready++
		} else {
			ready |= 1 << w.idx
		}
	}
	tail := s.warps[len(live):]
	for i := range tail {
		tail[i] = nil
	}
	s.warps = live
	s.cur = nil
	s.unready = unready
	s.ready = ready
	if s.current >= len(s.warps) {
		s.current = 0
	}
}

// ResidentWarps reports live warps (for tests and occupancy metrics).
func (s *SM) ResidentWarps() int { return s.residentWarps() }

// CanIssue reports whether at least one resident warp is schedulable — the
// O(1) check pickWarp uses. While false (and the retry list is empty and the
// state does not change), Tick only accrues one active and one stall cycle,
// which AccrueStall can replicate in closed form.
func (s *SM) CanIssue() bool { return s.ready != 0 }

// RetryLen reports warps parked on the structural-retry list.
func (s *SM) RetryLen() int { return len(s.retry) }

// SwitchUntil reports when an in-flight context switch completes (only
// meaningful in the Switching state).
func (s *SM) SwitchUntil() uint64 { return s.switchUntil }

// AccrueStall charges n fully-stalled active cycles in closed form: exactly
// what n consecutive Tick calls would record for an Active/Draining SM with
// no schedulable warp (ActiveCycles and StallCycles advance, nothing else).
// The fast-forward engine uses it to settle an SM that was elided from the
// tick loop while all its warps were blocked.
func (s *SM) AccrueStall(n uint64) {
	s.stats.ActiveCycles += n
	s.stats.StallCycles += n
}

// ComputeSprint reports how many of the SM's next ticks provably issue only
// pure-compute instructions from its greedy warp, at most maxTicks, and that
// warp. It is 0 unless the SM is Active or Draining with an empty retry list
// and its current GTO warp is ready with no pending addresses: then every
// scheduler of each such tick picks that warp again (GTO stays on a ready
// warp, and only its own issue or a Wake-signalled change can block it) and
// issues its next instruction. A tick never covers the warp's last quota
// instruction (see workload.WarpStream.ComputeRun).
func (s *SM) ComputeSprint(maxTicks int) (*Warp, int) {
	if (s.state != Active && s.state != Draining) || len(s.retry) > 0 || s.ready>>uint(s.current)&1 == 0 {
		return nil, 0
	}
	w := s.warps[s.current]
	if len(w.pending) > 0 {
		return nil, 0
	}
	return w, w.Stream.ComputeRun(maxTicks*s.schedulers) / s.schedulers
}

// AccrueSprint charges n ticks of a compute sprint on warp w (as returned
// by ComputeSprint) in closed form: exactly what n consecutive Tick calls
// record when every scheduler issues a pure-compute instruction from w.
func (s *SM) AccrueSprint(w *Warp, n uint64) {
	k := n * uint64(s.schedulers)
	s.stats.ActiveCycles += n
	s.stats.Instructions += k
	s.stats.IssueSlots += k
	w.Stream.SkipCompute(int(k))
}

// InvalidateTranslationFilters clears every resident warp's one-entry
// translation filter; the gpu package calls it when TLBs are flushed during
// memory resource reallocation.
func (s *SM) InvalidateTranslationFilters() {
	for _, w := range s.warps {
		w.LastValid = false
	}
}
