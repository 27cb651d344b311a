// Package dram implements a cycle-level HBM memory system with PageMove.
//
// The model follows Table 1 of the UGPU paper: 4 stacks x 8 channels x 4
// bank groups x 4 banks, FR-FCFS scheduling with an open-page policy,
// per-channel 64-entry queues, and the listed HBM timing parameters. Data
// transfers occupy a per-channel data bus for a configurable number of GPU
// cycles, sized so the aggregate bandwidth is ~900 GB/s.
//
// On top of the baseline model, the package implements the PageMove
// machinery of Section 4: a per-channel crossbar that lets any bank group
// drive any idle TSV set, the MIGRATION command (a bank-to-bank line copy
// between channels of one stack that bypasses the channels' data buses), and
// the parallel page migration mode (PPMM). Two slower migration modes are
// also provided for the UGPU-Soft and UGPU-Ori ablations: line copies via
// ordinary READ/WRITE commands within a stack, and cross-stack copies
// through the memory-controller path.
package dram

import (
	"fmt"
	"math/bits"

	"ugpu/internal/addr"
	"ugpu/internal/config"
	"ugpu/internal/trace"
)

// Request is one cache-line DRAM access.
type Request struct {
	Addr    uint64
	Loc     addr.Location
	IsWrite bool
	AppID   int
	// Done is invoked when the access completes (data returned for reads,
	// data written for writes). It must not be nil.
	Done func(finish uint64, r *Request)
	// Tag is opaque caller context carried through Done; pooled callers use
	// it instead of capturing state in a per-request closure.
	Tag int32

	// Private scheduling state.
	enqueuedAt uint64
}

// DebugBind, when non-nil, receives scheduling state per command (tests).
var DebugBind func(cycle uint64, st map[string]int64)

const noRow = -1

// farPast initializes "time of last event" state so that timing constraints
// referencing events that never happened are trivially satisfied.
const farPast = int64(-1) << 40

// bank tracks one DRAM bank's row-buffer and timing state. Times are signed
// so they can be initialized to farPast.
//
// The per-bank request queue is a power-of-two ring buffer rather than an
// append/reslice slice: popping via queue[1:] advances the backing array's
// base, so every push would eventually reallocate — on the simulator's
// hottest path that was one allocation per handful of DRAM commands.
//
// headAt and headRow copy the head request's enqueue cycle and row, so the
// scheduler's scan reads only the bank array; qPush and qPop refresh them.
// The fields the scan reads come first.
type bank struct {
	headAt   uint64
	headRow  int
	readyAt  int64 // earliest cycle the bank accepts another command
	openRow  int
	actAt    int64 // time of last ACT (for tRC)
	group    int   // bank-group index
	rasUntil int64 // earliest PRE after last ACT (tRAS)

	q     []*Request // ring buffer; len(q) is a power of two (or zero)
	qHead int
	qLen  int
}

func (b *bank) qPush(r *Request) {
	if b.qLen == 0 {
		b.headAt, b.headRow = r.enqueuedAt, r.Loc.Row
	}
	if b.qLen == len(b.q) {
		n := len(b.q) * 2
		if n == 0 {
			n = 8
		}
		nq := make([]*Request, n)
		for i := 0; i < b.qLen; i++ {
			nq[i] = b.q[(b.qHead+i)&(len(b.q)-1)]
		}
		b.q, b.qHead = nq, 0
	}
	b.q[(b.qHead+b.qLen)&(len(b.q)-1)] = r
	b.qLen++
}

func (b *bank) qFront() *Request { return b.q[b.qHead] }

func (b *bank) qPop() *Request {
	r := b.q[b.qHead]
	b.q[b.qHead] = nil // release the request reference
	b.qHead = (b.qHead + 1) & (len(b.q) - 1)
	b.qLen--
	if b.qLen > 0 {
		head := b.q[b.qHead]
		b.headAt, b.headRow = head.enqueuedAt, head.Loc.Row
	}
	return r
}

// group tracks per-bank-group timing state.
type group struct {
	lastCAS    int64
	lastACT    int64
	writeEnd   int64 // end of last write burst (for tWTRL)
	migBusyTil int64 // bank-group data path held by a MIGRATION command
}

// channel is one HBM channel: 4 bank groups x 4 banks plus shared state.
type channel struct {
	banks     []bank // BankGroups*BanksPerGroup, indexed bg*BanksPerGroup+bank
	groups    []group
	busFreeAt int64 // data bus (TSV set) availability
	lastCAS   int64
	lastACT   int64
	writeEnd  int64
	actTimes  []int64 // ring of last 4 ACTs, for tFAW
	actIdx    int
	rrBank    int   // rotating scan start so arrival-time ties spread over banks
	lastUse   int64 // for idle-channel detection on the logic die

	// queuedOn has bit i set iff banks[i] has queued requests. migBusyTil
	// is the latest of the groups' migBusyTil: from it on, no bank group is
	// held by a MIGRATION command.
	queuedOn   uint64
	migBusyTil int64

	// degraded marks a channel on a failed channel group: queued and
	// newly arriving requests still complete (so in-flight state drains and
	// emergency migration can read the dying banks), but every data burst
	// takes degradedServeFactor times longer — the ECC/retry-limp mode of a
	// partially failed link.
	degraded bool

	// freqNum/freqDen is the channel's DVFS frequency as a fraction of
	// nominal (ISSUE 8): a throttled channel's data bursts occupy
	// ceil(BurstCycles·Den/Num) bus cycles. Zero means nominal. Composes
	// multiplicatively with degraded mode.
	freqNum int
	freqDen int

	stats ChannelStats
}

// degradedServeFactor multiplies burst occupancy on a degraded channel.
const degradedServeFactor = 16

// ChannelStats aggregates per-channel activity counters. Counters are
// cumulative; callers snapshot and subtract across epochs.
type ChannelStats struct {
	Reads      uint64
	Writes     uint64
	RowHits    uint64
	RowMisses  uint64
	Activates  uint64
	Precharges uint64
	Migrations uint64 // MIGRATION commands completed
	BusyCycles uint64 // data-bus occupancy
	QueueFull  uint64 // rejected enqueues

	// Fault-injection counters.
	BankFaults     uint64 // transient bank faults delivered to this channel
	DegradedServes uint64 // bursts served at the degraded-channel rate

	// ThrottledServes counts bursts stretched by channel DVFS (ISSUE 8).
	ThrottledServes uint64
}

// HBM is the whole memory system.
type HBM struct {
	cfg      config.Config
	channels []*channel // global channel id = stack*ChannelsPerStack + ch
	// queued counts each channel's queued requests, by global channel id,
	// and full has bit c set iff channel c's queue is full. Both live
	// outside the channels so the per-cycle scan for work and the
	// queue-space checks do not touch the channel structs.
	queued []int
	full   []uint64
	perApp []AppStats

	migs        []*migJob
	migsDone    []*migJob // scratch
	crossLink   []uint64  // per-stack interposer link availability (UGPU-Ori path)
	tsvBusy     []int     // per-stack TSV sets borrowed by in-flight MIGRATIONs
	activeMigPP int       // MIGRATION commands in flight (all stacks)
	// migEnds holds each stack's in-flight MIGRATION end times, a ring of
	// ChannelsPerStack entries per stack starting at migEndHead (tsvBusy
	// entries long). It is derived state, kept for the TSV wake bound.
	migEnds    []uint64
	migEndHead []int

	// queuedTotal sums queued requests over all channels so an idle memory
	// system's Tick skips the per-channel scan entirely.
	queuedTotal int

	// MigNACK, when non-nil, is sampled once per retiring MIGRATION command
	// (fault injection): a true return means the command was NACKed and the
	// line must be retried by the migration job (bounded, with exponential
	// backoff). The hook must be deterministic.
	MigNACK func() bool

	// Trace receives migration-NACK events (nil disables).
	Trace *trace.Tracer
}

// AppStats aggregates per-application memory traffic for profiling.
type AppStats struct {
	ReadLines  uint64
	WriteLines uint64
}

// New builds the memory system. maxApps bounds AppID. A channel holds at
// most config.MaxBanksPerChannel banks: the scheduler tracks its non-empty
// bank queues in one 64-bit mask.
func New(cfg config.Config, maxApps int) *HBM {
	if n := cfg.BankGroups * cfg.BanksPerGroup; n > config.MaxBanksPerChannel {
		panic(fmt.Sprintf("dram: %d banks per channel exceeds %d", n, config.MaxBanksPerChannel))
	}
	h := &HBM{
		cfg:       cfg,
		channels:  make([]*channel, cfg.NumChannels()),
		queued:    make([]int, cfg.NumChannels()),
		full:      make([]uint64, (cfg.NumChannels()+63)/64),
		perApp:    make([]AppStats, maxApps),
		crossLink: make([]uint64, cfg.NumStacks),
		tsvBusy:   make([]int, cfg.NumStacks),

		migEnds:    make([]uint64, cfg.NumChannels()),
		migEndHead: make([]int, cfg.NumStacks),
	}
	for i := range h.channels {
		ch := &channel{
			banks:    make([]bank, cfg.BankGroups*cfg.BanksPerGroup),
			groups:   make([]group, cfg.BankGroups),
			actTimes: make([]int64, 4),
			lastCAS:  farPast,
			lastACT:  farPast,
			writeEnd: farPast,

			migBusyTil: farPast,
		}
		for t := range ch.actTimes {
			ch.actTimes[t] = farPast
		}
		for b := range ch.banks {
			ch.banks[b] = bank{openRow: noRow, actAt: farPast, rasUntil: farPast, group: b / cfg.BanksPerGroup}
		}
		for g := range ch.groups {
			ch.groups[g] = group{lastCAS: farPast, lastACT: farPast, writeEnd: farPast, migBusyTil: farPast}
		}
		h.channels[i] = ch
	}
	return h
}

// QueueSpace reports how many more requests the channel can accept.
func (h *HBM) QueueSpace(globalCh int) int {
	return h.cfg.QueueEntries - h.queued[globalCh]
}

// FullChannels returns a bitmask, by global channel id, of the channels
// whose queue is full (QueueSpace 0). It is the HBM's own state: read it,
// do not modify it.
func (h *HBM) FullChannels() []uint64 { return h.full }

// Enqueue submits a request. It reports false (and drops the request) if the
// channel queue is full; the caller must retry later.
func (h *HBM) Enqueue(cycle uint64, r *Request) bool {
	gc := r.Loc.GlobalChannel(h.cfg.ChannelsPerStack)
	ch := h.channels[gc]
	if h.queued[gc] >= h.cfg.QueueEntries {
		ch.stats.QueueFull++
		return false
	}
	r.enqueuedAt = cycle
	bi := r.Loc.BankGroup*h.cfg.BanksPerGroup + r.Loc.Bank
	ch.banks[bi].qPush(r)
	ch.queuedOn |= 1 << bi
	if h.queued[gc]++; h.queued[gc] == h.cfg.QueueEntries {
		h.full[gc/64] |= 1 << (gc % 64)
	}
	h.queuedTotal++
	ch.lastUse = maxI(ch.lastUse, int64(cycle))
	return true
}

// Tick advances the memory system by one GPU cycle: each channel issues at
// most one command, and migration jobs make progress.
func (h *HBM) Tick(cycle uint64) {
	if h.queuedTotal > 0 {
		for gi, n := range h.queued {
			if n > 0 {
				h.issueOne(cycle, gi, h.channels[gi])
			}
		}
	}
	if len(h.migs) > 0 {
		h.tickMigrations(cycle)
	}
}

// issueOne performs FR-FCFS selection for one channel: among banks that can
// accept a command, prefer the oldest row-hit request; otherwise the oldest
// request overall. Issue is gated so the data bus never runs more than two
// bursts ahead, keeping reordering meaningful.
func (h *HBM) issueOne(cycle uint64, globalCh int, ch *channel) {
	// Gate issue so the data bus reservation never runs more than a
	// row-miss-latency window ahead: enough headroom for banks to pipeline
	// row misses, small enough that FR-FCFS reordering stays meaningful.
	c := int64(cycle)
	t := h.cfg.Timing
	window := int64(t.TRP + t.TRCD + t.TCL + 8*h.cfg.BurstCycles)
	if ch.busFreeAt > c+window {
		return
	}
	bi := h.pick(c, ch)
	if bi < 0 {
		return
	}
	b := &ch.banks[bi]
	ch.rrBank = (bi + 1) % len(ch.banks)
	finish := h.schedule(cycle, ch, b, b.qFront())
	r := b.qPop()
	if b.qLen == 0 {
		ch.queuedOn &^= 1 << bi
	}
	h.queued[globalCh]--
	h.full[globalCh/64] &^= 1 << (globalCh % 64)
	h.queuedTotal--
	h.complete(finish, r)
}

// pick returns the bank whose head request issueOne serves at cycle c, or
// -1 when every queued bank's group is held by a MIGRATION command.
func (h *HBM) pick(c int64, ch *channel) int {
	// FR-FCFS approximation over bank-queue heads, in priority order:
	// (1) oldest row hit on a ready bank, (2) oldest request on a bank out
	// of its tRC/tRAS shadow (its ACT can issue promptly), (3) oldest
	// request overall (guarantees progress and bounds starvation). Banks are
	// visited in rotation from rrBank — the non-empty banks at or above it,
	// then those below — and the first in rotation wins arrival-time ties.
	hit, ready, oldest := -1, -1, -1
	var hitAt, readyAt, oldAt uint64
	tRC := int64(h.cfg.Timing.TRC)
	migBusy := ch.migBusyTil > c
	rr := uint(ch.rrBank)
	for _, m := range [2]uint64{ch.queuedOn >> rr << rr, ch.queuedOn & (1<<rr - 1)} {
		for ; m != 0; m &= m - 1 {
			bi := bits.TrailingZeros64(m)
			b := &ch.banks[bi]
			// The bank-group data path may be held by a MIGRATION command.
			if migBusy && ch.groups[b.group].migBusyTil > c {
				continue
			}
			at := b.headAt
			if oldest < 0 || at < oldAt {
				oldest, oldAt = bi, at
			}
			if b.readyAt > c {
				continue
			}
			if b.openRow == b.headRow {
				if hit < 0 || at < hitAt {
					hit, hitAt = bi, at
				}
				continue
			}
			if b.actAt+tRC <= c {
				if ready < 0 || at < readyAt {
					ready, readyAt = bi, at
				}
			}
		}
	}
	switch {
	case hit >= 0:
		return hit
	case ready >= 0:
		return ready
	}
	return oldest
}

// schedule computes the completion time of a request on its bank,
// respecting the Table 1 timing constraints, and updates all timing state.
func (h *HBM) schedule(cycle uint64, ch *channel, b *bank, r *Request) uint64 {
	t := h.cfg.Timing
	g := &ch.groups[r.Loc.BankGroup]
	casAt := maxI(int64(cycle), b.readyAt)

	if b.openRow != r.Loc.Row {
		rowReady := casAt
		if b.openRow != noRow {
			preAt := maxI(casAt, b.rasUntil)
			rowReady = preAt + int64(t.TRP)
			ch.stats.Precharges++
		}
		actAt := maxI(rowReady, g.lastACT+int64(t.TRRDL))
		actAt = maxI(actAt, ch.lastACT+int64(t.TRRDS))
		actAt = maxI(actAt, b.actAt+int64(t.TRC))
		actAt = maxI(actAt, ch.actTimes[ch.actIdx]+int64(t.TFAW))
		ch.actTimes[ch.actIdx] = actAt
		ch.actIdx = (ch.actIdx + 1) % len(ch.actTimes)
		g.lastACT, ch.lastACT = actAt, actAt
		b.actAt = actAt
		b.rasUntil = actAt + int64(t.TRAS)
		b.openRow = r.Loc.Row
		casAt = actAt + int64(t.TRCD)
		ch.stats.Activates++
		ch.stats.RowMisses++
	} else {
		ch.stats.RowHits++
	}

	if DebugBind != nil {
		DebugBind(cycle, map[string]int64{
			"cycle": int64(cycle), "bankReady": b.readyAt,
			"grpACT": g.lastACT + int64(t.TRRDL), "chACT": ch.lastACT + int64(t.TRRDS),
			"tRC": b.actAt + int64(t.TRC), "faw": ch.actTimes[ch.actIdx] + int64(t.TFAW),
			"casAt": casAt, "bus": ch.busFreeAt,
		})
	}
	casAt = maxI(casAt, g.lastCAS+int64(t.TCCDL))
	casAt = maxI(casAt, ch.lastCAS+int64(t.TCCDS))
	if !r.IsWrite {
		// Write-to-read turnaround.
		casAt = maxI(casAt, g.writeEnd+int64(t.TWTRL))
		casAt = maxI(casAt, ch.writeEnd+int64(t.TWTRS))
	}
	g.lastCAS, ch.lastCAS = casAt, casAt

	lat := int64(t.TCL)
	if r.IsWrite {
		lat = int64(t.TWL)
	}
	burst := int64(h.cfg.BurstCycles)
	if ch.freqDen > ch.freqNum {
		burst = (burst*int64(ch.freqDen) + int64(ch.freqNum) - 1) / int64(ch.freqNum)
		ch.stats.ThrottledServes++
	}
	if ch.degraded {
		burst *= degradedServeFactor
		ch.stats.DegradedServes++
	}
	dataStart := maxI(casAt+lat, ch.busFreeAt)
	dataEnd := dataStart + burst
	ch.busFreeAt = dataEnd
	ch.stats.BusyCycles += uint64(burst)
	ch.lastUse = dataEnd
	b.readyAt = casAt + int64(t.TCCDL)
	if r.IsWrite {
		g.writeEnd, ch.writeEnd = dataEnd, dataEnd
		b.readyAt = maxI(b.readyAt, dataEnd) // write recovery approximation
		ch.stats.Writes++
		h.perApp[r.AppID].WriteLines++
	} else {
		ch.stats.Reads++
		h.perApp[r.AppID].ReadLines++
	}
	return uint64(dataEnd)
}

func (h *HBM) complete(finish uint64, r *Request) {
	if r.Done != nil {
		r.Done(finish, r)
	}
}

// ChannelStatsSnapshot returns a copy of one channel's counters.
func (h *HBM) ChannelStatsSnapshot(globalCh int) ChannelStats {
	return h.channels[globalCh].stats
}

// AppStatsSnapshot returns a copy of one application's traffic counters.
func (h *HBM) AppStatsSnapshot(appID int) AppStats { return h.perApp[appID] }

// TotalStats sums counters over all channels.
func (h *HBM) TotalStats() ChannelStats {
	var s ChannelStats
	for _, ch := range h.channels {
		s.Reads += ch.stats.Reads
		s.Writes += ch.stats.Writes
		s.RowHits += ch.stats.RowHits
		s.RowMisses += ch.stats.RowMisses
		s.Activates += ch.stats.Activates
		s.Precharges += ch.stats.Precharges
		s.Migrations += ch.stats.Migrations
		s.BusyCycles += ch.stats.BusyCycles
		s.QueueFull += ch.stats.QueueFull
		s.BankFaults += ch.stats.BankFaults
		s.DegradedServes += ch.stats.DegradedServes
		s.ThrottledServes += ch.stats.ThrottledServes
	}
	return s
}

// ChannelIdleFor reports how long a channel's data path has been idle; this
// models the idle-channel detection logic PageMove adds to the logic die.
func (h *HBM) ChannelIdleFor(cycle uint64, globalCh int) uint64 {
	ch := h.channels[globalCh]
	c := int64(cycle)
	if ch.busFreeAt > c || ch.lastUse > c {
		return 0
	}
	return uint64(c - ch.lastUse)
}

// PendingMigrations reports migration jobs still in flight.
func (h *HBM) PendingMigrations() int { return len(h.migs) }

// NextActivity reports the earliest future cycle at which Tick could change
// state, or false when the memory system holds no queued requests (callers
// gate migration work separately via PendingMigrations). The bound mirrors
// issueOne's only unconditional no-op gate: a channel with queued work issues
// nothing while its data-bus reservation runs more than a row-miss-latency
// window ahead, so until busFreeAt-window the channel's Tick is a pure no-op.
// Every other stall (bank timing, migration-held bank groups) can resolve
// within the same call, so a channel inside its window bounds at `cycle`
// (no skip). The returned cycle is never later than the channel's real next
// state change.
func (h *HBM) NextActivity(cycle uint64) (uint64, bool) {
	if h.queuedTotal == 0 {
		return 0, false
	}
	c := int64(cycle)
	t := h.cfg.Timing
	window := int64(t.TRP + t.TRCD + t.TCL + 8*h.cfg.BurstCycles)
	next := ^uint64(0)
	for gi, ch := range h.channels {
		if h.queued[gi] == 0 {
			continue
		}
		if ch.busFreeAt <= c+window {
			return cycle, true
		}
		if at := uint64(ch.busFreeAt - window); at < next {
			next = at
		}
	}
	return next, true
}

// QueuedTotal reports requests queued across all channels (diagnostics).
func (h *HBM) QueuedTotal() int { return h.queuedTotal }

// DegradeChannel marks one global channel as degraded (its channel group
// failed): pending and future requests still drain, but every burst takes
// degradedServeFactor times longer. Degradation is permanent.
func (h *HBM) DegradeChannel(globalCh int) {
	h.channels[globalCh].degraded = true
}

// Degraded reports whether the channel is in degraded mode.
func (h *HBM) Degraded(globalCh int) bool { return h.channels[globalCh].degraded }

// SetChannelFreq sets a channel's DVFS frequency to num/den of nominal
// (ISSUE 8): subsequent data bursts occupy ceil(BurstCycles·den/num) bus
// cycles. num == den (or 0) restores nominal timing. The issue-window gate
// and NextActivity keep using the nominal window, so the fast-forward bound
// stays an exact mirror of issueOne's no-op condition.
func (h *HBM) SetChannelFreq(globalCh, num, den int) {
	ch := h.channels[globalCh]
	if num >= den {
		ch.freqNum, ch.freqDen = 0, 0
		return
	}
	ch.freqNum, ch.freqDen = num, den
}

// ReserveBus holds a channel's data bus until the given cycle (a DVFS
// frequency transition: the link retrains and transfers nothing). Pending
// requests wait it out via the ordinary busFreeAt path, which NextActivity
// already bounds.
func (h *HBM) ReserveBus(globalCh int, until uint64) {
	ch := h.channels[globalCh]
	ch.busFreeAt = maxI(ch.busFreeAt, int64(until))
}

// InjectBankFault makes one bank unavailable for duration cycles and closes
// its row buffer (a transient DRAM bank fault: the bank's state is lost and
// it re-initialises before accepting commands again). Queued requests wait
// out the fault; nothing is dropped.
func (h *HBM) InjectBankFault(cycle uint64, globalCh, bankIdx int, duration uint64) {
	ch := h.channels[globalCh]
	b := &ch.banks[bankIdx%len(ch.banks)]
	b.readyAt = maxI(b.readyAt, int64(cycle+duration))
	b.openRow = noRow
	ch.stats.BankFaults++
}

func maxU(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

func maxI(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func (h *HBM) String() string {
	return fmt.Sprintf("HBM{%d stacks x %d channels}", h.cfg.NumStacks, h.cfg.ChannelsPerStack)
}
