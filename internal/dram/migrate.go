package dram

import (
	"errors"
	"fmt"

	"ugpu/internal/addr"
	"ugpu/internal/trace"
)

// MigrationMode selects how a page is copied between memory channels.
type MigrationMode int

const (
	// ModePPMM is PageMove's parallel page migration mode: MIGRATION
	// commands copy lines bank-to-bank through idle TSV sets via the 4x8
	// crossbar, without occupying the channels' normal data buses. Up to
	// one MIGRATION per (stack, bank group) proceeds in parallel.
	ModePPMM MigrationMode = iota
	// ModeReadWrite copies lines with ordinary READ then WRITE commands
	// through the memory controller, within one stack (the UGPU-Soft
	// ablation: customized mapping, no crossbar/PPMM hardware).
	ModeReadWrite
	// ModeCrossStack is the traditional path (UGPU-Ori): READ/WRITE
	// copies that additionally traverse a per-stack interposer link, which
	// serializes lines and adds transfer latency.
	ModeCrossStack
)

// crossLineCycles is the extra serialized interposer transfer per line on
// the ModeCrossStack path.
const crossLineCycles = 16

// maxOutstandingCopyLines bounds in-flight READ/WRITE copy lines per job,
// modelling the memory controller's migration buffer.
const maxOutstandingCopyLines = 8

const (
	lineStatePending = iota
	lineStateBusy
	lineStateDone
)

// maxLineRetries bounds per-line MIGRATION retries after NACKs; a line
// NACKed more often fails the whole job (the caller's fail callback fires
// once every busy line has drained).
const maxLineRetries = 6

type migLine struct {
	src, dst addr.Location
	state    int
	endAt    uint64 // PPMM: completion time while busy
	retryAt  uint64 // PPMM: earliest re-issue after a NACK (exponential backoff)
	retries  uint8  // NACK count for this line

	// wakeAt (PPMM, derived, not digested) is the first cycle at which the
	// resource that refused this line's last MIGRATION try can free; no
	// earlier try can succeed (see tryIssueMigration).
	wakeAt uint64
}

type deferredWrite struct {
	readyAt uint64
	line    int
}

type migJob struct {
	lines     []migLine
	mode      MigrationMode
	appID     int
	remaining int
	inflight  int
	failed    bool // a line exhausted its NACK retries; stop issuing
	writes    []deferredWrite
	done      func(cycle uint64)
	fail      func(cycle uint64)

	// wakeAt (PPMM, derived, not digested) is the first cycle at which
	// tickPPMM can change the job: the earliest of its busy lines' endAt and
	// its pending lines' retryAt and wakeAt. tickPPMM returns at once before
	// it.
	wakeAt uint64
}

// anyBusy reports whether any line still occupies hardware resources; a
// failed job is only retired once everything it reserved has drained.
func (j *migJob) anyBusy() bool {
	for i := range j.lines {
		if j.lines[i].state == lineStateBusy {
			return true
		}
	}
	return false
}

// StartMigration begins copying the given lines (src[i] -> dst[i]) in the
// requested mode. done is invoked once every line has been written. For
// ModePPMM and ModeReadWrite every src/dst pair must be within one stack.
//
// StartMigration has no failure path: if the MigNACK fault hook is armed and
// a line exhausts its retries, done is invoked anyway (legacy behaviour).
// Callers that must distinguish failed copies use StartMigrationChecked.
func (h *HBM) StartMigration(cycle uint64, src, dst []addr.Location, mode MigrationMode, appID int, done func(uint64)) error {
	return h.StartMigrationChecked(cycle, src, dst, mode, appID, done, nil)
}

// StartMigrationChecked is StartMigration with an explicit failure callback:
// if any line's MIGRATION command is NACKed more than maxLineRetries times
// (fault injection), the job stops, waits for its busy lines to drain, and
// invokes fail instead of done. Exactly one of done/fail fires, exactly once.
// A nil fail falls back to done on failure.
func (h *HBM) StartMigrationChecked(cycle uint64, src, dst []addr.Location, mode MigrationMode, appID int, done, fail func(uint64)) error {
	if len(src) != len(dst) {
		return fmt.Errorf("dram: migration src/dst length mismatch: %d vs %d", len(src), len(dst))
	}
	if len(src) == 0 {
		return errors.New("dram: empty migration")
	}
	job := &migJob{
		lines:     make([]migLine, len(src)),
		mode:      mode,
		appID:     appID,
		remaining: len(src),
		done:      done,
		fail:      fail,
	}
	for i := range src {
		if mode != ModeCrossStack && src[i].Stack != dst[i].Stack {
			return fmt.Errorf("dram: %v -> %v crosses stacks; only ModeCrossStack may", src[i], dst[i])
		}
		job.lines[i] = migLine{src: src[i], dst: dst[i], state: lineStatePending}
	}
	h.migs = append(h.migs, job)
	_ = cycle
	return nil
}

// jobFinished reports whether a migration job can be retired: either every
// line completed, or the job failed and all its busy lines have drained.
func jobFinished(job *migJob) bool {
	return job.remaining == 0 || (job.failed && !job.anyBusy())
}

func (h *HBM) tickMigrations(cycle uint64) {
	h.migsDone = h.migsDone[:0]
	for _, job := range h.migs {
		switch job.mode {
		case ModePPMM:
			h.tickPPMM(cycle, job)
		default:
			h.tickCopy(cycle, job)
		}
		if jobFinished(job) {
			h.migsDone = append(h.migsDone, job)
		}
	}
	if len(h.migsDone) > 0 {
		live := h.migs[:0]
		for _, job := range h.migs {
			if !jobFinished(job) {
				live = append(live, job)
			}
		}
		h.migs = live
		for _, job := range h.migsDone {
			if job.failed && job.fail != nil {
				job.fail(cycle)
			} else if job.done != nil {
				job.done(cycle)
			}
		}
	}
}

// tickPPMM retires finished MIGRATION commands and issues new ones. A
// MIGRATION needs the source and destination banks idle, both bank groups'
// data paths free, and one idle TSV set in the stack (a channel whose data
// bus is idle, not already borrowed by another in-flight MIGRATION).
//
// The job sleeps until job.wakeAt and a refused line until its wakeAt:
// every try skipped before then is one that would have been refused, so
// issue order, MigNACK draws and done/fail cycles are those of retrying
// every pending line on every cycle.
func (h *HBM) tickPPMM(cycle uint64, job *migJob) {
	if cycle < job.wakeAt {
		return
	}
	wake := ^uint64(0)
	for i := range job.lines {
		l := &job.lines[i]
		if l.state != lineStateBusy {
			continue
		}
		if l.endAt > cycle {
			wake = min(wake, l.endAt)
			continue
		}
		// The command has released its banks and TSV set either way.
		h.activeMigPP--
		h.releaseTSV(l.src.Stack)
		// Fault injection: sample whether this MIGRATION was NACKed and
		// must be retried. A line that exhausts its retries fails the
		// whole job; already-failed jobs stop sampling (their lines just
		// drain).
		if !job.failed && h.MigNACK != nil && h.MigNACK() {
			l.retries++
			h.Trace.Emit(trace.KMigNACK, cycle, int32(job.appID),
				int32(l.src.GlobalChannel(h.cfg.ChannelsPerStack)), int64(l.retries), 0, 0)
			if l.retries > maxLineRetries {
				job.failed = true
				l.state = lineStatePending
			} else {
				// Exponential backoff before the retry is eligible.
				l.state = lineStatePending
				l.retryAt = cycle + uint64(h.cfg.MigrationCycles)<<l.retries
			}
			continue
		}
		l.state = lineStateDone
		job.remaining--
	}
	if job.failed {
		// Stop issuing; busy lines drain, then the job retires.
		job.wakeAt = wake
		return
	}
	for i := range job.lines {
		l := &job.lines[i]
		if l.state != lineStatePending {
			continue
		}
		if at := max(l.retryAt, l.wakeAt); at > cycle {
			wake = min(wake, at)
			continue
		}
		ok, at := h.tryIssueMigration(cycle, l)
		if !ok {
			l.wakeAt = at
			wake = min(wake, at)
			continue
		}
		l.state = lineStateBusy
		l.endAt = cycle + uint64(h.cfg.MigrationCycles)
		h.activeMigPP++
		h.holdTSV(l.src.Stack, l.endAt)
		wake = min(wake, l.endAt)
	}
	job.wakeAt = wake
}

// tryIssueMigration checks resource availability for one MIGRATION command
// and, if available, reserves the banks and bank-group paths. On refusal it
// also returns the first cycle at which the refusing resource can free. The
// bounds are exact because nothing they read ever moves earlier: a bank's
// readyAt only grows (schedule issues no earlier than it, ReserveBus and
// InjectBankFault take a max), a bank group's migBusyTil is set only here,
// past its old value, and a channel's busFreeAt only grows; see idleTSV for
// the TSV bound.
func (h *HBM) tryIssueMigration(cycle uint64, l *migLine) (bool, uint64) {
	srcCh := h.channels[l.src.GlobalChannel(h.cfg.ChannelsPerStack)]
	dstCh := h.channels[l.dst.GlobalChannel(h.cfg.ChannelsPerStack)]
	sb := &srcCh.banks[l.src.BankGroup*h.cfg.BanksPerGroup+l.src.Bank]
	db := &dstCh.banks[l.dst.BankGroup*h.cfg.BanksPerGroup+l.dst.Bank]
	sg := &srcCh.groups[l.src.BankGroup]
	dg := &dstCh.groups[l.dst.BankGroup]
	c := int64(cycle)
	if sb.readyAt > c || db.readyAt > c || sg.migBusyTil > c || dg.migBusyTil > c {
		return false, uint64(max(sb.readyAt, db.readyAt, sg.migBusyTil, dg.migBusyTil))
	}
	if ok, at := h.idleTSV(cycle, l.src.Stack); !ok {
		return false, at
	}
	end := c + int64(h.cfg.MigrationCycles)
	// The 40-cycle MIGRATION budget includes closing/activating rows
	// (Section 4.5), so row state simply follows the command.
	if sb.openRow != l.src.Row {
		sb.openRow = l.src.Row
		srcCh.stats.Activates++
	}
	if db.openRow != l.dst.Row {
		db.openRow = l.dst.Row
		dstCh.stats.Activates++
	}
	sb.readyAt, db.readyAt = end, end
	sg.migBusyTil, dg.migBusyTil = end, end
	srcCh.migBusyTil = maxI(srcCh.migBusyTil, end)
	dstCh.migBusyTil = maxI(dstCh.migBusyTil, end)
	srcCh.stats.Migrations++
	return true, 0
}

// idleTSV reports whether the stack has a TSV set free for a MIGRATION:
// some channel in the stack whose data bus is idle, beyond those already
// borrowed by in-flight MIGRATIONs in that stack. When none is, it also
// returns the first cycle one can be: the earlier of the stack's next bus
// release and its earliest in-flight MIGRATION end. Until then no busy bus
// can free (busFreeAt only grows) and tsvBusy cannot fall (it falls only
// when a MIGRATION ends), while an issue only borrows more.
func (h *HBM) idleTSV(cycle uint64, stack int) (bool, uint64) {
	idle := 0
	c := int64(cycle)
	next := int64(^uint64(0) >> 1)
	base := stack * h.cfg.ChannelsPerStack
	for i := 0; i < h.cfg.ChannelsPerStack; i++ {
		if at := h.channels[base+i].busFreeAt; at <= c {
			idle++
		} else {
			next = min(next, at)
		}
	}
	if idle > h.tsvBusy[stack] {
		return true, 0
	}
	if h.tsvBusy[stack] > 0 {
		next = min(next, int64(h.migEnds[base+h.migEndHead[stack]]))
	}
	return false, uint64(next)
}

// holdTSV borrows one of the stack's TSV sets for a MIGRATION ending at end.
// The stack's in-flight end times form a FIFO ring: every MIGRATION lasts
// MigrationCycles, so ends arrive in issue order, and a stack holds at most
// ChannelsPerStack of them (an issue needs more idle buses than borrowed
// sets).
func (h *HBM) holdTSV(stack int, end uint64) {
	n := h.cfg.ChannelsPerStack
	h.migEnds[stack*n+(h.migEndHead[stack]+h.tsvBusy[stack])%n] = end
	h.tsvBusy[stack]++
}

// releaseTSV returns the TSV set of the stack's earliest-ending MIGRATION.
// Lines retire in end order (each job is ticked at its lines' endAt), so
// the ring's head is the retiring line's end time.
func (h *HBM) releaseTSV(stack int) {
	h.migEndHead[stack] = (h.migEndHead[stack] + 1) % h.cfg.ChannelsPerStack
	h.tsvBusy[stack]--
}

// tickCopy drives READ/WRITE-based migration (UGPU-Soft and UGPU-Ori). Reads
// are injected into the source channel queue; each completed read schedules
// the matching write — immediately for ModeReadWrite, after a serialized
// interposer transfer for ModeCrossStack.
func (h *HBM) tickCopy(cycle uint64, job *migJob) {
	// Flush deferred writes whose data has arrived.
	remaining := job.writes[:0]
	for _, w := range job.writes {
		if w.readyAt > cycle || !h.enqueueCopyWrite(cycle, job, w.line) {
			remaining = append(remaining, w)
		}
	}
	job.writes = remaining

	for i := range job.lines {
		if job.inflight >= maxOutstandingCopyLines {
			return
		}
		l := &job.lines[i]
		if l.state != lineStatePending {
			continue
		}
		idx := i
		req := &Request{
			Addr:  0,
			Loc:   l.src,
			AppID: job.appID,
			Done: func(finish uint64, _ *Request) {
				ready := finish
				if job.mode == ModeCrossStack {
					start := maxU(h.crossLink[l.src.Stack], finish)
					ready = start + crossLineCycles
					h.crossLink[l.src.Stack] = ready
				}
				job.writes = append(job.writes, deferredWrite{readyAt: ready, line: idx})
			},
		}
		if !h.Enqueue(cycle, req) {
			return // source queue full; retry next tick
		}
		l.state = lineStateBusy
		job.inflight++
	}
}

func (h *HBM) enqueueCopyWrite(cycle uint64, job *migJob, line int) bool {
	l := &job.lines[line]
	req := &Request{
		Loc:     l.dst,
		IsWrite: true,
		AppID:   job.appID,
		Done: func(finish uint64, _ *Request) {
			l.state = lineStateDone
			job.remaining--
			job.inflight--
		},
	}
	return h.Enqueue(cycle, req)
}
