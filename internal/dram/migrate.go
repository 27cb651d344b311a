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
func (h *HBM) tickPPMM(cycle uint64, job *migJob) {
	for i := range job.lines {
		l := &job.lines[i]
		if l.state != lineStateBusy || l.endAt > cycle {
			continue
		}
		// The command has released its banks and TSV set either way.
		h.activeMigPP--
		h.tsvBusy[l.src.Stack]--
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
		return // stop issuing; busy lines drain, then the job retires
	}
	for i := range job.lines {
		l := &job.lines[i]
		if l.state != lineStatePending || l.retryAt > cycle {
			continue
		}
		if !h.tryIssueMigration(cycle, l) {
			continue
		}
		l.state = lineStateBusy
		l.endAt = cycle + uint64(h.cfg.MigrationCycles)
		h.activeMigPP++
		h.tsvBusy[l.src.Stack]++
	}
}

// tryIssueMigration checks resource availability for one MIGRATION command
// and, if available, reserves the banks and bank-group paths.
func (h *HBM) tryIssueMigration(cycle uint64, l *migLine) bool {
	srcCh := h.channels[l.src.GlobalChannel(h.cfg.ChannelsPerStack)]
	dstCh := h.channels[l.dst.GlobalChannel(h.cfg.ChannelsPerStack)]
	sb := &srcCh.banks[l.src.BankGroup*h.cfg.BanksPerGroup+l.src.Bank]
	db := &dstCh.banks[l.dst.BankGroup*h.cfg.BanksPerGroup+l.dst.Bank]
	sg := &srcCh.groups[l.src.BankGroup]
	dg := &dstCh.groups[l.dst.BankGroup]
	c := int64(cycle)
	if sb.readyAt > c || db.readyAt > c {
		return false
	}
	if sg.migBusyTil > c || dg.migBusyTil > c {
		return false
	}
	if !h.idleTSVAvailable(cycle, l.src.Stack) {
		return false
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
	return true
}

// idleTSVAvailable reports whether the stack has a TSV set free for a
// MIGRATION: some channel in the stack whose data bus is idle, beyond those
// already borrowed by in-flight MIGRATIONs in that stack.
func (h *HBM) idleTSVAvailable(cycle uint64, stack int) bool {
	idle := 0
	base := stack * h.cfg.ChannelsPerStack
	for c := 0; c < h.cfg.ChannelsPerStack; c++ {
		if h.channels[base+c].busFreeAt <= int64(cycle) {
			idle++
		}
	}
	return idle > h.tsvBusy[stack]
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
