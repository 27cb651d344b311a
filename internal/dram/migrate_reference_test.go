package dram

import (
	"math/rand"
	"testing"

	"ugpu/internal/addr"
	"ugpu/internal/config"
	"ugpu/internal/digest"
	"ugpu/internal/trace"
)

// The earlier PPMM engine, kept as a test oracle: tickPPMM retries every
// pending line of every in-flight job on every cycle, with no wake times.

func refTick(h *HBM, cycle uint64) {
	if h.queuedTotal > 0 {
		for gi, n := range h.queued {
			if n > 0 {
				h.issueOne(cycle, gi, h.channels[gi])
			}
		}
	}
	if len(h.migs) > 0 {
		refTickMigrations(h, cycle)
	}
}

func refTickMigrations(h *HBM, cycle uint64) {
	h.migsDone = h.migsDone[:0]
	for _, job := range h.migs {
		switch job.mode {
		case ModePPMM:
			refTickPPMM(h, cycle, job)
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
				job.fail(cycle, job.tag)
			} else if job.done != nil {
				job.done(cycle, job.tag)
			}
		}
	}
}

func refTickPPMM(h *HBM, cycle uint64, job *migJob) {
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
		if !refTryIssueMigration(h, cycle, l) {
			continue
		}
		l.state = lineStateBusy
		l.endAt = cycle + uint64(h.cfg.MigrationCycles)
		h.activeMigPP++
		h.tsvBusy[l.src.Stack]++
	}
}

func refTryIssueMigration(h *HBM, cycle uint64, l *migLine) bool {
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
	if !refIdleTSVAvailable(h, cycle, l.src.Stack) {
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

func refIdleTSVAvailable(h *HBM, cycle uint64, stack int) bool {
	idle := 0
	base := stack * h.cfg.ChannelsPerStack
	for c := 0; c < h.cfg.ChannelsPerStack; c++ {
		if h.channels[base+c].busFreeAt <= int64(cycle) {
			idle++
		}
	}
	return idle > h.tsvBusy[stack]
}

// migOutcome records how one migration job ended: the cycle its done or
// fail callback fired.
type migOutcome struct {
	doneAt, failAt uint64
}

// TestPPMMWakeMatchesPollingReference drives the wake-time engine and the
// polling reference through the same random PPMM jobs over the same random
// demand traffic, with and without a MigNACK hook that fails jobs. The two
// memory systems must digest equal on every cycle and finish every job on
// the same cycle the same way.
func TestPPMMWakeMatchesPollingReference(t *testing.T) {
	const cycles = 7000
	cfg := config.Default()
	m := addr.NewCustomMapper(cfg)
	for _, tc := range []struct {
		name  string
		seed  int64
		nackP float64
	}{
		{"healthy/1", 1, 0},
		{"healthy/2", 2, 0},
		{"nack/3", 3, 0.7},
		{"nack/4", 4, 0.8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, ref := New(cfg, 4), New(cfg, 4)
			if tc.nackP > 0 {
				gotNACK, refNACK := rand.New(rand.NewSource(tc.seed)), rand.New(rand.NewSource(tc.seed))
				got.MigNACK = func() bool { return gotNACK.Float64() < tc.nackP }
				ref.MigNACK = func() bool { return refNACK.Float64() < tc.nackP }
			}
			var gotOut, refOut []migOutcome
			start := func(h *HBM, out *[]migOutcome, cycle uint64, src, dst []addr.Location, app int) {
				id := len(*out)
				*out = append(*out, migOutcome{})
				err := h.StartMigrationChecked(cycle, src, dst, ModePPMM, app,
					0, func(c uint64, _ int32) { (*out)[id].doneAt = c },
					func(c uint64, _ int32) { (*out)[id].failAt = c })
				if err != nil {
					t.Fatal(err)
				}
			}
			rng := rand.New(rand.NewSource(tc.seed))
			groups := cfg.ChannelGroups()
			completed := 0
			for cycle := uint64(0); cycle < cycles; cycle++ {
				// A burst of demand traffic on most cycles keeps data buses
				// and banks busy, so every refusal kind occurs.
				for n := rng.Intn(6); n > 0; n-- {
					pa := m.FrameBase(rng.Intn(groups), uint64(rng.Intn(64))) +
						uint64(rng.Intn(cfg.LinesPerPage())*cfg.L1LineBytes)
					write, app := rng.Intn(4) == 0, rng.Intn(4)
					for _, h := range []*HBM{got, ref} {
						h.Enqueue(cycle, &Request{Addr: pa, Loc: m.Decode(pa), IsWrite: write, AppID: app,
							Done: func(uint64, *Request) { completed++ }})
					}
				}
				if cycle < cycles/2 && rng.Intn(150) == 0 {
					sg := rng.Intn(groups)
					dg := (sg + 1 + rng.Intn(groups-1)) % groups
					src, dst := pageLinePairs(m, sg, dg, uint64(64+rng.Intn(64)))
					app := rng.Intn(4)
					start(got, &gotOut, cycle, src, dst, app)
					start(ref, &refOut, cycle, src, dst, app)
				}
				got.Tick(cycle)
				refTick(ref, cycle)
				if g, r := got.AppendDigest(digest.New()), ref.AppendDigest(digest.New()); g != r {
					t.Fatalf("cycle %d: HBM digests diverge (%d in-flight jobs, reference %d)",
						cycle, got.PendingMigrations(), ref.PendingMigrations())
				}
			}
			if len(gotOut) == 0 || got.TotalStats().Migrations == 0 || completed == 0 {
				t.Fatalf("no work exercised: %d jobs, %d MIGRATIONs, %d demand completions",
					len(gotOut), got.TotalStats().Migrations, completed)
			}
			fails := 0
			for i := range gotOut {
				if gotOut[i] != refOut[i] {
					t.Errorf("job %d: outcome %+v, reference %+v", i, gotOut[i], refOut[i])
				}
				if gotOut[i].failAt > 0 {
					fails++
				}
			}
			if tc.nackP > 0 && fails == 0 {
				t.Errorf("MigNACK at p=%.1f failed no job of %d", tc.nackP, len(gotOut))
			}
		})
	}
}
