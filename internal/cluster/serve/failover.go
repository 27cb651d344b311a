package clusterserve

// Crash processing: a whole-GPU loss discards the victim's live state,
// rolls its tenants back to their durable (checkpointed) progress, and
// re-queues them at the front of their class queue with a retry budget and
// exponential backoff. The discarded service is accounted as LostWork in
// alone-cycles; the crash-to-redispatch interval feeds MTTR.

import (
	"sort"

	"ugpu/internal/metrics"
	"ugpu/internal/trace"
	"ugpu/internal/workload"
)

// processCrashes fires every planned crash in [from, to). Victims are dead
// before the epoch steps: a crashed GPU never executes another cycle, even
// though the reported crash cycle may fall inside the epoch.
func (f *Frontend) processCrashes(from, to uint64) {
	for f.nextCrash < len(f.crashPlan) && f.crashPlan[f.nextCrash].Cycle < to {
		ev := f.crashPlan[f.nextCrash]
		f.nextCrash++
		if ev.Cycle < from {
			ev.Cycle = from // late plans fire immediately, never in the past
		}
		f.crashGPU(ev.Cycle, ev.GPU)
	}
}

// crashGPU kills one backend: accounts the work its tenants lose relative
// to their last checkpoint, restores every unfinished job from durable
// state into the frontend queues (front, arrival order), and charges each
// one a retry.
func (f *Frontend) crashGPU(cycle uint64, victim int) {
	if victim < 0 || victim >= len(f.backends) || !f.alive[victim] {
		return
	}
	f.alive[victim] = false
	f.nAlive--
	// A quarantine interval still open on the victim ends here: the cycles
	// after the crash are downtime (availability), not quarantine.
	f.closeQuarantine(cycle, victim)

	// The victim's live state exists only for loss accounting: everything
	// not in the last checkpoint (or a drained completion) is gone.
	live := f.backends[victim].Snapshot()
	var lost float64
	var recovered []*track
	for _, ts := range live {
		tk := f.tracks[ts.JobID]
		if ts.Served > tk.served && ts.Work > 0 {
			// Convert lost instructions back to alone-cycles through the
			// job's own budget ratio (work = AloneCycles x alone IPC).
			lost += float64(ts.Served-tk.served) * float64(tk.job.AloneCycles) / float64(ts.Work)
		}
		recovered = append(recovered, tk)
	}
	f.lostWork += lost

	ci := len(f.crashLog)
	f.crashLog = append(f.crashLog, metrics.CrashOutcome{
		Cycle: int(cycle), GPU: victim, RecoveredAt: -1,
	})
	f.recovering = append(f.recovering, 0)

	// Re-queue in arrival order so the front inserts preserve it.
	sort.Slice(recovered, func(a, b int) bool {
		return recovered[a].job.ID < recovered[b].job.ID
	})
	epoch := uint64(f.cfg.Sim.EpochCycles)
	requeued := 0
	for i := len(recovered) - 1; i >= 0; i-- {
		tk := recovered[i]
		tk.gpu = -1
		if tk.crashOf >= 0 {
			// Crashed again while still recovering from an earlier crash:
			// settle the old window before opening the new one.
			f.settleRecovery(int(cycle), tk)
		}
		tk.retries++
		if tk.retries > f.retryCap {
			f.shedJob(int(cycle), tk, metrics.ShedRetryExhausted)
			continue
		}
		tk.crashOf = ci
		f.recovering[ci]++
		tk.notBefore = cycle + epoch<<uint(tk.retries-1)
		tk.state = tsQueued
		tk.enqueued = int(cycle)
		if tk.job.Class == workload.BestEffort {
			f.beQ = append([]*track{tk}, f.beQ...)
		} else {
			f.lcQ = append([]*track{tk}, f.lcQ...)
		}
		requeued++
	}
	if f.recovering[ci] == 0 {
		// Nothing to recover (idle victim or everything shed): the crash is
		// closed the moment it happens.
		f.crashLog[ci].RecoveredAt = int(cycle)
	}
	f.cfg.Trace.Emit(trace.KGPUCrash, cycle, -1, int32(victim),
		int64(requeued), int64(lost), int64(f.nAlive))
}
