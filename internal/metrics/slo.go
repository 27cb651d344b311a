package metrics

// SLO accounting for the online serving layer (ISSUE 3): per-job slowdown
// against the alone-run reference, latency percentiles, goodput, and
// rejection/preemption rates. The serving layer records one JobOutcome per
// arrival; BuildSLOReport folds them into the figures the `-fig serve`
// sweep prints.

import (
	"fmt"
	"sort"

	"ugpu/internal/workload"
)

// Percentile returns the p-th percentile (0 <= p <= 100) of values using
// linear interpolation between closest ranks. The input is not modified; an
// empty input yields 0. A single sample is every percentile of itself.
//
// NaN is handled defensively at both ends (bugfix, ISSUE 4): a NaN p fails
// every comparison below, so int(rank) on the pre-fix path converted NaN to
// a negative "indefinite" integer and indexed out of range; NaN samples make
// sort.Float64s order-inconsistent, which silently corrupts the closest-rank
// interpolation. NaN p yields 0 and NaN samples are dropped before ranking.
func Percentile(values []float64, p float64) float64 {
	if p != p { // NaN percentile: no meaningful rank
		return 0
	}
	sorted := make([]float64, 0, len(values))
	for _, v := range values {
		if v == v { // drop NaN samples
			sorted = append(sorted, v)
		}
	}
	if len(sorted) == 0 {
		return 0
	}
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(rank)
	frac := rank - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Slowdown is a completed job's end-to-end stretch: time in system (arrival
// to finish, including queueing) over its alone-run length. 1.0 means the
// job ran as if it had the GPU to itself the moment it arrived. Non-positive
// alone lengths yield 0 (no meaningful reference).
func Slowdown(arrival, finish, aloneCycles int) float64 {
	if aloneCycles <= 0 || finish < arrival {
		return 0
	}
	return float64(finish-arrival) / float64(aloneCycles)
}

// ShedReason explains why the cluster frontend dropped a job instead of
// serving it. ShedNone means the job was not shed.
type ShedReason uint8

const (
	// ShedNone: the job was not shed.
	ShedNone ShedReason = iota
	// ShedBrownoutBE: a best-effort arrival dropped under brownout tier 1+.
	ShedBrownoutBE
	// ShedCircuitBreak: any-class arrival dropped under brownout tier 3.
	ShedCircuitBreak
	// ShedRetryExhausted: a crash-recovered job whose re-dispatch budget
	// ran out.
	ShedRetryExhausted
)

// String returns the short hyphenated reason name.
func (r ShedReason) String() string {
	switch r {
	case ShedNone:
		return "none"
	case ShedBrownoutBE:
		return "brownout-be"
	case ShedCircuitBreak:
		return "circuit-break"
	case ShedRetryExhausted:
		return "retry-exhausted"
	}
	return fmt.Sprintf("shed(%d)", uint8(r))
}

// JobOutcome is one arrival's fate, recorded by the serving layer.
type JobOutcome struct {
	Class       workload.QoS
	Arrival     int
	Start       int // first admission cycle; -1 if never admitted
	Finish      int // completion cycle; -1 if not completed
	AloneCycles int
	Rejected    bool
	Preemptions int

	// Shed records why the cluster frontend dropped the job (ShedNone for
	// jobs that entered service normally). Shed jobs are accounted like
	// rejections — excluded from completion statistics — but tallied
	// separately so overload shedding is never mistaken for queue overflow.
	Shed ShedReason
	// LCRelax is the brownout relaxation factor in force when the job
	// completed: its class SLO target is multiplied by it before the met
	// check. Zero means 1 (no relaxation).
	LCRelax float64
}

// Completed reports whether the job finished its work.
func (j JobOutcome) Completed() bool { return j.Finish >= 0 }

// SLOSpec sets the per-class slowdown targets: a completed job meets its SLO
// when its slowdown is at most the class threshold.
type SLOSpec struct {
	LCSlowdown float64 // latency-critical target (tight)
	BESlowdown float64 // best-effort target (loose)
}

// DefaultSLO returns the serving evaluation's targets. With up to four
// resident tenants a fair share is a quarter of the machine, so even a
// perfectly served job runs near 4x its alone time; the LC target allows
// that plus modest queueing, the BE target is deliberately loose.
func DefaultSLO() SLOSpec { return SLOSpec{LCSlowdown: 6, BESlowdown: 16} }

// Met reports whether a completed job's slowdown meets its class target.
func (s SLOSpec) Met(class workload.QoS, slowdown float64) bool {
	return s.MetRelaxed(class, slowdown, 1)
}

// MetRelaxed is Met with the latency-critical target multiplied by relax
// (the brownout tier-2 degraded SLA; best-effort keeps its loose target —
// brownout already sheds BE admissions rather than re-grading them).
// relax <= 0 means 1 (no relaxation).
func (s SLOSpec) MetRelaxed(class workload.QoS, slowdown, relax float64) bool {
	if relax <= 0 {
		relax = 1
	}
	if class == workload.LatencyCritical {
		return slowdown <= s.LCSlowdown*relax
	}
	return slowdown <= s.BESlowdown
}

// SLOReport summarises a serve run.
type SLOReport struct {
	Jobs        int // arrivals observed
	Completed   int
	Rejected    int
	SLOMet      int // completed jobs within their class target
	Preemptions int // total preemption events

	P50, P95, P99  float64 // slowdown percentiles over completed jobs
	MeanSlowdown   float64
	MeanQueueDelay float64 // cycles from arrival to first admission (admitted jobs)

	RejectRate float64 // rejected / arrivals
	// Goodput is SLO-met completed alone-cycles delivered per horizon cycle:
	// the fraction of the window spent producing work that met its target
	// (can exceed 1 when tenants run concurrently).
	Goodput float64
	// LCGoodput is Goodput restricted to latency-critical jobs (the figure
	// the brownout comparison optimises for).
	LCGoodput float64

	// Shed counts jobs the cluster frontend dropped with a reason
	// (brownout/circuit-break/retry-exhausted); disjoint from Rejected.
	Shed int
	// Relaxed counts completions judged under a brownout-relaxed LC target.
	Relaxed int

	// Failover fields (cluster serving only; zero for single-GPU runs).

	// Crashes is the number of whole-GPU losses during the run.
	Crashes int
	// Availability is healthy GPU-cycles over total GPU-cycles (1 with no
	// crashes, 0 when every GPU was dead for the whole window).
	Availability float64
	// MTTRCycles is the mean cycles from a crash to the point every job
	// recovered from the victim's checkpoint was re-dispatched or shed;
	// unrecovered crashes count the remainder of the horizon.
	MTTRCycles float64
	// LostWork is the alone-cycles of tenant progress rolled back to
	// checkpoints by crashes.
	LostWork float64

	// Gray-failure fields (zero unless the cluster ran with gray injection
	// or health scoring).
	GrayStats

	// LCAvailability is the fraction of GPU-cycles usable by
	// latency-critical work: alive and not quarantined. At most
	// Availability, with equality when nothing was ever quarantined —
	// a quarantined GPU is degraded capacity, not an outage, and only this
	// field (never Availability) accounts it.
	LCAvailability float64

	// StateDigest is the final link of the run's state digest chain
	// (ISSUE 9), 0 when digesting was disabled. Two runs of the same
	// workload in different execution modes must report the same value;
	// a mismatch means the modes diverged and the chain localizes where.
	StateDigest uint64
}

// CrashOutcome is one whole-GPU loss as the cluster frontend observed it.
type CrashOutcome struct {
	Cycle int // crash cycle
	GPU   int // victim index
	// RecoveredAt is the cycle at which every job recovered from the
	// victim's checkpoint had been re-dispatched to a survivor or shed;
	// -1 if recovery never completed before the horizon.
	RecoveredAt int
}

// FailoverStats carries the cluster-level inputs BuildSLOReport folds into
// the availability / MTTR / lost-work fields.
type FailoverStats struct {
	GPUs           int            // cluster size
	Crashes        []CrashOutcome // whole-GPU losses, in crash order
	AliveGPUCycles uint64         // sum over GPUs of cycles spent alive
	LostWork       float64        // alone-cycles rolled back to checkpoints

	// Gray-failure inputs, copied into the report as they are.
	// QuarantinedGPUCycles must count only alive quarantined time — a
	// quarantine interval cut short by a real crash ends at the crash.
	GrayStats
}

// GrayStats is the cluster frontend's gray-failure account: how the health
// scorer fared against the injected degradation windows, and what its
// quarantines cost and saved.
type GrayStats struct {
	// GrayFaults is the number of injected degradation windows.
	GrayFaults int
	// GrayDetected counts windows the health scorer flagged (healthy →
	// suspect inside the window, plus a short grace); GrayMissed counts
	// windows it never flagged (false negatives); GrayFalsePositives counts
	// suspicions with no overlapping window.
	GrayDetected       int
	GrayFalsePositives int
	GrayMissed         int
	// GrayDetectEpochs is the mean epochs from window start to suspicion
	// over detected windows (0 when none were detected).
	GrayDetectEpochs float64
	// QuarantinedGPUCycles is GPU-cycles spent alive but quarantined or
	// probing — unavailable to latency-critical work without being down.
	QuarantinedGPUCycles uint64
	// GraySavedWork is the alone-cycles of live tenant progress the
	// proactive quarantine drain preserved beyond the last checkpoint —
	// exactly what a crash-style response would have rolled back.
	GraySavedWork float64
}

// BuildSLOReport folds job outcomes into a report. horizon is the cycle
// window goodput normalises against; non-positive horizons yield 0 goodput.
// An optional FailoverStats adds the cluster failover fields (availability,
// MTTR, lost work); without one a healthy single-GPU run reports
// Availability 1 and zero crashes.
func BuildSLOReport(jobs []JobOutcome, spec SLOSpec, horizon int, failover ...FailoverStats) SLOReport {
	var r SLOReport
	r.Jobs = len(jobs)
	var slowdowns []float64
	var queueSum float64
	admitted := 0
	goodCycles := 0
	lcGoodCycles := 0
	for _, j := range jobs {
		r.Preemptions += j.Preemptions
		if j.Shed != ShedNone {
			r.Shed++
			continue
		}
		if j.Rejected {
			r.Rejected++
			continue
		}
		if j.Start >= 0 {
			admitted++
			queueSum += float64(j.Start - j.Arrival)
		}
		if !j.Completed() {
			continue
		}
		r.Completed++
		sd := Slowdown(j.Arrival, j.Finish, j.AloneCycles)
		slowdowns = append(slowdowns, sd)
		if j.LCRelax > 1 && j.Class == workload.LatencyCritical {
			r.Relaxed++
		}
		if spec.MetRelaxed(j.Class, sd, j.LCRelax) {
			r.SLOMet++
			goodCycles += j.AloneCycles
			if j.Class == workload.LatencyCritical {
				lcGoodCycles += j.AloneCycles
			}
		}
	}
	if len(slowdowns) > 0 {
		sum := 0.0
		for _, s := range slowdowns {
			sum += s
		}
		r.MeanSlowdown = sum / float64(len(slowdowns))
		r.P50 = Percentile(slowdowns, 50)
		r.P95 = Percentile(slowdowns, 95)
		r.P99 = Percentile(slowdowns, 99)
	}
	if admitted > 0 {
		r.MeanQueueDelay = queueSum / float64(admitted)
	}
	if r.Jobs > 0 {
		r.RejectRate = float64(r.Rejected) / float64(r.Jobs)
	}
	if horizon > 0 {
		r.Goodput = float64(goodCycles) / float64(horizon)
		r.LCGoodput = float64(lcGoodCycles) / float64(horizon)
	}
	r.Availability = 1
	r.LCAvailability = 1
	if len(failover) > 0 {
		foldFailover(&r, failover[0], horizon)
	}
	return r
}

// foldFailover computes the cluster failover fields from the frontend's
// crash log. Availability is defensive against inconsistent inputs (clamped
// to [0,1]); MTTR treats an unrecovered crash as open until the horizon.
func foldFailover(r *SLOReport, fo FailoverStats, horizon int) {
	r.Crashes = len(fo.Crashes)
	r.LostWork = fo.LostWork
	r.GrayStats = fo.GrayStats
	if fo.GPUs > 0 && horizon > 0 {
		av := float64(fo.AliveGPUCycles) / (float64(fo.GPUs) * float64(horizon))
		if av < 0 {
			av = 0
		}
		if av > 1 {
			av = 1
		}
		r.Availability = av
		// Quarantined-but-alive time is unavailable to LC work only; clamp
		// against inconsistent inputs (quarantine reported past a crash).
		lcAlive := float64(fo.AliveGPUCycles) - float64(fo.QuarantinedGPUCycles)
		if lcAlive < 0 {
			lcAlive = 0
		}
		lav := lcAlive / (float64(fo.GPUs) * float64(horizon))
		if lav > av {
			lav = av
		}
		if lav < 0 {
			lav = 0
		}
		r.LCAvailability = lav
	}
	if len(fo.Crashes) == 0 {
		return
	}
	sum := 0.0
	for _, c := range fo.Crashes {
		end := c.RecoveredAt
		if end < 0 || end > horizon {
			end = horizon
		}
		if end < c.Cycle {
			end = c.Cycle
		}
		sum += float64(end - c.Cycle)
	}
	r.MTTRCycles = sum / float64(len(fo.Crashes))
}
