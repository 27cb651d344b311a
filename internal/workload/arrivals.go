package workload

// This file models the open-world request stream of the online serving layer
// (ISSUE 3): tenants arrive over time, run for a bounded amount of work, and
// depart. It follows the package seeding contract — no global RNG; arrival
// schedules are a pure function of (spec, seed).

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// QoS is a job's service class.
type QoS int

const (
	// LatencyCritical jobs have a tight slowdown SLO and are admitted ahead
	// of best-effort work.
	LatencyCritical QoS = iota
	// BestEffort jobs tolerate queueing and may be preempted to make room
	// for latency-critical arrivals.
	BestEffort
)

func (q QoS) String() string {
	if q == LatencyCritical {
		return "LC"
	}
	return "BE"
}

// Job is one tenant of the open-world serving model: a benchmark instance
// that arrives at a cycle, owes AloneCycles of isolated-GPU work, and
// departs once that work is served.
type Job struct {
	// ID is the job's position in the arrival order (0-based). It doubles
	// as the deterministic seed tag for the tenant's address streams.
	ID int
	// Bench is the benchmark the tenant runs.
	Bench Benchmark
	// Class is the job's QoS class.
	Class QoS
	// Arrival is the cycle at which the job enters the system.
	Arrival int
	// AloneCycles is the job length: the number of cycles the job would
	// need on an idle GPU. The serving layer converts it to an instruction
	// budget via the benchmark's measured alone IPC.
	AloneCycles int
}

// ArrivalSpec parameterises a seeded arrival schedule.
type ArrivalSpec struct {
	// Horizon is the last cycle at which a job may arrive. Jobs arriving
	// after Horizon are not generated.
	Horizon int
	// MeanGap is the mean inter-arrival gap in cycles (Poisson process:
	// exponential gaps). Must be positive.
	MeanGap int
	// Burst, if > 1, arrives jobs in clustered groups: each Poisson epoch
	// spawns Burst back-to-back jobs (trace-like flash crowds). 0 or 1
	// means plain Poisson arrivals.
	Burst int
	// LCFraction is the probability an arriving job is latency-critical;
	// the rest are best-effort.
	LCFraction float64
	// MinLen and MaxLen bound the job length in alone-cycles (uniform).
	// MaxLen <= MinLen pins every job to MinLen.
	MinLen, MaxLen int
	// Benchmarks is the pool jobs draw from (uniformly). Empty means the
	// full Table 2 set.
	Benchmarks []Benchmark
}

// Validate reports the first invalid field of the spec.
func (s ArrivalSpec) Validate() error {
	if s.Horizon <= 0 {
		return fmt.Errorf("workload: ArrivalSpec.Horizon = %d, want > 0", s.Horizon)
	}
	if s.MeanGap <= 0 {
		return fmt.Errorf("workload: ArrivalSpec.MeanGap = %d, want > 0", s.MeanGap)
	}
	if s.LCFraction < 0 || s.LCFraction > 1 {
		return fmt.Errorf("workload: ArrivalSpec.LCFraction = %g, want 0..1", s.LCFraction)
	}
	if s.MinLen <= 0 {
		return fmt.Errorf("workload: ArrivalSpec.MinLen = %d, want > 0", s.MinLen)
	}
	return nil
}

// Generate builds the deterministic arrival schedule for the spec: equal
// seeds produce equal schedules. Jobs are returned sorted by (Arrival, ID).
func (s ArrivalSpec) Generate(seed int64) ([]Job, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	pool := s.Benchmarks
	if len(pool) == 0 {
		pool = Table2()
	}
	burst := s.Burst
	if burst < 1 {
		burst = 1
	}
	var jobs []Job
	at := 0
	for {
		// Exponential inter-arrival gap, floored at 1 cycle so bursts of
		// distinct Poisson epochs never collapse to the same cycle.
		gap := int(math.Round(rng.ExpFloat64() * float64(s.MeanGap)))
		if gap < 1 {
			gap = 1
		}
		at += gap
		if at > s.Horizon {
			break
		}
		for b := 0; b < burst; b++ {
			j := Job{
				ID:      len(jobs),
				Bench:   pool[rng.Intn(len(pool))],
				Arrival: at,
			}
			if rng.Float64() >= s.LCFraction {
				j.Class = BestEffort
			}
			j.AloneCycles = s.MinLen
			if s.MaxLen > s.MinLen {
				j.AloneCycles += rng.Intn(s.MaxLen - s.MinLen + 1)
			}
			jobs = append(jobs, j)
		}
	}
	return jobs, nil
}

// TraceArrivals turns an explicit (cycle, benchmark, class, length) trace
// into a job schedule, assigning IDs in (Arrival, input-order) order. It is
// the deterministic alternative to Generate for replaying recorded traffic.
type TraceEntry struct {
	Arrival     int
	Bench       Benchmark
	Class       QoS
	AloneCycles int
}

// Trace converts entries into jobs sorted by arrival (stable, so equal
// arrival cycles keep input order).
func Trace(entries []TraceEntry) []Job {
	jobs := make([]Job, len(entries))
	for i, e := range entries {
		jobs[i] = Job{ID: i, Bench: e.Bench, Class: e.Class, Arrival: e.Arrival, AloneCycles: e.AloneCycles}
	}
	sort.SliceStable(jobs, func(i, j int) bool { return jobs[i].Arrival < jobs[j].Arrival })
	for i := range jobs {
		jobs[i].ID = i
	}
	return jobs
}
