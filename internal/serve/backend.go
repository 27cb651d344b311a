package serve

// Backend mode (ISSUE 7): the cluster frontend drives N Servers as dumb
// per-GPU executors. Built with Jobs set to an empty (non-nil) schedule, a
// backend generates no arrivals of its own; the frontend pushes work in with
// Offer, advances the device one epoch at a time with StepEpoch, and drains
// finished jobs with TakeCompleted. Snapshot captures the durable state a
// checkpoint needs — resident tenants and queued jobs with their progress —
// as plain values (no I/O), in a deterministic order, so a crashed GPU's
// tenants can be re-offered to survivors byte-identically at any sweep
// parallelism.
//
// Instruction budgets (jobState.work) are computed from the shared
// singleflight AloneIPC, so a budget measured on one GPU transfers exactly
// to any other: a resumed job carries its Work and Served counters and
// finishes at the first boundary where served >= work, wherever it lands.

import (
	"ugpu/internal/workload"
)

// Resume carries one job's durable progress across GPUs. A fresh arrival is
// zero Served / Preempts / Work with Start = -1 (callers must set Start
// explicitly; 0 is a real cycle).
type Resume struct {
	Job workload.Job
	// Served is the instruction count credited as of the last checkpoint.
	Served uint64
	// Work is the instruction budget; 0 means "not yet computed" and the
	// admitting backend derives it from the shared alone-IPC reference.
	Work uint64
	// Preempts is the preemption count carried across the move.
	Preempts int
	// Start is the first admission cycle on any GPU, -1 if never admitted.
	Start int
}

// Completion is one finished job as drained by TakeCompleted.
type Completion struct {
	JobID    int
	Start    int // first admission cycle on any GPU
	Finish   int
	Served   uint64
	Preempts int
}

// TenantSnapshot is one job's durable state inside a Snapshot.
type TenantSnapshot struct {
	JobID    int
	Class    workload.QoS
	Served   uint64
	Work     uint64
	Start    int
	Preempts int
	// Resident reports whether the job held a slot when the snapshot was
	// taken (false: it was waiting in a class queue).
	Resident bool
}

// Offer hands a job (fresh or resumed) to this backend. front inserts ahead
// of ordinary arrivals — the class-appropriate position for crash-recovered
// work, which must not queue behind arrivals it already beat once — but
// behind any recovered job already at the head: the frontend re-dispatches a
// crash's victims in arrival order, and naive head insertion would reverse
// them whenever several land on the same backend in one pass. It reports
// false, leaving the backend untouched, when the class queue is full.
func (s *Server) Offer(cycle int, r Resume, front bool) bool {
	q := &s.lcQ
	if r.Job.Class == workload.BestEffort {
		q = &s.beQ
	}
	if len(*q) >= s.cfg.QueueCap {
		return false
	}
	js := &jobState{
		job:       r.Job,
		work:      r.Work,
		served:    r.Served,
		slot:      -1,
		start:     r.Start,
		finish:    -1,
		preempts:  r.Preempts,
		recovered: front,
	}
	// A resume captured at the completion boundary (served >= work) needs no
	// further service; complete it immediately rather than burning an attach.
	if js.work > 0 && js.served >= js.work {
		js.finish = cycle
		s.jobs = append(s.jobs, js)
		s.nextArr = len(s.jobs)
		s.recordCompletion(js)
		return true
	}
	s.jobs = append(s.jobs, js)
	s.nextArr = len(s.jobs) // never let boundary's arrival scan touch these
	if front {
		// Insert after the leading run of recovered jobs so multiple
		// front offers keep their relative (arrival) order.
		i := 0
		for i < len(*q) && (*q)[i].recovered {
			i++
		}
		*q = append(*q, nil)
		copy((*q)[i+1:], (*q)[i:])
		(*q)[i] = js
	} else {
		*q = append(*q, js)
	}
	return true
}

// StepEpoch advances the device by step cycles and runs the boundary pass.
// The frontend calls this once per cluster epoch for every alive backend
// (in parallel — each backend and its tracer stay single-owner per task).
func (s *Server) StepEpoch(step uint64) error {
	if err := s.g.RunChecked(step); err != nil {
		return err
	}
	if err := s.boundary(int(s.g.Cycle())); err != nil {
		return err
	}
	s.epochs++
	s.maybeDigest()
	return nil
}

// TakeCompleted drains the jobs finished since the last call, in completion
// order (boundary processes slots ascending, so order is deterministic).
func (s *Server) TakeCompleted() []Completion {
	out := s.doneQ
	s.doneQ = nil
	return out
}

// recordCompletion appends a finished job to the drain queue.
func (s *Server) recordCompletion(js *jobState) {
	s.doneQ = append(s.doneQ, Completion{
		JobID:    js.job.ID,
		Start:    js.start,
		Finish:   js.finish,
		Served:   js.served,
		Preempts: js.preempts,
	})
}

// Snapshot captures every unfinished job on this backend — residents in
// slot order, then the LC queue, then the BE queue — with the progress
// counters a restore needs. It is a pure in-memory copy: the checkpoint
// "write" is the frontend retaining the returned slice.
func (s *Server) Snapshot() []TenantSnapshot {
	var out []TenantSnapshot
	for slot := 0; slot < len(s.resident); slot++ {
		js := s.resident[slot]
		if js == nil {
			continue
		}
		out = append(out, snapOne(js, true))
	}
	for _, js := range s.lcQ {
		out = append(out, snapOne(js, false))
	}
	for _, js := range s.beQ {
		out = append(out, snapOne(js, false))
	}
	return out
}

func snapOne(js *jobState, resident bool) TenantSnapshot {
	return TenantSnapshot{
		JobID:    js.job.ID,
		Class:    js.job.Class,
		Served:   js.served,
		Work:     js.work,
		Start:    js.start,
		Preempts: js.preempts,
		Resident: resident,
	}
}

// QueueDepth is the number of jobs waiting in the class queues.
func (s *Server) QueueDepth() int { return len(s.lcQ) + len(s.beQ) }

// Residents is the number of tenants currently holding a slot.
func (s *Server) Residents() int { return len(s.activeSlots()) }

// Load is the dispatch metric the frontend balances on: jobs in the system
// (resident plus queued). Deterministic — no timing feedback.
func (s *Server) Load() int { return s.Residents() + s.QueueDepth() }

// Cycle is the backend device's current cycle.
func (s *Server) Cycle() uint64 { return s.g.Cycle() }
