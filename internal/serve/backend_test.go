package serve

import (
	"errors"
	"slices"
	"testing"

	"ugpu/internal/config"
	"ugpu/internal/workload"
)

func backendConfig(t *testing.T) Config {
	t.Helper()
	cfg := testSim()
	return Config{
		Sim:   cfg,
		Opt:   testOpt(),
		Alone: primedAlone(cfg, testOpt()),
		Jobs:  []workload.Job{}, // backend mode: arrivals only via Offer
	}
}

func TestConfigValidateFieldErrors(t *testing.T) {
	cases := []struct {
		name  string
		mut   func(*Config)
		field string
	}{
		{"negative QueueCap", func(c *Config) { c.QueueCap = -3 }, "serve.QueueCap"},
		{"negative PowerCap", func(c *Config) { c.PowerCap = -1 }, "serve.PowerCap"},
	}
	for _, tc := range cases {
		cfg := backendConfig(t)
		tc.mut(&cfg)
		_, err := New(cfg)
		if err == nil {
			t.Errorf("%s: New accepted invalid config", tc.name)
			continue
		}
		var fe *config.FieldError
		if !errors.As(err, &fe) {
			t.Errorf("%s: error %v is not a *config.FieldError", tc.name, err)
			continue
		}
		if fe.Field != tc.field {
			t.Errorf("%s: FieldError names %q, want %q", tc.name, fe.Field, tc.field)
		}
	}

	// Invalid simulator geometry and invalid arrival specs surface too.
	cfg := backendConfig(t)
	cfg.Sim.EpochCycles = -5
	if _, err := New(cfg); err == nil {
		t.Error("New accepted a negative epoch length")
	}
	cfg = backendConfig(t)
	cfg.Jobs = nil // arrival mode: the spec must now validate
	if _, err := New(cfg); err == nil {
		t.Error("New accepted a zero ArrivalSpec in arrival mode")
	}

	// The zero-value knobs still mean "default" and pass.
	if err := backendConfig(t).Validate(); err != nil {
		t.Errorf("defaulted config rejected: %v", err)
	}
}

func TestBackendOfferStepComplete(t *testing.T) {
	s, err := New(backendConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if !s.Backend() {
		t.Fatal("empty explicit schedule did not select backend mode")
	}
	dxtc := mustBench(t, "DXTC")
	fresh := Resume{
		Job:   workload.Job{ID: 0, Bench: dxtc, Class: workload.LatencyCritical, Arrival: 0, AloneCycles: 20_000},
		Start: -1,
	}
	if !s.Offer(0, fresh, false) {
		t.Fatal("backend refused a job with empty queues")
	}
	if s.Load() != 1 || s.QueueDepth() != 1 {
		t.Fatalf("load=%d queue=%d after one offer, want 1/1", s.Load(), s.QueueDepth())
	}
	epoch := uint64(s.cfg.Sim.EpochCycles)
	var done []Completion
	for i := 0; i < 12 && len(done) == 0; i++ {
		if err := s.StepEpoch(epoch); err != nil {
			t.Fatal(err)
		}
		done = append(done, s.TakeCompleted()...)
	}
	if len(done) != 1 {
		t.Fatalf("drained %d completions, want 1", len(done))
	}
	c := done[0]
	if c.JobID != 0 || c.Finish <= c.Start || c.Start < 0 {
		t.Fatalf("completion malformed: %+v", c)
	}
	if c.Served == 0 {
		t.Fatal("completion served no instructions")
	}
	if got := s.TakeCompleted(); len(got) != 0 {
		t.Fatalf("second drain returned %d completions, want 0", len(got))
	}
	if s.Load() != 0 {
		t.Fatalf("load=%d after completion, want 0", s.Load())
	}
}

func TestBackendSnapshotResumeTransfersProgress(t *testing.T) {
	// Serve a job for a few epochs on GPU a, snapshot it, resume it on a
	// fresh GPU b, and check b finishes it with total served work equal to
	// what a fresh full run serves — no work lost or duplicated by the move.
	run := func(resume *Resume) (served uint64, epochs int) {
		s, err := New(backendConfig(t))
		if err != nil {
			t.Fatal(err)
		}
		r := Resume{
			Job:   workload.Job{ID: 7, Bench: mustBench(t, "DXTC"), Class: workload.LatencyCritical, Arrival: 0, AloneCycles: 30_000},
			Start: -1,
		}
		if resume != nil {
			r = *resume
		}
		if !s.Offer(0, r, true) {
			t.Fatal("offer refused")
		}
		epoch := uint64(s.cfg.Sim.EpochCycles)
		for i := 0; i < 20; i++ {
			if err := s.StepEpoch(epoch); err != nil {
				t.Fatal(err)
			}
			if done := s.TakeCompleted(); len(done) == 1 {
				return done[0].Served, i + 1
			}
		}
		t.Fatal("job never completed")
		return 0, 0
	}

	fullServed, fullEpochs := run(nil)

	// Partial run: step a few epochs, then snapshot.
	a, err := New(backendConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	job := workload.Job{ID: 7, Bench: mustBench(t, "DXTC"), Class: workload.LatencyCritical, Arrival: 0, AloneCycles: 30_000}
	if !a.Offer(0, Resume{Job: job, Start: -1}, false) {
		t.Fatal("offer refused")
	}
	epoch := uint64(a.cfg.Sim.EpochCycles)
	for i := 0; i < 3; i++ {
		if err := a.StepEpoch(epoch); err != nil {
			t.Fatal(err)
		}
	}
	snap := a.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("snapshot has %d tenants, want 1", len(snap))
	}
	ts := snap[0]
	if ts.JobID != 7 || !ts.Resident || ts.Served == 0 || ts.Work == 0 {
		t.Fatalf("snapshot malformed: %+v", ts)
	}
	if ts.Served >= ts.Work {
		t.Fatalf("job finished before the snapshot (served %d >= work %d); shorten the warm-up", ts.Served, ts.Work)
	}

	served2, epochs2 := run(&Resume{Job: job, Served: ts.Served, Work: ts.Work, Preempts: ts.Preempts, Start: ts.Start})
	if served2 < fullServed || served2 > fullServed+fullServed/10 {
		t.Errorf("resumed total served %d, fresh run served %d (move lost or duplicated work)", served2, fullServed)
	}
	if epochs2 >= fullEpochs {
		t.Errorf("resumed run took %d epochs, fresh run %d: checkpointed progress was not honoured", epochs2, fullEpochs)
	}
}

func TestBackendOfferCompletedResume(t *testing.T) {
	// A resume whose served already covers its budget completes immediately,
	// with no attach churn.
	s, err := New(backendConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	job := workload.Job{ID: 3, Bench: mustBench(t, "PVC"), Class: workload.BestEffort, Arrival: 100, AloneCycles: 10_000}
	if !s.Offer(5_000, Resume{Job: job, Served: 500, Work: 500, Start: 200}, false) {
		t.Fatal("offer refused")
	}
	done := s.TakeCompleted()
	if len(done) != 1 || done[0].Finish != 5_000 || done[0].JobID != 3 {
		t.Fatalf("immediate completion missing or malformed: %+v", done)
	}
	if s.Load() != 0 {
		t.Fatalf("load=%d, want 0", s.Load())
	}
}

func TestBackendOfferFullQueueRefuses(t *testing.T) {
	cfg := backendConfig(t)
	cfg.QueueCap = 2
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pvc := mustBench(t, "PVC")
	for i := 0; i < 2; i++ {
		job := workload.Job{ID: i, Bench: pvc, Class: workload.BestEffort, Arrival: 0, AloneCycles: 10_000}
		if !s.Offer(0, Resume{Job: job, Start: -1}, false) {
			t.Fatalf("offer %d refused below QueueCap", i)
		}
	}
	job := workload.Job{ID: 9, Bench: pvc, Class: workload.BestEffort, Arrival: 0, AloneCycles: 10_000}
	if s.Offer(0, Resume{Job: job, Start: -1}, false) {
		t.Fatal("offer accepted beyond QueueCap")
	}
	// The LC queue is independent of the full BE queue.
	lc := workload.Job{ID: 10, Bench: pvc, Class: workload.LatencyCritical, Arrival: 0, AloneCycles: 10_000}
	if !s.Offer(0, Resume{Job: lc, Start: -1}, false) {
		t.Fatal("full BE queue blocked an LC offer")
	}
	// Front insert puts a recovered job ahead of the earlier offers.
	if len(s.beQ) != 2 || s.beQ[0].job.ID != 0 {
		t.Fatalf("BE queue order unexpected: %d jobs, head %d", len(s.beQ), s.beQ[0].job.ID)
	}
	rec := workload.Job{ID: 11, Bench: pvc, Class: workload.LatencyCritical, Arrival: 0, AloneCycles: 10_000}
	if !s.Offer(0, Resume{Job: rec, Start: -1}, true) {
		t.Fatal("front offer refused")
	}
	if s.lcQ[0].job.ID != 11 {
		t.Fatalf("front offer landed at position != 0: head is %d", s.lcQ[0].job.ID)
	}
}

func queueIDs(q []*jobState) []int {
	ids := make([]int, len(q))
	for i, js := range q {
		ids[i] = js.job.ID
	}
	return ids
}

// TestBackendFrontOfferPreservesArrivalOrder (ISSUE 9 regression): the
// cluster frontend re-dispatches a crash's victims in ascending arrival
// order, each with front=true. Head insertion reversed them whenever several
// landed on the same backend in one pass — the job that arrived last ran
// first. Front offers must land ahead of ordinary arrivals but behind the
// recovered jobs already offered before them.
func TestBackendFrontOfferPreservesArrivalOrder(t *testing.T) {
	s, err := New(backendConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	pvc := mustBench(t, "PVC")
	offer := func(id int, front bool) {
		t.Helper()
		job := workload.Job{ID: id, Bench: pvc, Class: workload.LatencyCritical, Arrival: 0, AloneCycles: 10_000}
		if !s.Offer(0, Resume{Job: job, Start: -1}, front) {
			t.Fatalf("offer %d refused", id)
		}
	}
	// Two ordinary arrivals already waiting, then a crash re-offers three
	// recovered jobs in arrival order.
	offer(10, false)
	offer(11, false)
	for id := 0; id < 3; id++ {
		offer(id, true)
	}
	want := []int{0, 1, 2, 10, 11}
	if got := queueIDs(s.lcQ); !slices.Equal(got, want) {
		t.Fatalf("queue after recovery offers = %v, want %v", got, want)
	}
	// A later crash's victim queues behind the earlier recovered run but
	// still ahead of ordinary arrivals.
	offer(5, true)
	want = []int{0, 1, 2, 5, 10, 11}
	if got := queueIDs(s.lcQ); !slices.Equal(got, want) {
		t.Fatalf("queue after second recovery = %v, want %v", got, want)
	}
	// The durable snapshot reflects the same order.
	var snapIDs []int
	for _, ts := range s.Snapshot() {
		snapIDs = append(snapIDs, ts.JobID)
	}
	if !slices.Equal(snapIDs, want) {
		t.Fatalf("snapshot order = %v, want %v", snapIDs, want)
	}
}

// TestBackendSnapshotRestoreRoundTrip (ISSUE 9): restoring a backend's
// snapshot onto a fresh backend must preserve every durable field of every
// unfinished tenant — nothing dropped, nothing reordered, no progress
// invented. The restored snapshot differs only in the Resident flag (all
// restored jobs are queued until the next boundary admits them).
func TestBackendSnapshotRestoreRoundTrip(t *testing.T) {
	a, err := New(backendConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	dxtc := mustBench(t, "DXTC")
	// Enough long LC jobs that some are resident and some still queued when
	// the snapshot is taken, and none finish within the warm-up.
	for id := 0; id < 4; id++ {
		job := workload.Job{ID: id, Bench: dxtc, Class: workload.LatencyCritical, Arrival: 0, AloneCycles: 400_000}
		if !a.Offer(0, Resume{Job: job, Start: -1}, false) {
			t.Fatalf("offer %d refused", id)
		}
	}
	epoch := uint64(a.cfg.Sim.EpochCycles)
	for i := 0; i < 3; i++ {
		if err := a.StepEpoch(epoch); err != nil {
			t.Fatal(err)
		}
	}
	if done := a.TakeCompleted(); len(done) != 0 {
		t.Fatalf("%d jobs finished during warm-up; lengthen AloneCycles", len(done))
	}
	snap := a.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot has %d tenants, want 4", len(snap))
	}
	var served uint64
	for _, ts := range snap {
		served += ts.Served
	}
	if served == 0 {
		t.Fatal("no tenant made progress before the snapshot")
	}

	b, err := New(backendConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	at := int(a.Cycle())
	for _, ts := range snap {
		r := Resume{
			Job:      workload.Job{ID: ts.JobID, Bench: dxtc, Class: ts.Class, Arrival: 0, AloneCycles: 400_000},
			Served:   ts.Served,
			Work:     ts.Work,
			Preempts: ts.Preempts,
			Start:    ts.Start,
		}
		if !b.Offer(at, r, true) {
			t.Fatalf("restore offer %d refused", ts.JobID)
		}
	}
	restored := b.Snapshot()
	if len(restored) != len(snap) {
		t.Fatalf("restored snapshot has %d tenants, want %d", len(restored), len(snap))
	}
	for i := range snap {
		want, got := snap[i], restored[i]
		want.Resident = false // restored jobs queue until the next boundary
		got.Resident = false
		if want != got {
			t.Errorf("tenant %d round-trip mismatch:\n  before: %+v\n  after:  %+v", i, snap[i], restored[i])
		}
	}
}
