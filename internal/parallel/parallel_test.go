package parallel

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapPreservesOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		r := New(workers)
		const n = 64
		out, err := Map(r, n, func(i int) (int, error) {
			// Finish out of order: later tasks sleep less.
			time.Sleep(time.Duration(n-i) * 10 * time.Microsecond)
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(out) != n {
			t.Fatalf("workers=%d: got %d results, want %d", workers, len(out), n)
		}
		for i, v := range out {
			if v != i*i {
				t.Errorf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestFirstErrorWinsDeterministically(t *testing.T) {
	boom7 := errors.New("boom 7")
	boom3 := errors.New("boom 3")
	for _, workers := range []int{1, 2, 8} {
		r := New(workers)
		// Task 7 fails fast, task 3 fails slow: the reported error must be
		// the lowest-index failure (3), not the temporally first (7).
		_, err := Map(r, 16, func(i int) (int, error) {
			switch i {
			case 7:
				return 0, boom7
			case 3:
				time.Sleep(5 * time.Millisecond)
				return 0, boom3
			}
			time.Sleep(time.Millisecond)
			return i, nil
		})
		if err == nil {
			t.Fatalf("workers=%d: expected error", workers)
		}
		if !errors.Is(err, boom3) {
			t.Errorf("workers=%d: got %v, want lowest-index error %v", workers, err, boom3)
		}
		var te *TaskError
		if !errors.As(err, &te) || te.Index != 3 {
			t.Errorf("workers=%d: error %v does not name task 3", workers, err)
		}
	}
}

func TestRemainingTasksDrainedAfterError(t *testing.T) {
	r := New(4)
	var started atomic.Int64
	err := r.ForEach(32, func(i int) error {
		started.Add(1)
		if i == 0 {
			return errors.New("early failure")
		}
		time.Sleep(time.Millisecond)
		return nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	// The pool must not deadlock and must fully drain: every task runs even
	// after a failure, so the executed set never depends on timing.
	if got := started.Load(); got != 32 {
		t.Errorf("started %d tasks, want all 32 drained", got)
	}
}

func TestPanicBecomesError(t *testing.T) {
	for _, workers := range []int{1, 3} {
		r := New(workers)
		_, err := Map(r, 8, func(i int) (int, error) {
			if i == 2 {
				panic(fmt.Sprintf("kaboom at %d", i))
			}
			return i, nil
		})
		if err == nil {
			t.Fatalf("workers=%d: want error from panic", workers)
		}
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: got %T (%v), want *PanicError", workers, err, err)
		}
		if pe.Index != 2 {
			t.Errorf("workers=%d: panic index = %d, want 2", workers, pe.Index)
		}
		if len(pe.Stack) == 0 {
			t.Errorf("workers=%d: panic error carries no stack", workers)
		}
	}
}

func TestWorkerCountResolution(t *testing.T) {
	if got := New(0).WorkerCount(100); got < 1 {
		t.Errorf("GOMAXPROCS-sized pool resolved to %d", got)
	}
	if got := New(8).WorkerCount(3); got != 3 {
		t.Errorf("worker count not clamped to task count: %d", got)
	}
	if got := New(2).WorkerCount(100); got != 2 {
		t.Errorf("worker count = %d, want 2", got)
	}
	var nilRunner *Runner
	if got := nilRunner.WorkerCount(4); got < 1 {
		t.Errorf("nil runner resolved to %d workers", got)
	}
}

func TestWithoutFailFastEverythingRuns(t *testing.T) {
	r := New(4)
	boom := errors.New("boom")
	var ran atomic.Int64
	err := r.ForEach(64, func(i int) error {
		ran.Add(1)
		if i == 0 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if got := ran.Load(); got != 64 {
		t.Errorf("ran %d tasks, want all 64 (the pool always drains fully)", got)
	}
}

func TestPanicErrorCarriesIndexAndStack(t *testing.T) {
	r := New(1)
	err := r.ForEach(3, func(i int) error {
		if i == 1 {
			panic(fmt.Sprintf("kaboom-%d", i))
		}
		return nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Index != 1 {
		t.Errorf("panic index = %d, want 1", pe.Index)
	}
	msg := pe.Error()
	if !strings.Contains(msg, "kaboom-1") {
		t.Errorf("error %q does not carry the panic value", msg)
	}
	// The stack must point at the panicking function, not just the pool.
	if !strings.Contains(msg, "TestPanicErrorCarriesIndexAndStack") {
		t.Errorf("error does not carry a useful stack:\n%s", msg)
	}
}

func TestZeroTasks(t *testing.T) {
	r := New(4)
	if err := r.ForEach(0, func(int) error { return errors.New("never") }); err != nil {
		t.Errorf("zero tasks returned %v", err)
	}
	out, err := Map(r, 0, func(int) (int, error) { return 0, nil })
	if err != nil || len(out) != 0 {
		t.Errorf("zero-task Map = (%v, %v)", out, err)
	}
}
