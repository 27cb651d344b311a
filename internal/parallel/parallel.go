// Package parallel is the deterministic fan-out harness for independent
// simulations. Every figure of the evaluation is a sweep of dozens of
// independent GPU runs; this package executes such sweeps on a bounded
// worker pool while guaranteeing that the observable output is byte-
// identical to a serial run.
//
// # Determinism contract
//
//   - Results are collected into an index-ordered slice: task i's result is
//     always at position i, regardless of completion order.
//   - Each task must own its mutable state (one goroutine == one GPU
//     instance) and derive any randomness from an explicit per-task seed.
//     Under that ownership rule, running with any worker count — including
//     1 — produces identical results.
//   - Errors are deterministic too: every task runs to completion (the
//     pool is fully drained — a failure never causes later tasks to be
//     skipped, which would make the set of executed tasks timing-
//     dependent), and the error reported is the one from the
//     lowest-indexed failed task — not the temporally first one, which
//     would vary run to run.
//   - A panicking task is converted into an error carrying the panic value
//     and stack, so one bad simulation cannot tear down a whole sweep.
//
// # Sizing
//
// A Runner with Workers <= 0 sizes itself to runtime.GOMAXPROCS(0).
// Simulation tasks are CPU-bound, so more workers than cores only adds
// scheduling noise.
package parallel

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
)

// Runner is a bounded worker pool for index-ordered task fan-out. The zero
// value is usable and sizes itself to GOMAXPROCS.
type Runner struct {
	// Workers is the maximum number of concurrently running tasks.
	// Values <= 0 mean runtime.GOMAXPROCS(0).
	Workers int
}

// New returns a Runner with the given worker bound (<= 0 = GOMAXPROCS).
func New(workers int) *Runner { return &Runner{Workers: workers} }

// WorkerCount resolves the effective worker count for n tasks.
func (r *Runner) WorkerCount(n int) int {
	w := 0
	if r != nil {
		w = r.Workers
	}
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// PanicError is a recovered task panic converted into an error.
type PanicError struct {
	Index int    // task index that panicked
	Value any    // the recovered panic value
	Stack []byte // stack trace captured at recovery
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("parallel: task %d panicked: %v\n%s", e.Index, e.Value, e.Stack)
}

// TaskError wraps a task's error with its index, so sweep failures name the
// offending point.
type TaskError struct {
	Index int
	Err   error
}

func (e *TaskError) Error() string {
	return fmt.Sprintf("parallel: task %d: %v", e.Index, e.Err)
}

// Unwrap exposes the underlying task error to errors.Is/As.
func (e *TaskError) Unwrap() error { return e.Err }

// ForEach runs task(i) for every i in [0, n) on the pool and returns the
// deterministic first error (lowest failing index). Every task runs, even
// after a failure, and a panicking task becomes a *PanicError.
func (r *Runner) ForEach(n int, task func(i int) error) error {
	if n <= 0 {
		return nil
	}
	errs := make([]error, n)
	if workers := r.WorkerCount(n); workers == 1 {
		// Serial fast path: no goroutines, identical semantics.
		for i := range errs {
			errs[i] = protect(i, task)
		}
	} else {
		var wg sync.WaitGroup
		next := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					errs[i] = protect(i, task)
				}
			}()
		}
		for i := range errs {
			next <- i
		}
		close(next)
		wg.Wait()
	}
	for i, err := range errs {
		if err == nil {
			continue
		}
		if _, isPanic := err.(*PanicError); isPanic {
			return err
		}
		return &TaskError{Index: i, Err: err}
	}
	return nil
}

// protect runs task(i), converting panics to *PanicError.
func protect(i int, task func(int) error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Index: i, Value: v, Stack: debug.Stack()}
		}
	}()
	return task(i)
}

// Map fans n tasks out over the runner and returns their results in index
// order. On error the partial results slice is still returned (entries for
// failed tasks are zero values).
func Map[T any](r *Runner, n int, task func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := r.ForEach(n, func(i int) error {
		v, err := task(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	return out, err
}
