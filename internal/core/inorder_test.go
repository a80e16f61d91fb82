package core

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// countingWorker runs inOrder tasks for TestInOrder: task i returns i
// after a short delay that varies with i, so tasks finish out of order. A
// task past last blocks until its ctx is done and counts whether it was.
type countingWorker struct {
	last                                    int
	ended, inFlight, cancelled, uncancelled *atomic.Int64
}

func (w *countingWorker) task(ctx context.Context, i int) int {
	w.inFlight.Add(1)
	defer w.inFlight.Add(-1)
	if i > w.last {
		select {
		case <-ctx.Done():
			w.cancelled.Add(1)
		case <-time.After(10 * time.Second):
			w.uncancelled.Add(1)
		}
		return i
	}
	time.Sleep(time.Duration(i*7919%5) * 50 * time.Microsecond)
	return i
}

func (w *countingWorker) end() { w.ended.Add(1) }

// TestInOrder: on any number of workers, inOrder commits tasks 0, 1, …
// in order and none after it stops, whether it runs to the end, a commit
// says stop or ctx is cancelled at a commit. Every worker begun is
// ended, a task in flight at the stop sees its ctx cancelled, and no task
// and no goroutine is left once inOrder returns.
func TestInOrder(t *testing.T) {
	var cut atomic.Int64 // tasks that saw a stop on more than one worker
	for _, workers := range []int{1, 2, 4, 8} {
		for _, n := range []int{0, 1, 7, 64} {
			for _, mode := range []string{"end", "stop", "cancel"} {
				t.Run(fmt.Sprintf("workers=%d/n=%d/%s", workers, n, mode), func(t *testing.T) {
					before := runtime.NumGoroutine()
					last := n - 1 // the last commit
					if mode != "end" {
						last = n / 2
					}
					var begun, ended, inFlight, cancelled, uncancelled atomic.Int64
					ctx, cancel := context.WithCancel(context.Background())
					defer cancel()
					var commits []int
					inOrder(ctx, n, workers, func() worker[int] {
						begun.Add(1)
						return &countingWorker{last: last, ended: &ended, inFlight: &inFlight, cancelled: &cancelled, uncancelled: &uncancelled}
					}, func(i, v int) bool {
						if i != len(commits) || v != i {
							t.Errorf("commit %d carries task %d's result %d", len(commits), i, v)
						}
						commits = append(commits, i)
						if i == last && mode == "cancel" {
							cancel()
						}
						return i == last && mode == "stop"
					})
					if want := max(0, min(n, last+1)); len(commits) != want {
						t.Errorf("%d commits, want %d", len(commits), want)
					}
					if b, want := begun.Load(), int64(min(workers, n)); b != want || ended.Load() != b {
						t.Errorf("%d workers begun, %d ended; want %d of each", b, ended.Load(), want)
					}
					if inFlight.Load() != 0 {
						t.Errorf("%d tasks still running after inOrder returned", inFlight.Load())
					}
					if uncancelled.Load() != 0 {
						t.Errorf("%d tasks in flight at the stop never saw their ctx cancelled", uncancelled.Load())
					}
					if workers == 1 && cancelled.Load() != 0 {
						t.Errorf("one worker ran %d tasks past the stop", cancelled.Load())
					}
					cut.Add(cancelled.Load())
					for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; {
						if time.Now().After(deadline) {
							t.Fatalf("%d goroutines before inOrder, %d after", before, runtime.NumGoroutine())
						}
						time.Sleep(time.Millisecond)
					}
				})
			}
		}
	}
	if cut.Load() == 0 {
		t.Error("no task was in flight at any stop: the check that a stop cancels them saw nothing")
	}
}
