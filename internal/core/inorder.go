package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// A worker runs tasks of one inOrder call, one at a time, on one goroutine.
type worker[T any] interface {
	// task returns task i's result. Its ctx is cancelled once the call
	// stops early, and the result of a task so cut short is dropped.
	task(ctx context.Context, i int) T
	// end is called once the worker has run its last task.
	end()
}

// inOrder runs tasks 0…n-1 on up to workers goroutines (workers <= 0
// means GOMAXPROCS) and hands each result to commit on the calling
// goroutine, strictly in index order, until commit reports stop, ctx is
// done or every task has been committed; it returns once every worker
// has ended. So what is committed is what one worker running the tasks
// in order would commit, whatever workers is: that is how a run's trials
// and a sweep's points give the same bits on any number of workers.
//
// Each worker comes from begin, called on the calling goroutine, and
// claims the lowest task not yet claimed. Once the call stops early, the
// ctx the tasks in flight were given is cancelled, so they end early,
// and their results are dropped. One worker runs on the calling
// goroutine, each task committed as soon as it has run: no goroutine, no
// channel, nothing to reorder.
func inOrder[T any](ctx context.Context, n, workers int, begin func() worker[T], commit func(i int, v T) (stop bool)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	if workers == 1 {
		w := begin()
		for i := 0; i < n && ctx.Err() == nil; i++ {
			if v := w.task(ctx, i); ctx.Err() != nil || commit(i, v) {
				break
			}
		}
		w.end()
		return
	}

	run, cancel := context.WithCancel(ctx)
	type result struct {
		i int
		v T
	}
	// One slot per worker: a finished task is handed over while the
	// committer is busy with an earlier one.
	results := make(chan result, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for range workers {
		w := begin()
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer w.end()
			for {
				i := int(next.Add(1) - 1)
				if i >= n || run.Err() != nil {
					return
				}
				v := w.task(run, i)
				select {
				case results <- result{i, v}:
				case <-run.Done():
					return
				}
			}
		}()
	}
	reorder := make(map[int]T)
	for i := 0; i < n && run.Err() == nil; {
		select {
		case res := <-results:
			reorder[res.i] = res.v
		case <-run.Done():
		}
		for v, ok := reorder[i]; ok && run.Err() == nil; v, ok = reorder[i] {
			delete(reorder, i)
			if commit(i, v) {
				cancel()
			}
			i++
		}
	}
	cancel()
	wg.Wait()
}
