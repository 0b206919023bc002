package checker

import (
	"sync"
	"sync/atomic"
)

// This file holds the run-sharing helpers of the engines: the shared
// execution budget, the worker pool and the block-order Result merge
// that FastMode's sharded run loop uses (every run already owns a
// private System, so only the merge matters). DFS mode runs on the
// work-stealing engine (worksteal.go) at any Parallelism.

// bounds is the shared execution budget and cancellation state of an
// exploration's workers.
type bounds struct {
	// done is set by cancel (StopAtFirst).
	done atomic.Bool
	// max bounds total executions (0 = unlimited); executed counts
	// reservations made so far and never exceeds max.
	max      int64
	executed atomic.Int64
}

func newBounds(maxExecutions, already int) *bounds {
	b := &bounds{max: int64(maxExecutions)}
	b.executed.Store(int64(already))
	return b
}

// cancel stops every later tryStart.
func (b *bounds) cancel() { b.done.Store(true) }

// tryStart reserves budget for one execution. Reserving before running
// makes the total number of executions across all workers exactly equal
// the bound: the CAS loop never pushes the counter past max, so a
// cancelled exploration cannot overshoot MaxExecutions — each worker
// finishes at most the one execution it had already reserved before the
// cancellation landed (an overshoot of executions-in-flight, bounded by
// the worker count, never of the counter).
func (b *bounds) tryStart() bool {
	if b.done.Load() {
		return false
	}
	if b.max <= 0 {
		return true
	}
	for {
		cur := b.executed.Load()
		if cur >= b.max {
			return false
		}
		if b.executed.CompareAndSwap(cur, cur+1) {
			return true
		}
	}
}

// stopped reports whether the exploration was cancelled.
func (b *bounds) stopped() bool { return b.done.Load() }

// runPool runs tasks 0..tasks-1 on at most workers goroutines and waits
// for all of them. workers is clamped to [1, tasks]; zero tasks is a
// no-op.
func runPool(workers, tasks int, run func(task int)) {
	if tasks <= 0 {
		return
	}
	if workers > tasks {
		workers = tasks
	}
	if workers < 1 {
		workers = 1
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				t := int(next.Add(1)) - 1
				if t >= tasks {
					return
				}
				run(t)
			}
		}()
	}
	wg.Wait()
}

// mergeInto folds the per-task results into res in task order, offsetting
// each failure's Execution index by the number of executions that earlier
// tasks contributed. Each task retains up to maxFailures failures of its
// own, so the ordered concatenation always contains every failure a
// sequential run would have retained (sequential keeps the first
// maxFailures in this exact order); the final cap then drops precisely
// the surplus, never a failure the sequential run kept. Used by the
// fast-mode merge; DFS folds through foldList instead.
func mergeInto(res *Result, locals []*Result, maxFailures int) {
	for _, local := range locals {
		if local == nil {
			continue
		}
		mergeResults(res, local, maxFailures)
	}
}
