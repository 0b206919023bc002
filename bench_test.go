// Benchmarks regenerating every table and figure of the paper's
// evaluation (§6), plus ablations for the design choices DESIGN.md calls
// out. Run with:
//
//	go test -bench=. -benchmem
//
// Each Figure 7 benchmark measures one full exhaustive exploration of the
// corresponding unit test (the paper's "Total Time" column); each
// Figure 8 benchmark measures one full injection sweep.
package main

import (
	"testing"
	"time"

	"repro/internal/checker"
	"repro/internal/checker/model"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/memmodel"
	"repro/internal/structures/blockingqueue"
	"repro/internal/structures/chaselev"
)

// benchFig7 runs one benchmark's exhaustive exploration per iteration.
func benchFig7(b *testing.B, name string) {
	bm := harness.BenchmarkByName(name)
	if bm == nil {
		b.Fatalf("unknown benchmark %q", name)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		row := bm.RunFig7(harness.Options{Workers: 1})
		if row.Feasible == 0 {
			b.Fatalf("no feasible executions for %s", name)
		}
		b.ReportMetric(float64(row.Executions), "executions")
		b.ReportMetric(float64(row.Feasible), "feasible")
	}
}

func BenchmarkFigure7ChaseLevDeque(b *testing.B)     { benchFig7(b, "Chase-Lev Deque") }
func BenchmarkFigure7SPSCQueue(b *testing.B)         { benchFig7(b, "SPSC Queue") }
func BenchmarkFigure7RCU(b *testing.B)               { benchFig7(b, "RCU") }
func BenchmarkFigure7LockfreeHashtable(b *testing.B) { benchFig7(b, "Lockfree Hashtable") }
func BenchmarkFigure7MCSLock(b *testing.B)           { benchFig7(b, "MCS Lock") }
func BenchmarkFigure7MPMCQueue(b *testing.B)         { benchFig7(b, "MPMC Queue") }
func BenchmarkFigure7MSQueue(b *testing.B)           { benchFig7(b, "M&S Queue") }
func BenchmarkFigure7LinuxRWLock(b *testing.B)       { benchFig7(b, "Linux RW Lock") }
func BenchmarkFigure7Seqlock(b *testing.B)           { benchFig7(b, "Seqlock") }
func BenchmarkFigure7TicketLock(b *testing.B)        { benchFig7(b, "Ticket Lock") }

// benchFig8 runs one benchmark's full injection sweep per iteration.
func benchFig8(b *testing.B, name string) {
	bm := harness.BenchmarkByName(name)
	if bm == nil {
		b.Fatalf("unknown benchmark %q", name)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		row := bm.RunFig8(harness.Options{Workers: 1})
		b.ReportMetric(float64(row.Injections), "injections")
		b.ReportMetric(float64(row.Detected), "detected")
	}
}

// BenchmarkParallelSpeedup contrasts a sequential Figure 8 sweep with a
// 4-worker one over a fixed set of benchmarks, reporting the wall-clock
// speedup (on a >= 4-core machine the target is >= 2x).
func BenchmarkParallelSpeedup(b *testing.B) {
	names := []string{"M&S Queue", "SPSC Queue", "Ticket Lock", "Linux RW Lock"}
	sweep := func(workers int) time.Duration {
		start := time.Now()
		for _, n := range names {
			bm := harness.BenchmarkByName(n)
			if bm == nil {
				b.Fatalf("unknown benchmark %q", n)
			}
			bm.RunFig8(harness.Options{Workers: workers})
		}
		return time.Since(start)
	}
	for i := 0; i < b.N; i++ {
		seq := sweep(1)
		par := sweep(4)
		b.ReportMetric(seq.Seconds(), "seq-s")
		b.ReportMetric(par.Seconds(), "par-s")
		b.ReportMetric(seq.Seconds()/par.Seconds(), "speedup-x")
	}
}

func BenchmarkFigure8ChaseLevDeque(b *testing.B)     { benchFig8(b, "Chase-Lev Deque") }
func BenchmarkFigure8SPSCQueue(b *testing.B)         { benchFig8(b, "SPSC Queue") }
func BenchmarkFigure8RCU(b *testing.B)               { benchFig8(b, "RCU") }
func BenchmarkFigure8LockfreeHashtable(b *testing.B) { benchFig8(b, "Lockfree Hashtable") }
func BenchmarkFigure8MCSLock(b *testing.B)           { benchFig8(b, "MCS Lock") }
func BenchmarkFigure8MPMCQueue(b *testing.B)         { benchFig8(b, "MPMC Queue") }
func BenchmarkFigure8MSQueue(b *testing.B)           { benchFig8(b, "M&S Queue") }
func BenchmarkFigure8LinuxRWLock(b *testing.B)       { benchFig8(b, "Linux RW Lock") }
func BenchmarkFigure8Seqlock(b *testing.B)           { benchFig8(b, "Seqlock") }
func BenchmarkFigure8TicketLock(b *testing.B)        { benchFig8(b, "Ticket Lock") }

// BenchmarkKnownBugs measures the §6.4.1 experiment (three known bugs).
func BenchmarkKnownBugs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rs := harness.RunKnownBugs()
		for _, r := range rs {
			if !r.Detected {
				b.Fatalf("known bug not detected: %s", r.Name)
			}
		}
	}
}

// BenchmarkOverlyStrong measures the §6.4.3 experiment.
func BenchmarkOverlyStrong(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := harness.RunOverlyStrong()
		if r.Violations != 0 {
			b.Fatalf("unexpected violations: %d", r.Violations)
		}
	}
}

// --- Ablations (DESIGN.md §6) -------------------------------------------

// queueWorkload is the shared workload for the ablation benchmarks.
func queueWorkload(ord *memmodel.OrderTable) func(*checker.Thread) {
	return func(root *checker.Thread) {
		q := blockingqueue.New(root, "q", ord)
		a := root.Spawn("a", func(tt *checker.Thread) {
			q.Enq(tt, 1)
			q.Enq(tt, 2)
		})
		b := root.Spawn("b", func(tt *checker.Thread) {
			q.Deq(tt)
			q.Deq(tt)
		})
		root.Join(a)
		root.Join(b)
	}
}

// BenchmarkAblationHistoryCapFull checks every sequential history per
// execution (the paper's default).
func BenchmarkAblationHistoryCapFull(b *testing.B) {
	spec := blockingqueue.Spec("q")
	spec.MaxHistories = -1
	for i := 0; i < b.N; i++ {
		res := core.Explore(spec, checker.Config{}, queueWorkload(nil))
		if res.FailureCount != 0 {
			b.Fatal("unexpected failure")
		}
	}
}

// BenchmarkAblationHistoryCapOne checks only the first history per
// execution (the paper's "user-customized number of sequential
// histories" option at its cheapest setting).
func BenchmarkAblationHistoryCapOne(b *testing.B) {
	spec := blockingqueue.Spec("q")
	spec.MaxHistories = 1
	for i := 0; i < b.N; i++ {
		res := core.Explore(spec, checker.Config{}, queueWorkload(nil))
		if res.FailureCount != 0 {
			b.Fatal("unexpected failure")
		}
	}
}

// BenchmarkAblationRFBranchingOn explores stale reads (full C/C++11
// visibility) on the Chase-Lev known-bug configuration in the paper's
// silenced-uninit mode (buffers pre-zeroed, lifetime check off), where
// the bug manifests as a wrong-item specification violation.
func BenchmarkAblationRFBranchingOn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := core.Explore(chaselev.Spec("d"),
			checker.Config{StopAtFirst: true, DisableLifetimeCheck: true},
			chaselevKnownBugWorkload())
		if res.FailureCount == 0 {
			b.Fatal("known bug should be detected with stale reads on")
		}
	}
}

// BenchmarkAblationRFBranchingOff explores only SC executions (the sc
// model) under the same configuration: every load returns the newest
// value, so the wrong-item violation can never manifest — the ablation
// showing why a weak-memory checker needs reads-from branching.
func BenchmarkAblationRFBranchingOff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := core.Explore(chaselev.Spec("d"),
			checker.Config{StopAtFirst: true, Model: model.SC, DisableLifetimeCheck: true},
			chaselevKnownBugWorkload())
		if res.FailureCount != 0 {
			b.Fatalf("SC-only exploration should miss the weak-memory bug, got %v", res.FirstFailure())
		}
	}
}

func chaselevKnownBugWorkload() func(*checker.Thread) {
	return func(root *checker.Thread) {
		d := chaselev.New(root, "d", chaselev.KnownBugOrders(), 2, chaselev.WithInitializedCells())
		owner := root.Spawn("owner", func(tt *checker.Thread) {
			d.Push(tt, 1)
			d.Push(tt, 2)
			d.Push(tt, 3)
			d.Take(tt)
			d.Take(tt)
		})
		thief := root.Spawn("thief", func(tt *checker.Thread) {
			d.Steal(tt)
			d.Steal(tt)
		})
		root.Join(owner)
		root.Join(thief)
	}
}

// BenchmarkCheckerThroughput measures raw executions per second of the
// substrate on a small program (the scheduling/replay overhead floor).
func BenchmarkCheckerThroughput(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := checker.Explore(checker.Config{}, func(root *checker.Thread) {
			x := root.NewAtomicInit("x", 0)
			a := root.Spawn("a", func(tt *checker.Thread) { x.Store(tt, memmodel.Release, 1) })
			c := root.Spawn("b", func(tt *checker.Thread) { _ = x.Load(tt, memmodel.Acquire) })
			root.Join(a)
			root.Join(c)
		})
		b.ReportMetric(float64(res.Executions), "executions")
	}
}
