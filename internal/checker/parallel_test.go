package checker

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"repro/internal/memmodel"
)

// --- Fence dependence (sleep-set soundness) --------------------------

// TestFenceDependence pins the dependency relation for fences. wake()
// calls dependent(sleeper, executed): a thread sleeping at a fence must
// be woken by every other fence and every seq_cst memory operation (the
// operations a fence observes across threads), so it can never be
// starved by the sleep set. The old relation classified sigFence as
// independent of everything except an sc×sc pair, so these assertions
// fail against it.
func TestFenceDependence(t *testing.T) {
	fence := pendSig{class: sigFence, loc: -1}
	scFence := pendSig{class: sigFence, loc: -1, sc: true}
	mem := pendSig{class: sigMem, loc: 0, write: true}
	scMem := pendSig{class: sigMem, loc: 0, write: true, sc: true}
	mutex := pendSig{class: sigMutex, loc: 0}

	if !dependent(fence, scMem) {
		t.Error("a fence-pending sleeper must be woken by seq_cst memory operations")
	}
	if !dependent(fence, fence) || !dependent(fence, scFence) || !dependent(scFence, fence) {
		t.Error("a fence-pending sleeper must be woken by other fences")
	}
	if !dependent(scMem, scFence) || !dependent(scFence, scMem) {
		t.Error("sc×sc must stay dependent")
	}
	if dependent(fence, mutex) {
		t.Error("fence commutes with pure mutex transitions")
	}
	// The precise directions: a fence's release/acquire effects are
	// local to its own thread and reach other threads only through that
	// thread's stores and loads, which mem×mem dependence already
	// re-interleaves.
	if dependent(fence, mem) {
		t.Error("a fence-pending sleeper need not wake for non-SC memory operations")
	}
	if dependent(mem, fence) {
		t.Error("an executed plain fence need not wake a memory sleeper")
	}
}

// fenceMPOutcomes explores the fence-synchronized message-passing litmus
// (store x; release fence; store flag ∥ load flag; acquire fence; load x)
// and returns its outcome set.
func fenceMPOutcomes(t *testing.T, disableSleep bool) map[string]int {
	t.Helper()
	var mu sync.Mutex
	outcomes := map[string]int{}
	cfg := Config{
		disableSleepSet: disableSleep,
	}
	res := Explore(cfg, func(root *Thread) {
		x := root.NewAtomicInit("x", 0)
		flag := root.NewAtomicInit("flag", 0)
		w := root.Spawn("writer", func(tt *Thread) {
			x.Store(tt, memmodel.Relaxed, 42)
			Fence(tt, memmodel.Release)
			flag.Store(tt, memmodel.Relaxed, 1)
		})
		r := root.Spawn("reader", func(tt *Thread) {
			f := flag.Load(tt, memmodel.Relaxed)
			Fence(tt, memmodel.Acquire)
			v := x.Load(tt, memmodel.Relaxed)
			mu.Lock()
			outcomes[fmt.Sprintf("f=%d v=%d", f, v)]++
			mu.Unlock()
		})
		root.Join(w)
		root.Join(r)
	})
	if !res.Exhausted {
		t.Fatalf("exploration not exhausted: %v", res)
	}
	if res.FailureCount != 0 {
		t.Fatalf("unexpected failures: %v", res)
	}
	return outcomes
}

// TestFenceSleepSetSoundness compares the outcome set of the fence MP
// litmus with the sleep-set reduction on vs off: the reduction may dedupe
// equivalent interleavings but must not lose outcomes.
func TestFenceSleepSetSoundness(t *testing.T) {
	keys := func(m map[string]int) []string {
		var ks []string
		for k := range m {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		return ks
	}
	reduced := keys(fenceMPOutcomes(t, false))
	full := keys(fenceMPOutcomes(t, true))
	if fmt.Sprint(reduced) != fmt.Sprint(full) {
		t.Errorf("sleep set changed the outcome set:\n  reduced: %v\n  full:    %v", reduced, full)
	}
	for _, o := range reduced {
		if o == "f=1 v=0" {
			t.Errorf("fence synchronization violated: saw %q", o)
		}
	}
	if !contains2(reduced, "f=1 v=42") || !contains2(reduced, "f=0 v=0") {
		t.Errorf("expected both f=1 v=42 and f=0 v=0 outcomes: %v", reduced)
	}
}

func contains2(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// TestSCFenceSleepSetSoundness runs store buffering with seq_cst fences
// (the classic Dekker pattern: the fences forbid r0=r1=0) with the
// reduction on vs off, checking outcome-set equality and the forbidden
// outcome's absence. This exercises the fence×SC and fence×fence wake
// rules end to end.
func TestSCFenceSleepSetSoundness(t *testing.T) {
	run := func(disableSleep bool) []string {
		var mu sync.Mutex
		outcomes := map[string]bool{}
		res := Explore(Config{disableSleepSet: disableSleep}, func(root *Thread) {
			x := root.NewAtomicInit("x", 0)
			y := root.NewAtomicInit("y", 0)
			var r0, r1 int64
			a := root.Spawn("a", func(tt *Thread) {
				x.Store(tt, memmodel.Relaxed, 1)
				Fence(tt, memmodel.SeqCst)
				r0 = int64(y.Load(tt, memmodel.Relaxed))
			})
			b := root.Spawn("b", func(tt *Thread) {
				y.Store(tt, memmodel.Relaxed, 1)
				Fence(tt, memmodel.SeqCst)
				r1 = int64(x.Load(tt, memmodel.Relaxed))
			})
			root.Join(a)
			root.Join(b)
			mu.Lock()
			outcomes[fmt.Sprintf("r0=%d r1=%d", r0, r1)] = true
			mu.Unlock()
		})
		if !res.Exhausted {
			t.Fatalf("exploration not exhausted: %v", res)
		}
		var ks []string
		for k := range outcomes {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		return ks
	}
	reduced := run(false)
	full := run(true)
	if fmt.Sprint(reduced) != fmt.Sprint(full) {
		t.Errorf("sleep set changed the outcome set:\n  reduced: %v\n  full:    %v", reduced, full)
	}
	if contains2(reduced, "r0=0 r1=0") {
		t.Errorf("seq_cst fences must forbid r0=r1=0: %v", reduced)
	}
	if !contains2(reduced, "r0=1 r1=1") || !contains2(reduced, "r0=0 r1=1") || !contains2(reduced, "r0=1 r1=0") {
		t.Errorf("missing an allowed outcome: %v", reduced)
	}
}

// --- MaxExecutions ----------------------------------------------------

func manyExecProgram(root *Thread) {
	x := root.NewAtomicInit("x", 0)
	y := root.NewAtomicInit("y", 0)
	a := root.Spawn("a", func(tt *Thread) {
		x.Store(tt, memmodel.Relaxed, 1)
		_ = y.Load(tt, memmodel.Relaxed)
	})
	b := root.Spawn("b", func(tt *Thread) {
		y.Store(tt, memmodel.Relaxed, 1)
		_ = x.Load(tt, memmodel.Relaxed)
	})
	root.Join(a)
	root.Join(b)
}

// TestDFSHonorsMaxExecutions: DFS stops exactly at the bound, sequential
// and parallel alike.
func TestDFSHonorsMaxExecutions(t *testing.T) {
	full := Explore(Config{}, manyExecProgram)
	if full.Executions <= 5 {
		t.Fatalf("program too small for the bound test: %v", full)
	}
	for _, par := range []int{1, 4} {
		res := Explore(Config{MaxExecutions: 5, Parallelism: par}, manyExecProgram)
		if res.Executions != 5 {
			t.Errorf("parallelism %d: ran %d executions, want 5", par, res.Executions)
		}
		if res.Exhausted {
			t.Errorf("parallelism %d: bounded run must not report Exhausted", par)
		}
	}
}

// --- Deadlock vs livelock classification ------------------------------

// TestDeadlockWithFairSpinner: a lock-cycle deadlock must be reported as
// a deadlock even when an unrelated fair spinner is stuck alongside it.
// The old classifier reported livelock whenever any fair spinner existed.
func TestDeadlockWithFairSpinner(t *testing.T) {
	res := Explore(Config{MaxFailures: 1 << 20}, func(root *Thread) {
		m1 := root.NewMutex("m1")
		m2 := root.NewMutex("m2")
		x := root.NewAtomicInit("x", 0)
		a := root.Spawn("a", func(tt *Thread) {
			m1.Lock(tt)
			m2.Lock(tt)
			m2.Unlock(tt)
			m1.Unlock(tt)
		})
		b := root.Spawn("b", func(tt *Thread) {
			m2.Lock(tt)
			m1.Lock(tt)
			m1.Unlock(tt)
			m2.Unlock(tt)
		})
		sp := root.Spawn("spin", func(tt *Thread) {
			for x.Load(tt, memmodel.Acquire) == 0 {
				tt.Yield()
			}
		})
		root.Join(a)
		root.Join(b)
		root.Join(sp)
	})
	if !res.HasKind(FailDeadlock) {
		t.Errorf("expected a deadlock report despite the fair spinner: %v", res)
	}
}

// TestLivelockWithJoiningParent: a parent joining a livelocked spinner is
// a casualty of the livelock, not an independent deadlock.
func TestLivelockWithJoiningParent(t *testing.T) {
	res := Explore(Config{}, func(root *Thread) {
		x := root.NewAtomicInit("x", 0)
		a := root.Spawn("a", func(tt *Thread) {
			for x.Load(tt, memmodel.Acquire) == 0 {
				tt.Yield()
			}
		})
		root.Join(a)
	})
	if !res.HasKind(FailLivelock) || res.HasKind(FailDeadlock) {
		t.Errorf("expected livelock only: %v", res)
	}
}

// --- Parallel determinism ---------------------------------------------

// compareParallel runs prog exhaustively with Parallelism 1 and n and
// requires identical Executions/Feasible/Pruned/Exhausted, identical
// retained failures (kind and execution index), and bit-identical Stats —
// with only the wall-clock fields (Elapsed and the Stats timing split)
// exempt from identity, since parallel workers accumulate those
// concurrently.
func compareParallel(t *testing.T, name string, n int, cfg Config, prog func(*Thread)) {
	t.Helper()
	seq := Explore(cfg, prog)
	pcfg := cfg
	pcfg.Parallelism = n
	par := Explore(pcfg, prog)
	if seq.Executions != par.Executions || seq.Feasible != par.Feasible ||
		seq.Pruned != par.Pruned || seq.Exhausted != par.Exhausted {
		t.Errorf("%s: counts differ: sequential %v, parallel(%d) %v", name, seq, n, par)
	}
	if seq.Stats.WithoutTimings() != par.Stats.WithoutTimings() {
		t.Errorf("%s: stats differ:\n  sequential: %+v\n  parallel(%d): %+v",
			name, seq.Stats.WithoutTimings(), n, par.Stats.WithoutTimings())
	}
	for _, r := range []*Result{seq, par} {
		if got := r.Stats.PrunedSleepSet + r.Stats.PrunedFairness + r.Stats.PrunedStepBound; got != r.Pruned {
			t.Errorf("%s: prune-reason split %d does not sum to Pruned %d", name, got, r.Pruned)
		}
	}
	// The timing exemption: both runs still measure real wall clock.
	if seq.Elapsed <= 0 || par.Elapsed <= 0 || seq.Stats.ExploreTime <= 0 || par.Stats.ExploreTime <= 0 {
		t.Errorf("%s: timing fields should be positive: seq %v/%v, par %v/%v",
			name, seq.Elapsed, seq.Stats.ExploreTime, par.Elapsed, par.Stats.ExploreTime)
	}
	if seq.FailureCount != par.FailureCount || len(seq.Failures) != len(par.Failures) {
		t.Errorf("%s: failure counts differ: sequential %v, parallel(%d) %v", name, seq, n, par)
		return
	}
	for i := range seq.Failures {
		sf, pf := seq.Failures[i], par.Failures[i]
		if sf.Kind != pf.Kind || sf.Execution != pf.Execution {
			t.Errorf("%s: failure %d differs: sequential %v@%d, parallel %v@%d",
				name, i, sf.Kind, sf.Execution, pf.Kind, pf.Execution)
		}
	}
}

func TestParallelDFSDeterminism(t *testing.T) {
	// Store buffering: pure scheduling + reads-from nondeterminism, no
	// failures.
	compareParallel(t, "store-buffering", 4, Config{}, manyExecProgram)

	// Message passing with a racy plain payload: data-race failures must
	// appear at identical execution indices.
	compareParallel(t, "mp-race", 4, Config{}, func(root *Thread) {
		x := root.NewPlainInit("x", 0)
		flag := root.NewAtomicInit("flag", 0)
		w := root.Spawn("writer", func(tt *Thread) {
			x.Store(tt, 42)
			flag.Store(tt, memmodel.Relaxed, 1)
		})
		r := root.Spawn("reader", func(tt *Thread) {
			if flag.Load(tt, memmodel.Relaxed) == 1 {
				_ = x.Load(tt)
			}
		})
		root.Join(w)
		root.Join(r)
	})

	// Fence-synchronized MP with seq_cst stores mixed in: exercises the
	// fence dependence path and SC ordering under the sleep set.
	compareParallel(t, "fence-mp-sc", 3, Config{}, func(root *Thread) {
		x := root.NewAtomicInit("x", 0)
		y := root.NewAtomicInit("y", 0)
		a := root.Spawn("a", func(tt *Thread) {
			x.Store(tt, memmodel.Relaxed, 1)
			Fence(tt, memmodel.SeqCst)
			_ = y.Load(tt, memmodel.Relaxed)
		})
		b := root.Spawn("b", func(tt *Thread) {
			y.Store(tt, memmodel.SeqCst, 1)
			Fence(tt, memmodel.SeqCst)
			_ = x.Load(tt, memmodel.Acquire)
		})
		root.Join(a)
		root.Join(b)
	})

	// Lock-cycle deadlock: failure kinds and indices must merge in
	// branch order.
	compareParallel(t, "deadlock", 4, Config{MaxFailures: 1 << 20}, func(root *Thread) {
		m1 := root.NewMutex("m1")
		m2 := root.NewMutex("m2")
		a := root.Spawn("a", func(tt *Thread) {
			m1.Lock(tt)
			m2.Lock(tt)
			m2.Unlock(tt)
			m1.Unlock(tt)
		})
		b := root.Spawn("b", func(tt *Thread) {
			m2.Lock(tt)
			m1.Lock(tt)
			m1.Unlock(tt)
			m2.Unlock(tt)
		})
		root.Join(a)
		root.Join(b)
	})
}

// TestParallelOutcomeSets: outcome sets recorded through a concurrency-
// safe OnExecution hook match between sequential and parallel runs.
func TestParallelOutcomeSets(t *testing.T) {
	run := func(parallelism int) []string {
		var mu sync.Mutex
		outcomes := map[string]bool{}
		res := Explore(Config{Parallelism: parallelism}, func(root *Thread) {
			x := root.NewAtomicInit("x", 0)
			y := root.NewAtomicInit("y", 0)
			var r0, r1 int64
			a := root.Spawn("a", func(tt *Thread) {
				x.Store(tt, memmodel.Relaxed, 1)
				r0 = int64(y.Load(tt, memmodel.Relaxed))
			})
			b := root.Spawn("b", func(tt *Thread) {
				y.Store(tt, memmodel.Relaxed, 1)
				r1 = int64(x.Load(tt, memmodel.Relaxed))
			})
			root.Join(a)
			root.Join(b)
			mu.Lock()
			outcomes[fmt.Sprintf("r0=%d r1=%d", r0, r1)] = true
			mu.Unlock()
		})
		if !res.Exhausted {
			t.Fatalf("not exhausted: %v", res)
		}
		var ks []string
		for k := range outcomes {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		return ks
	}
	seq := run(1)
	par := run(4)
	if fmt.Sprint(seq) != fmt.Sprint(par) {
		t.Errorf("outcome sets differ:\n  sequential: %v\n  parallel:   %v", seq, par)
	}
	if !contains2(seq, "r0=0 r1=0") {
		t.Errorf("store buffering outcome missing (relaxed atomics admit it): %v", seq)
	}
}

// TestParallelRandomWalk: fast mode, which samples one random walk per
// run, runs exactly its budget when the runs are sharded over workers,
// including more workers than runs, which must neither deadlock nor
// overrun.
func TestParallelRandomWalk(t *testing.T) {
	res := Explore(Config{FastMode: true, MaxExecutions: 200, Seed: 42, Parallelism: 4}, manyExecProgram)
	if res.Executions != 200 {
		t.Errorf("parallel random walk ran %d executions, want 200", res.Executions)
	}
	res = Explore(Config{FastMode: true, MaxExecutions: 3, Seed: 7, Parallelism: 16}, manyExecProgram)
	if res.Executions != 3 {
		t.Errorf("oversubscribed parallel random walk ran %d executions, want 3", res.Executions)
	}
}

// TestParallelStopAtFirst: a parallel run with StopAtFirst reports at
// least one failure and stops early.
func TestParallelStopAtFirst(t *testing.T) {
	res := Explore(Config{StopAtFirst: true, Parallelism: 4}, deadlockProg)
	if res.FailureCount == 0 {
		t.Fatalf("expected a failure: %v", res)
	}
	if res.Exhausted {
		t.Errorf("StopAtFirst run must not report Exhausted: %v", res)
	}
}

func deadlockProg(root *Thread) {
	m1 := root.NewMutex("m1")
	m2 := root.NewMutex("m2")
	a := root.Spawn("a", func(tt *Thread) {
		m1.Lock(tt)
		m2.Lock(tt)
		m2.Unlock(tt)
		m1.Unlock(tt)
	})
	b := root.Spawn("b", func(tt *Thread) {
		m2.Lock(tt)
		m1.Lock(tt)
		m1.Unlock(tt)
		m2.Unlock(tt)
	})
	root.Join(a)
	root.Join(b)
}

// TestParallelSingleExecution: a deterministic program (no decision
// points) explores exactly once and reports exhaustion.
func TestParallelSingleExecution(t *testing.T) {
	res := Explore(Config{Parallelism: 8}, func(root *Thread) {
		x := root.NewAtomicInit("x", 0)
		x.Store(root, memmodel.Relaxed, 1)
	})
	if res.Executions != 1 || !res.Exhausted {
		t.Errorf("want 1 exhausted execution: %v", res)
	}
}
