package checker

import (
	"fmt"
	"testing"

	"repro/internal/memmodel"
)

// exploreOutcomes runs an exhaustive exploration of prog and returns the
// set of outcome strings it produced. prog receives the root thread and a
// report function that records the outcome of the current execution.
func exploreOutcomes(t *testing.T, prog func(root *Thread, report func(string))) (map[string]int, *Result) {
	t.Helper()
	outcomes := map[string]int{}
	var cur []string
	cfg := Config{
		OnRunStart: func(sys *System) { cur = nil },
		OnExecution: func(sys *System) []*Failure {
			for _, o := range cur {
				outcomes[o]++
			}
			return nil
		},
	}
	res := Explore(cfg, func(root *Thread) {
		prog(root, func(o string) { cur = append(cur, o) })
	})
	if !res.Exhausted {
		t.Fatalf("exploration not exhausted: %v", res)
	}
	return outcomes, res
}

// exploreForFailures runs an exhaustive exploration and returns the result.
func exploreForFailures(prog func(root *Thread)) *Result {
	return Explore(Config{}, prog)
}

// --- Message passing -------------------------------------------------

// TestMPReleaseAcquire checks that release/acquire message passing never
// loses the payload: if the acquire load sees the flag, it sees the data.
func TestMPReleaseAcquire(t *testing.T) {
	out, _ := exploreOutcomes(t, func(root *Thread, report func(string)) {
		x := root.NewAtomicInit("x", 0)
		flag := root.NewAtomicInit("flag", 0)
		w := root.Spawn("writer", func(tt *Thread) {
			x.Store(tt, memmodel.Relaxed, 42)
			flag.Store(tt, memmodel.Release, 1)
		})
		r := root.Spawn("reader", func(tt *Thread) {
			f := flag.Load(tt, memmodel.Acquire)
			v := x.Load(tt, memmodel.Relaxed)
			report(fmt.Sprintf("f=%d v=%d", f, v))
		})
		root.Join(w)
		root.Join(r)
	})
	if out["f=1 v=0"] != 0 {
		t.Errorf("release/acquire MP lost the payload: %v", out)
	}
	if out["f=1 v=42"] == 0 {
		t.Errorf("never saw the flagged payload: %v", out)
	}
	if out["f=0 v=0"] == 0 {
		t.Errorf("never saw the unflagged case: %v", out)
	}
}

// TestMPRelaxed checks that fully relaxed message passing CAN lose the
// payload (the weak behavior CDSChecker exists to surface).
func TestMPRelaxed(t *testing.T) {
	out, _ := exploreOutcomes(t, func(root *Thread, report func(string)) {
		x := root.NewAtomicInit("x", 0)
		flag := root.NewAtomicInit("flag", 0)
		w := root.Spawn("writer", func(tt *Thread) {
			x.Store(tt, memmodel.Relaxed, 42)
			flag.Store(tt, memmodel.Relaxed, 1)
		})
		r := root.Spawn("reader", func(tt *Thread) {
			f := flag.Load(tt, memmodel.Relaxed)
			v := x.Load(tt, memmodel.Relaxed)
			report(fmt.Sprintf("f=%d v=%d", f, v))
		})
		root.Join(w)
		root.Join(r)
	})
	if out["f=1 v=0"] == 0 {
		t.Errorf("relaxed MP should admit the stale payload: %v", out)
	}
}

// TestMPPlainPayloadRace: a plain payload with a relaxed flag is a data
// race (built-in check).
func TestMPPlainPayloadRace(t *testing.T) {
	res := exploreForFailures(func(root *Thread) {
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
	if !res.HasKind(FailDataRace) {
		t.Errorf("expected a data race, got %v", res)
	}
}

// TestMPPlainPayloadSynchronized: with release/acquire the same program is
// race-free.
func TestMPPlainPayloadSynchronized(t *testing.T) {
	res := exploreForFailures(func(root *Thread) {
		x := root.NewPlainInit("x", 0)
		flag := root.NewAtomicInit("flag", 0)
		w := root.Spawn("writer", func(tt *Thread) {
			x.Store(tt, 42)
			flag.Store(tt, memmodel.Release, 1)
		})
		r := root.Spawn("reader", func(tt *Thread) {
			if flag.Load(tt, memmodel.Acquire) == 1 {
				v := x.Load(tt)
				tt.Assert(v == 42, "payload lost: %d", v)
			}
		})
		root.Join(w)
		root.Join(r)
	})
	if res.FailureCount != 0 {
		t.Errorf("expected no failures, got %v: %v", res, res.FirstFailure())
	}
}

// --- Store buffering --------------------------------------------------

func storeBuffering(t *testing.T, ord memmodel.MemOrder) map[string]int {
	out, _ := exploreOutcomes(t, func(root *Thread, report func(string)) {
		x := root.NewAtomicInit("x", 0)
		y := root.NewAtomicInit("y", 0)
		var r1, r2 memmodel.Value
		a := root.Spawn("a", func(tt *Thread) {
			x.Store(tt, ord, 1)
			r1 = y.Load(tt, ord)
		})
		b := root.Spawn("b", func(tt *Thread) {
			y.Store(tt, ord, 1)
			r2 = x.Load(tt, ord)
		})
		root.Join(a)
		root.Join(b)
		report(fmt.Sprintf("r1=%d r2=%d", r1, r2))
	})
	return out
}

// TestSBSeqCst: both-zero is forbidden under seq_cst.
func TestSBSeqCst(t *testing.T) {
	out := storeBuffering(t, memmodel.SeqCst)
	if out["r1=0 r2=0"] != 0 {
		t.Errorf("seq_cst store buffering admitted r1=r2=0: %v", out)
	}
	for _, want := range []string{"r1=1 r2=0", "r1=0 r2=1", "r1=1 r2=1"} {
		if out[want] == 0 {
			t.Errorf("missing SC outcome %q: %v", want, out)
		}
	}
}

// TestSBRelaxed: both-zero is allowed under relaxed (and acquire/release).
func TestSBRelaxed(t *testing.T) {
	out := storeBuffering(t, memmodel.Relaxed)
	if out["r1=0 r2=0"] == 0 {
		t.Errorf("relaxed store buffering should admit r1=r2=0: %v", out)
	}
}

// TestSBSCFences: relaxed accesses plus seq_cst fences between the store
// and the load forbid the both-zero outcome (Dekker with fences).
func TestSBSCFences(t *testing.T) {
	out, _ := exploreOutcomes(t, func(root *Thread, report func(string)) {
		x := root.NewAtomicInit("x", 0)
		y := root.NewAtomicInit("y", 0)
		var r1, r2 memmodel.Value
		a := root.Spawn("a", func(tt *Thread) {
			x.Store(tt, memmodel.Relaxed, 1)
			Fence(tt, memmodel.SeqCst)
			r1 = y.Load(tt, memmodel.Relaxed)
		})
		b := root.Spawn("b", func(tt *Thread) {
			y.Store(tt, memmodel.Relaxed, 1)
			Fence(tt, memmodel.SeqCst)
			r2 = x.Load(tt, memmodel.Relaxed)
		})
		root.Join(a)
		root.Join(b)
		report(fmt.Sprintf("r1=%d r2=%d", r1, r2))
	})
	if out["r1=0 r2=0"] != 0 {
		t.Errorf("SC fences should forbid r1=r2=0: %v", out)
	}
	if out["r1=1 r2=1"] == 0 {
		t.Errorf("missing interleaved outcome: %v", out)
	}
}

// --- Coherence --------------------------------------------------------

// TestCoherenceWriteRead: a thread reads its own most recent write.
func TestCoherenceWriteRead(t *testing.T) {
	out, _ := exploreOutcomes(t, func(root *Thread, report func(string)) {
		x := root.NewAtomicInit("x", 0)
		x.Store(root, memmodel.Relaxed, 1)
		x.Store(root, memmodel.Relaxed, 2)
		v := x.Load(root, memmodel.Relaxed)
		report(fmt.Sprintf("v=%d", v))
	})
	if len(out) != 1 || out["v=2"] == 0 {
		t.Errorf("write-read coherence violated: %v", out)
	}
}

// TestCoherenceReadRead: two sequenced reads never observe one writer's
// stores out of order.
func TestCoherenceReadRead(t *testing.T) {
	out, _ := exploreOutcomes(t, func(root *Thread, report func(string)) {
		x := root.NewAtomicInit("x", 0)
		w := root.Spawn("w", func(tt *Thread) {
			x.Store(tt, memmodel.Relaxed, 1)
			x.Store(tt, memmodel.Relaxed, 2)
		})
		r := root.Spawn("r", func(tt *Thread) {
			a := x.Load(tt, memmodel.Relaxed)
			b := x.Load(tt, memmodel.Relaxed)
			report(fmt.Sprintf("a=%d b=%d", a, b))
		})
		root.Join(w)
		root.Join(r)
	})
	if out["a=2 b=1"] != 0 || out["a=1 b=0"] != 0 || out["a=2 b=0"] != 0 {
		t.Errorf("read-read coherence violated: %v", out)
	}
	if out["a=1 b=2"] == 0 || out["a=0 b=0"] == 0 || out["a=2 b=2"] == 0 {
		t.Errorf("missing coherent outcomes: %v", out)
	}
}

// TestStaleReadAllowed: a reader with no synchronization may see an old
// value even after the writer finished — the fundamental relaxed behavior.
func TestStaleReadAllowed(t *testing.T) {
	out, _ := exploreOutcomes(t, func(root *Thread, report func(string)) {
		x := root.NewAtomicInit("x", 0)
		w := root.Spawn("w", func(tt *Thread) {
			x.Store(tt, memmodel.Relaxed, 7)
		})
		r := root.Spawn("r", func(tt *Thread) {
			report(fmt.Sprintf("v=%d", x.Load(tt, memmodel.Relaxed)))
		})
		root.Join(w)
		root.Join(r)
	})
	if out["v=0"] == 0 || out["v=7"] == 0 {
		t.Errorf("expected both stale and fresh reads: %v", out)
	}
}

// TestJoinSynchronizes: after Join, the parent must see the child's writes.
func TestJoinSynchronizes(t *testing.T) {
	out, _ := exploreOutcomes(t, func(root *Thread, report func(string)) {
		x := root.NewAtomicInit("x", 0)
		w := root.Spawn("w", func(tt *Thread) {
			x.Store(tt, memmodel.Relaxed, 7)
		})
		root.Join(w)
		report(fmt.Sprintf("v=%d", x.Load(root, memmodel.Relaxed)))
	})
	if len(out) != 1 || out["v=7"] == 0 {
		t.Errorf("join must synchronize: %v", out)
	}
}

// --- IRIW -------------------------------------------------------------

func iriw(t *testing.T, storeOrd, loadOrd memmodel.MemOrder) map[string]int {
	out, _ := exploreOutcomes(t, func(root *Thread, report func(string)) {
		x := root.NewAtomicInit("x", 0)
		y := root.NewAtomicInit("y", 0)
		var r1, r2, r3, r4 memmodel.Value
		ths := []*Thread{
			root.Spawn("wx", func(tt *Thread) { x.Store(tt, storeOrd, 1) }),
			root.Spawn("wy", func(tt *Thread) { y.Store(tt, storeOrd, 1) }),
			root.Spawn("r1", func(tt *Thread) {
				r1 = x.Load(tt, loadOrd)
				r2 = y.Load(tt, loadOrd)
			}),
			root.Spawn("r2", func(tt *Thread) {
				r3 = y.Load(tt, loadOrd)
				r4 = x.Load(tt, loadOrd)
			}),
		}
		for _, th := range ths {
			root.Join(th)
		}
		report(fmt.Sprintf("%d%d%d%d", r1, r2, r3, r4))
	})
	return out
}

// TestIRIWSeqCst: the two readers must agree on the order of independent
// writes under seq_cst.
func TestIRIWSeqCst(t *testing.T) {
	out := iriw(t, memmodel.SeqCst, memmodel.SeqCst)
	if out["1010"] != 0 {
		t.Errorf("seq_cst IRIW admitted disagreement: %v", out)
	}
}

// TestIRIWAcquireRelease: with acquire/release the readers may disagree —
// the exact behavior §1.2 of the paper highlights as breaking sequential
// histories.
func TestIRIWAcquireRelease(t *testing.T) {
	out := iriw(t, memmodel.Release, memmodel.Acquire)
	if out["1010"] == 0 {
		t.Errorf("acq/rel IRIW should admit disagreement: %v", out)
	}
}

// --- RMW --------------------------------------------------------------

// TestFetchAddAtomic: concurrent increments never lose updates.
func TestFetchAddAtomic(t *testing.T) {
	out, _ := exploreOutcomes(t, func(root *Thread, report func(string)) {
		x := root.NewAtomicInit("x", 0)
		a := root.Spawn("a", func(tt *Thread) { x.FetchAdd(tt, memmodel.Relaxed, 1) })
		b := root.Spawn("b", func(tt *Thread) { x.FetchAdd(tt, memmodel.Relaxed, 1) })
		root.Join(a)
		root.Join(b)
		report(fmt.Sprintf("v=%d", x.Load(root, memmodel.Relaxed)))
	})
	if len(out) != 1 || out["v=2"] == 0 {
		t.Errorf("fetch_add lost an update: %v", out)
	}
}

// TestCASSuccessAndFailure: a CAS against a contended location can fail,
// and exactly one of two competing CASes succeeds.
func TestCASSuccessAndFailure(t *testing.T) {
	out, _ := exploreOutcomes(t, func(root *Thread, report func(string)) {
		x := root.NewAtomicInit("x", 0)
		var ok1, ok2 bool
		a := root.Spawn("a", func(tt *Thread) { _, ok1 = x.CAS(tt, 0, 1, memmodel.Relaxed, memmodel.Relaxed) })
		b := root.Spawn("b", func(tt *Thread) { _, ok2 = x.CAS(tt, 0, 2, memmodel.Relaxed, memmodel.Relaxed) })
		root.Join(a)
		root.Join(b)
		report(fmt.Sprintf("ok1=%v ok2=%v v=%d", ok1, ok2, x.Load(root, memmodel.Relaxed)))
	})
	if out["ok1=true ok2=false v=1"] == 0 || out["ok1=false ok2=true v=2"] == 0 {
		t.Errorf("missing single-winner outcomes: %v", out)
	}
	if out["ok1=true ok2=true v=1"] != 0 || out["ok1=true ok2=true v=2"] != 0 {
		t.Errorf("both CASes succeeded: %v", out)
	}
}

// TestCASStaleFailure: a strong CAS may fail by reading a stale value even
// when the newest value matches expected (C/C++11 allows it when the read
// is not required to be the latest — our model keeps it).
func TestCASStaleFailure(t *testing.T) {
	out, _ := exploreOutcomes(t, func(root *Thread, report func(string)) {
		x := root.NewAtomicInit("x", 0) // mo: [0]
		w := root.Spawn("w", func(tt *Thread) {
			x.Store(tt, memmodel.Relaxed, 5)
		})
		c := root.Spawn("c", func(tt *Thread) {
			got, ok := x.CAS(tt, 5, 9, memmodel.Relaxed, memmodel.Relaxed)
			report(fmt.Sprintf("got=%d ok=%v", got, ok))
		})
		root.Join(w)
		root.Join(c)
	})
	if out["got=0 ok=false"] == 0 {
		t.Errorf("expected stale CAS failure: %v", out)
	}
	if out["got=5 ok=true"] == 0 {
		t.Errorf("expected CAS success: %v", out)
	}
}

// --- Release sequences and fences --------------------------------------

// TestReleaseSequenceThroughRMW: an acquire load reading an RMW that
// extends a release store's release sequence synchronizes with the store.
func TestReleaseSequenceThroughRMW(t *testing.T) {
	res := exploreForFailures(func(root *Thread) {
		data := root.NewPlainInit("data", 0)
		x := root.NewAtomicInit("x", 0)
		w := root.Spawn("w", func(tt *Thread) {
			data.Store(tt, 1)
			x.Store(tt, memmodel.Release, 1)
		})
		m := root.Spawn("m", func(tt *Thread) {
			// Relaxed RMW continues the release sequence.
			x.FetchAdd(tt, memmodel.Relaxed, 1)
		})
		r := root.Spawn("r", func(tt *Thread) {
			if x.Load(tt, memmodel.Acquire) == 2 {
				// Reading the RMW must synchronize with the head of
				// the release sequence, so data is visible, no race.
				v := data.Load(tt)
				tt.Assert(v == 1, "release sequence broken: data=%d", v)
			}
		})
		root.Join(w)
		root.Join(m)
		root.Join(r)
	})
	// The RMW can also run before the release store; in that case the
	// acquire load reading value 2 is impossible, and other reads don't
	// touch data. The only failures possible would be races/asserts.
	for _, f := range res.Failures {
		if f.Kind == FailDataRace || f.Kind == FailAssertion {
			t.Errorf("release sequence through RMW broken: %v", f)
		}
	}
}

// TestReleaseFence: relaxed store after a release fence + acquire load
// synchronizes.
func TestReleaseFence(t *testing.T) {
	res := exploreForFailures(func(root *Thread) {
		data := root.NewPlainInit("data", 0)
		flag := root.NewAtomicInit("flag", 0)
		w := root.Spawn("w", func(tt *Thread) {
			data.Store(tt, 1)
			Fence(tt, memmodel.Release)
			flag.Store(tt, memmodel.Relaxed, 1)
		})
		r := root.Spawn("r", func(tt *Thread) {
			if flag.Load(tt, memmodel.Acquire) == 1 {
				v := data.Load(tt)
				tt.Assert(v == 1, "release fence broken: data=%d", v)
			}
		})
		root.Join(w)
		root.Join(r)
	})
	if res.FailureCount != 0 {
		t.Errorf("expected no failures: %v", res.FirstFailure())
	}
}

// TestAcquireFence: relaxed load + subsequent acquire fence synchronizes
// with a release store.
func TestAcquireFence(t *testing.T) {
	res := exploreForFailures(func(root *Thread) {
		data := root.NewPlainInit("data", 0)
		flag := root.NewAtomicInit("flag", 0)
		w := root.Spawn("w", func(tt *Thread) {
			data.Store(tt, 1)
			flag.Store(tt, memmodel.Release, 1)
		})
		r := root.Spawn("r", func(tt *Thread) {
			if flag.Load(tt, memmodel.Relaxed) == 1 {
				Fence(tt, memmodel.Acquire)
				v := data.Load(tt)
				tt.Assert(v == 1, "acquire fence broken: data=%d", v)
			}
		})
		root.Join(w)
		root.Join(r)
	})
	if res.FailureCount != 0 {
		t.Errorf("expected no failures: %v", res.FirstFailure())
	}
}

// TestRelaxedLoadNoSync: without the acquire fence the same program races.
func TestRelaxedLoadNoSync(t *testing.T) {
	res := exploreForFailures(func(root *Thread) {
		data := root.NewPlainInit("data", 0)
		flag := root.NewAtomicInit("flag", 0)
		w := root.Spawn("w", func(tt *Thread) {
			data.Store(tt, 1)
			flag.Store(tt, memmodel.Release, 1)
		})
		r := root.Spawn("r", func(tt *Thread) {
			if flag.Load(tt, memmodel.Relaxed) == 1 {
				_ = data.Load(tt)
			}
		})
		root.Join(w)
		root.Join(r)
	})
	if !res.HasKind(FailDataRace) {
		t.Errorf("expected a data race: %v", res)
	}
}

// --- Built-in checks ----------------------------------------------------

// TestUninitializedAtomicLoad is CDSChecker's uninitialized-load check.
func TestUninitializedAtomicLoad(t *testing.T) {
	res := exploreForFailures(func(root *Thread) {
		x := root.NewAtomic("x")
		_ = x.Load(root, memmodel.Relaxed)
	})
	if !res.HasKind(FailUninitLoad) {
		t.Errorf("expected uninitialized load: %v", res)
	}
}

// TestMutexMutualExclusion: plain accesses under a mutex never race.
func TestMutexMutualExclusion(t *testing.T) {
	res := exploreForFailures(func(root *Thread) {
		m := root.NewMutex("m")
		c := root.NewPlainInit("c", 0)
		inc := func(tt *Thread) {
			m.Lock(tt)
			c.Store(tt, c.Load(tt)+1)
			m.Unlock(tt)
		}
		a := root.Spawn("a", inc)
		b := root.Spawn("b", inc)
		root.Join(a)
		root.Join(b)
		root.Assert(c.Load(root) == 2, "lost update: %d", c.Load(root))
	})
	if res.FailureCount != 0 {
		t.Errorf("expected no failures: %v", res.FirstFailure())
	}
}

// TestMutexRace: the same program without the mutex races.
func TestMutexRace(t *testing.T) {
	res := exploreForFailures(func(root *Thread) {
		c := root.NewPlainInit("c", 0)
		inc := func(tt *Thread) { c.Store(tt, c.Load(tt)+1) }
		a := root.Spawn("a", inc)
		b := root.Spawn("b", inc)
		root.Join(a)
		root.Join(b)
	})
	if !res.HasKind(FailDataRace) {
		t.Errorf("expected a data race: %v", res)
	}
}

// TestDeadlockDetected: a lock-ordering deadlock is reported.
func TestDeadlockDetected(t *testing.T) {
	res := exploreForFailures(func(root *Thread) {
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
	if !res.HasKind(FailDeadlock) {
		t.Errorf("expected deadlock: %v", res)
	}
}

// TestLivelockDetected: spinning on a value nobody will write is reported.
func TestLivelockDetected(t *testing.T) {
	res := exploreForFailures(func(root *Thread) {
		x := root.NewAtomicInit("x", 0)
		a := root.Spawn("a", func(tt *Thread) {
			for x.Load(tt, memmodel.Acquire) == 0 {
				tt.Yield()
			}
		})
		root.Join(a)
	})
	if !res.HasKind(FailLivelock) {
		t.Errorf("expected livelock: %v", res)
	}
}

// TestSpinLoopCompletes: a spin loop that is eventually satisfied
// completes in every execution.
func TestSpinLoopCompletes(t *testing.T) {
	res := exploreForFailures(func(root *Thread) {
		x := root.NewAtomicInit("x", 0)
		a := root.Spawn("a", func(tt *Thread) {
			for x.Load(tt, memmodel.Acquire) == 0 {
				tt.Yield()
			}
		})
		b := root.Spawn("b", func(tt *Thread) {
			x.Store(tt, memmodel.Release, 1)
		})
		root.Join(a)
		root.Join(b)
	})
	if res.FailureCount != 0 {
		t.Errorf("expected clean exploration: %v", res.FirstFailure())
	}
	if res.Feasible == 0 {
		t.Errorf("no feasible executions: %v", res)
	}
}

// --- Exploration mechanics ---------------------------------------------

// TestDeterministicReplay: two explorations of the same program produce
// identical statistics.
func TestDeterministicReplay(t *testing.T) {
	prog := func(root *Thread) {
		x := root.NewAtomicInit("x", 0)
		y := root.NewAtomicInit("y", 0)
		a := root.Spawn("a", func(tt *Thread) {
			x.Store(tt, memmodel.Release, 1)
			_ = y.Load(tt, memmodel.Acquire)
		})
		b := root.Spawn("b", func(tt *Thread) {
			y.Store(tt, memmodel.Release, 1)
			_ = x.Load(tt, memmodel.Acquire)
		})
		root.Join(a)
		root.Join(b)
	}
	r1 := exploreForFailures(prog)
	r2 := exploreForFailures(prog)
	if r1.Executions != r2.Executions || r1.Feasible != r2.Feasible {
		t.Errorf("exploration not deterministic: %v vs %v", r1, r2)
	}
}

// TestMaxExecutionsBound: the execution bound is honored.
func TestMaxExecutionsBound(t *testing.T) {
	res := Explore(Config{MaxExecutions: 3}, func(root *Thread) {
		x := root.NewAtomicInit("x", 0)
		a := root.Spawn("a", func(tt *Thread) { x.Store(tt, memmodel.Relaxed, 1) })
		b := root.Spawn("b", func(tt *Thread) { _ = x.Load(tt, memmodel.Relaxed) })
		root.Join(a)
		root.Join(b)
	})
	if res.Executions != 3 || res.Exhausted {
		t.Errorf("expected exactly 3 executions, got %v", res)
	}
}

// TestSCPerLocationOrder: an SC load never reads a store older than the
// last SC store to the location preceding it in S.
func TestSCPerLocationOrder(t *testing.T) {
	out, _ := exploreOutcomes(t, func(root *Thread, report func(string)) {
		x := root.NewAtomicInit("x", 0)
		w := root.Spawn("w", func(tt *Thread) {
			x.Store(tt, memmodel.SeqCst, 1)
		})
		r := root.Spawn("r", func(tt *Thread) {
			a := x.Load(tt, memmodel.SeqCst)
			b := x.Load(tt, memmodel.SeqCst)
			report(fmt.Sprintf("a=%d b=%d", a, b))
		})
		root.Join(w)
		root.Join(r)
	})
	if out["a=1 b=0"] != 0 {
		t.Errorf("SC reads went backwards: %v", out)
	}
}
