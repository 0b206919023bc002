package checker

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/memmodel"
)

// --- Coherence shapes (CoWW/CoRW/CoWR/CoRR beyond the litmus file) -----

// TestCoWR: a thread that stored must not read an older store afterwards.
func TestCoWR(t *testing.T) {
	out, _ := exploreOutcomes(t, func(root *Thread, report func(string)) {
		x := root.NewAtomicInit("x", 0)
		w := root.Spawn("w", func(tt *Thread) {
			x.Store(tt, memmodel.Relaxed, 1)
		})
		r := root.Spawn("r", func(tt *Thread) {
			x.Store(tt, memmodel.Relaxed, 2)
			report(fmt.Sprintf("v=%d", x.Load(tt, memmodel.Relaxed)))
		})
		root.Join(w)
		root.Join(r)
	})
	// The reader may see its own 2 or the other thread's 1 if it is
	// mo-later, but never the initial 0 (hidden by its own store).
	if out["v=0"] != 0 {
		t.Errorf("CoWR violated: %v", out)
	}
}

// TestCoRW: after reading a store, the thread's own store is mo-later —
// rereads never return anything older than the observed store.
func TestCoRW(t *testing.T) {
	out, _ := exploreOutcomes(t, func(root *Thread, report func(string)) {
		x := root.NewAtomicInit("x", 0)
		w := root.Spawn("w", func(tt *Thread) {
			x.Store(tt, memmodel.Relaxed, 1)
		})
		r := root.Spawn("r", func(tt *Thread) {
			a := x.Load(tt, memmodel.Relaxed)
			x.Store(tt, memmodel.Relaxed, 9)
			b := x.Load(tt, memmodel.Relaxed)
			report(fmt.Sprintf("a=%d b=%d", a, b))
		})
		root.Join(w)
		root.Join(r)
	})
	for o := range out {
		if strings.HasSuffix(o, "b=0") {
			t.Errorf("CoRW violated (read of init after own store): %v", out)
		}
		if o == "a=1 b=1" {
			// Would require the observer's store 9 to be mo-before 1,
			// impossible once 1 was already read.
			t.Errorf("CoRW violated: %v", out)
		}
	}
}

// TestRMWChainNoLostUpdates (property-ish): N concurrent increments from
// distinct threads always sum correctly.
func TestRMWChainNoLostUpdates(t *testing.T) {
	for _, n := range []int{2, 3} {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			res := Explore(Config{}, func(root *Thread) {
				x := root.NewAtomicInit("x", 0)
				var ths []*Thread
				for i := 0; i < n; i++ {
					ths = append(ths, root.Spawn("w", func(tt *Thread) {
						x.FetchAdd(tt, memmodel.Relaxed, 1)
					}))
				}
				for _, th := range ths {
					root.Join(th)
				}
				got := x.Load(root, memmodel.Relaxed)
				root.Assert(got == memmodel.Value(n), "sum = %d, want %d", got, n)
			})
			if res.FailureCount != 0 {
				t.Fatalf("lost update: %v", res.FirstFailure())
			}
		})
	}
}

// TestFetchSub: subtraction mirrors addition.
func TestFetchSub(t *testing.T) {
	res := Explore(Config{}, func(root *Thread) {
		x := root.NewAtomicInit("x", 10)
		old := x.FetchSub(root, memmodel.Relaxed, 3)
		root.Assert(old == 10, "old = %d", old)
		root.Assert(x.Load(root, memmodel.Relaxed) == 7, "new value")
	})
	if res.FailureCount != 0 {
		t.Fatal(res.FirstFailure())
	}
}

// TestExchange returns the previous value atomically.
func TestExchange(t *testing.T) {
	res := Explore(Config{}, func(root *Thread) {
		x := root.NewAtomicInit("x", 1)
		a := root.Spawn("a", func(tt *Thread) {
			old := x.Exchange(tt, memmodel.AcqRel, 2)
			tt.Assert(old == 1 || old == 3, "old = %d", old)
		})
		b := root.Spawn("b", func(tt *Thread) {
			old := x.Exchange(tt, memmodel.AcqRel, 3)
			tt.Assert(old == 1 || old == 2, "old = %d", old)
		})
		root.Join(a)
		root.Join(b)
		final := x.Load(root, memmodel.Relaxed)
		root.Assert(final == 2 || final == 3, "final = %d", final)
	})
	if res.FailureCount != 0 {
		t.Fatal(res.FirstFailure())
	}
}

// --- Mutex API -----------------------------------------------------------

func TestTryLockSemantics(t *testing.T) {
	res := Explore(Config{}, func(root *Thread) {
		m := root.NewMutex("m")
		root.Assert(m.TryLock(root), "trylock on free mutex")
		root.Assert(!m.TryLock(root), "trylock on held mutex")
		m.Unlock(root)
		root.Assert(m.TryLock(root), "trylock after unlock")
		m.Unlock(root)
	})
	if res.FailureCount != 0 {
		t.Fatal(res.FirstFailure())
	}
}

func TestUnlockByNonOwnerFails(t *testing.T) {
	res := Explore(Config{StopAtFirst: true}, func(root *Thread) {
		m := root.NewMutex("m")
		a := root.Spawn("a", func(tt *Thread) { m.Lock(tt) })
		root.Join(a)
		m.Unlock(root) // not the owner
	})
	if !res.HasKind(FailAPIMisuse) {
		t.Errorf("expected API misuse, got %v", res)
	}
}

// TestMutexHandoffSynchronizes: unlock -> lock is an hb edge.
func TestMutexHandoffSynchronizes(t *testing.T) {
	res := Explore(Config{}, func(root *Thread) {
		m := root.NewMutex("m")
		d := root.NewPlainInit("d", 0)
		a := root.Spawn("a", func(tt *Thread) {
			m.Lock(tt)
			d.Store(tt, 1)
			m.Unlock(tt)
		})
		b := root.Spawn("b", func(tt *Thread) {
			m.Lock(tt)
			_ = d.Load(tt)
			m.Unlock(tt)
		})
		root.Join(a)
		root.Join(b)
	})
	if res.FailureCount != 0 {
		t.Fatalf("mutex handoff raced: %v", res.FirstFailure())
	}
}

// --- Lifetime / publication ---------------------------------------------

// TestUnpublishedAccessDetected: dereferencing a location through an
// unsynchronized pointer is flagged.
func TestUnpublishedAccessDetected(t *testing.T) {
	res := Explore(Config{StopAtFirst: true}, func(root *Thread) {
		ptr := root.NewAtomicInit("ptr", 0)
		var inner *Atomic
		a := root.Spawn("a", func(tt *Thread) {
			inner = tt.NewAtomicInit("inner", 42)
			ptr.Store(tt, memmodel.Relaxed, 1) // relaxed: no publication
		})
		b := root.Spawn("b", func(tt *Thread) {
			if ptr.Load(tt, memmodel.Acquire) == 1 {
				_ = inner.Load(tt, memmodel.Relaxed)
			}
		})
		root.Join(a)
		root.Join(b)
	})
	if !res.HasKind(FailUninitLoad) {
		t.Errorf("unpublished access not detected: %v", res)
	}
}

// TestPublishedAccessClean: the same shape with a release store is clean.
func TestPublishedAccessClean(t *testing.T) {
	res := Explore(Config{}, func(root *Thread) {
		ptr := root.NewAtomicInit("ptr", 0)
		var inner *Atomic
		a := root.Spawn("a", func(tt *Thread) {
			inner = tt.NewAtomicInit("inner", 42)
			ptr.Store(tt, memmodel.Release, 1)
		})
		b := root.Spawn("b", func(tt *Thread) {
			if ptr.Load(tt, memmodel.Acquire) == 1 {
				v := inner.Load(tt, memmodel.Relaxed)
				tt.Assert(v == 42, "v = %d", v)
			}
		})
		root.Join(a)
		root.Join(b)
	})
	if res.FailureCount != 0 {
		t.Fatalf("published access flagged: %v", res.FirstFailure())
	}
}

// TestDisableLifetimeCheck: the knob silences the whole family.
func TestDisableLifetimeCheck(t *testing.T) {
	prog := func(root *Thread) {
		ptr := root.NewAtomicInit("ptr", 0)
		var inner *Atomic
		a := root.Spawn("a", func(tt *Thread) {
			inner = tt.NewAtomicInit("inner", 42)
			ptr.Store(tt, memmodel.Relaxed, 1)
		})
		b := root.Spawn("b", func(tt *Thread) {
			if ptr.Load(tt, memmodel.Acquire) == 1 {
				_ = inner.Load(tt, memmodel.Relaxed)
			}
		})
		root.Join(a)
		root.Join(b)
	}
	res := Explore(Config{DisableLifetimeCheck: true}, prog)
	if res.HasKind(FailUninitLoad) {
		t.Errorf("lifetime check fired despite the knob: %v", res.FirstFailure())
	}
}

// --- Exploration mechanics ----------------------------------------------

// TestStepBoundPrunes: a busy loop hits MaxSteps and is pruned, not
// reported as a bug.
func TestStepBoundPrunes(t *testing.T) {
	res := Explore(Config{MaxSteps: 50, MaxExecutions: 10}, func(root *Thread) {
		x := root.NewAtomicInit("x", 0)
		for i := 0; i < 1000; i++ {
			x.Store(root, memmodel.Relaxed, memmodel.Value(i))
		}
	})
	if res.Pruned == 0 {
		t.Errorf("expected pruned runs: %v", res)
	}
	if res.FailureCount != 0 {
		t.Errorf("step bound should prune, not fail: %v", res.FirstFailure())
	}
}

// TestStopAtFirst stops after the first failing execution.
func TestStopAtFirst(t *testing.T) {
	res := Explore(Config{StopAtFirst: true}, func(root *Thread) {
		x := root.NewAtomic("x")
		_ = x.Load(root, memmodel.Relaxed) // uninit on every execution
	})
	if res.Executions != 1 || res.FailureCount != 1 {
		t.Errorf("StopAtFirst ignored: %v", res)
	}
}

// TestMaxFailuresCap: retained failures are capped, the count is not.
func TestMaxFailuresCap(t *testing.T) {
	res := Explore(Config{MaxFailures: 2}, func(root *Thread) {
		x := root.NewAtomicInit("x", 0)
		a := root.Spawn("a", func(tt *Thread) { x.Store(tt, memmodel.Relaxed, 1) })
		b := root.Spawn("b", func(tt *Thread) {
			v := x.Load(tt, memmodel.Relaxed)
			tt.Assert(v == 99, "always fails (v=%d)", v)
		})
		root.Join(a)
		root.Join(b)
	})
	if len(res.Failures) > 2 {
		t.Errorf("retained %d failures, cap was 2", len(res.Failures))
	}
	if res.FailureCount <= 2 {
		t.Errorf("FailureCount should exceed the cap: %v", res)
	}
}

// TestTooManyThreads: exceeding the simulated-thread limit (16, the
// root included) is an API misuse, not a hang.
func TestTooManyThreads(t *testing.T) {
	res := Explore(Config{StopAtFirst: true}, func(root *Thread) {
		for i := 0; i < maxThreads+1; i++ {
			root.Spawn(fmt.Sprintf("t%d", i), func(tt *Thread) {})
		}
	})
	if !res.HasKind(FailAPIMisuse) {
		t.Errorf("expected API misuse: %v", res)
	}
}

// TestTraceRendering: failure traces include the participating actions.
func TestTraceRendering(t *testing.T) {
	res := Explore(Config{StopAtFirst: true}, func(root *Thread) {
		x := root.NewAtomicInit("watched", 0)
		x.Store(root, memmodel.Release, 5)
		root.Assert(false, "boom")
	})
	f := res.FirstFailure()
	if f == nil {
		t.Fatal("no failure")
	}
	if !strings.Contains(f.Trace, "watched") || !strings.Contains(f.Trace, "release") {
		t.Errorf("trace missing detail:\n%s", f.Trace)
	}
}

// TestResultHelpers: the Result accessors behave.
func TestResultHelpers(t *testing.T) {
	r := &Result{Failures: []*Failure{{Kind: FailDataRace}, {Kind: FailAssertion}}}
	if !r.HasKind(FailDataRace) || r.HasKind(FailDeadlock) {
		t.Error("HasKind wrong")
	}
	if !r.HasBuiltIn() {
		t.Error("HasBuiltIn wrong")
	}
	if r.FirstFailure().Kind != FailDataRace {
		t.Error("FirstFailure wrong")
	}
	if (&Result{}).FirstFailure() != nil {
		t.Error("empty FirstFailure should be nil")
	}
	if s := r.String(); !strings.Contains(s, "executions=") {
		t.Errorf("String() = %q", s)
	}
}

// TestFailureKindStrings: every kind renders and classifies.
func TestFailureKindStrings(t *testing.T) {
	builtins := map[FailureKind]bool{
		FailDataRace: true, FailUninitLoad: true, FailDeadlock: true, FailLivelock: true,
		FailTooManySteps: false, FailAssertion: false, FailAdmissibility: false, FailAPIMisuse: false,
	}
	for k, want := range builtins {
		if k.BuiltIn() != want {
			t.Errorf("%v.BuiltIn() = %v, want %v", k, k.BuiltIn(), want)
		}
		if strings.HasPrefix(k.String(), "FailureKind(") {
			t.Errorf("kind %d has no name", k)
		}
	}
}

// TestFailureError: Failure implements error usefully.
func TestFailureError(t *testing.T) {
	f := &Failure{Kind: FailDataRace, Msg: "x races", Execution: 3}
	if !strings.Contains(f.Error(), "data-race") || !strings.Contains(f.Error(), "x races") {
		t.Errorf("Error() = %q", f.Error())
	}
}

// --- Thread API ------------------------------------------------------

func TestThreadAccessors(t *testing.T) {
	res := Explore(Config{MaxExecutions: 1}, func(root *Thread) {
		if root.ID() != 0 || root.Name() != "main" {
			root.Assert(false, "root identity wrong: %d %q", root.ID(), root.Name())
		}
		child := root.Spawn("worker", func(tt *Thread) {
			tt.Assert(tt.ID() == 1 && tt.Name() == "worker", "child identity wrong")
			tt.Assert(tt.Sys() != nil, "Sys nil")
		})
		root.Join(child)
		if root.Clock().Get(1) == 0 {
			root.Assert(false, "join did not merge the child clock")
		}
	})
	if res.FailureCount != 0 {
		t.Fatal(res.FirstFailure())
	}
}

// TestLastAction exposes the most recent action for the spec layer.
func TestLastAction(t *testing.T) {
	res := Explore(Config{MaxExecutions: 1}, func(root *Thread) {
		x := root.NewAtomicInit("x", 0)
		x.Store(root, memmodel.Release, 9)
		a := root.LastAction()
		root.Assert(a != nil && a.Kind == memmodel.KindAtomicStore && a.Value == 9,
			"LastAction = %v", a)
	})
	if res.FailureCount != 0 {
		t.Fatal(res.FirstFailure())
	}
}

// TestPlainValueVisibility: a plain read returns the hb-latest write.
func TestPlainValueVisibility(t *testing.T) {
	res := Explore(Config{}, func(root *Thread) {
		d := root.NewPlainInit("d", 1)
		d.Store(root, 2)
		root.Assert(d.Load(root) == 2, "plain read = %d", d.Load(root))
		a := root.Spawn("a", func(tt *Thread) {
			tt.Assert(d.Load(tt) == 2, "spawned reader sees parent's write")
		})
		root.Join(a)
	})
	if res.FailureCount != 0 {
		t.Fatal(res.FirstFailure())
	}
}

// TestVarNames: debug names round-trip.
func TestVarNames(t *testing.T) {
	res := Explore(Config{MaxExecutions: 1}, func(root *Thread) {
		x := root.NewAtomicInit("myatomic", 0)
		p := root.NewPlainInit("myplain", 0)
		m := root.NewMutex("mymutex")
		root.Assert(x.Name() == "myatomic" && p.Name() == "myplain" && m.Name() == "mymutex",
			"names wrong: %q %q %q", x.Name(), p.Name(), m.Name())
	})
	if res.FailureCount != 0 {
		t.Fatal(res.FirstFailure())
	}
}
