package blockingqueue

import (
	"testing"

	"repro/internal/checker"
	"repro/internal/core"
	"repro/internal/memmodel"
)

// explore runs the CDSSpec pipeline on prog with the given spec.
func explore(spec *core.Spec, prog func(*checker.Thread)) *checker.Result {
	return core.Explore(spec, checker.Config{}, prog)
}

// TestSingleThreadFIFO: basic sanity — one thread, FIFO order, correct
// empty behavior at the end.
func TestSingleThreadFIFO(t *testing.T) {
	res := explore(Spec("q"), func(root *checker.Thread) {
		q := New(root, "q", nil)
		q.Enq(root, 1)
		q.Enq(root, 2)
		root.Assert(q.Deq(root) == 1, "first deq")
		root.Assert(q.Deq(root) == 2, "second deq")
		root.Assert(q.Deq(root) == Empty, "empty deq")
	})
	if res.FailureCount != 0 {
		t.Fatalf("clean queue failed: %v", res.FirstFailure())
	}
}

// TestSequentialDeqCannotSpuriouslyFail: the §2.1 discriminator — a deq
// that follows an enq in the same thread must see the element; the spec
// forbids the spurious empty because the justifying prefix contains the
// enq. We simulate the bad behavior by checking that the spec checker
// would flag it: a deq call returning Empty after an ordered enq.
func TestSequentialDeqCannotSpuriouslyFail(t *testing.T) {
	// The real implementation cannot produce it (same-thread coherence),
	// so every exploration must be clean — and the deq always returns 1.
	res := explore(Spec("q"), func(root *checker.Thread) {
		q := New(root, "q", nil)
		q.Enq(root, 1)
		root.Assert(q.Deq(root) == 1, "deq after enq must see the element")
	})
	if res.FailureCount != 0 {
		t.Fatalf("unexpected failure: %v", res.FirstFailure())
	}
}

// TestFigure3NonLinearizable: the paper's Figure 3 — two queues, two
// threads, both deqs may return empty. Not linearizable, but admitted by
// the non-deterministic specification with justifying prefixes (§2,
// Figure 4(e)).
func TestFigure3NonLinearizable(t *testing.T) {
	spec := core.Compose(Spec("x"), Spec("y"))
	sawBothEmpty := false
	var r1, r2 memmodel.Value
	cfg := checker.Config{
		OnExecution: func(sys *checker.System) []*checker.Failure {
			if r1 == Empty && r2 == Empty {
				sawBothEmpty = true
			}
			return nil
		},
	}
	res := core.Explore(spec, cfg, func(root *checker.Thread) {
		x := New(root, "x", nil)
		y := New(root, "y", nil)
		t1 := root.Spawn("t1", func(tt *checker.Thread) {
			x.Enq(tt, 1)
			r1 = y.Deq(tt)
		})
		t2 := root.Spawn("t2", func(tt *checker.Thread) {
			y.Enq(tt, 1)
			r2 = x.Deq(tt)
		})
		root.Join(t1)
		root.Join(t2)
	})
	if res.FailureCount != 0 {
		t.Fatalf("Figure 3 execution must satisfy the ND spec: %v", res.FirstFailure())
	}
	if !sawBothEmpty {
		t.Error("never explored the r1=r2=-1 execution the paper discusses")
	}
}

// TestTwoProducersOneConsumer: contention on the enq CAS plus a consumer.
func TestTwoProducersOneConsumer(t *testing.T) {
	res := explore(Spec("q"), func(root *checker.Thread) {
		q := New(root, "q", nil)
		p1 := root.Spawn("p1", func(tt *checker.Thread) { q.Enq(tt, 1) })
		p2 := root.Spawn("p2", func(tt *checker.Thread) { q.Enq(tt, 2) })
		c1 := root.Spawn("c1", func(tt *checker.Thread) { q.Deq(tt) })
		root.Join(p1)
		root.Join(p2)
		root.Join(c1)
	})
	if res.FailureCount != 0 {
		t.Fatalf("contended queue failed: %v", res.FirstFailure())
	}
	if res.Feasible == 0 {
		t.Fatal("no feasible executions")
	}
}

// TestFigure1MotivatingRace: weakening the enq CAS to relaxed removes the
// synchronization between enq and deq, so the dequeuer's plain read of
// the node data races with the enqueuer's initialization — exactly the
// problematic execution of the paper's Figure 1.
func TestFigure1MotivatingRace(t *testing.T) {
	ord := DefaultOrders()
	ord.Set(SiteEnqCASNext, memmodel.Relaxed)
	res := explore(Spec("q"), func(root *checker.Thread) {
		q := New(root, "q", ord)
		a := root.Spawn("a", func(tt *checker.Thread) { q.Enq(tt, 7) })
		b := root.Spawn("b", func(tt *checker.Thread) { q.Deq(tt) })
		root.Join(a)
		root.Join(b)
	})
	// The broken publication surfaces as a built-in check: either the
	// plain data race of Figure 1 or the unpublished-node access that
	// precedes it (both are CDSChecker-class detections).
	if !res.HasKind(checker.FailDataRace) && !res.HasKind(checker.FailUninitLoad) {
		t.Fatalf("expected the Figure 1 built-in detection, got %v", res)
	}
}

// TestWeakenedDeqLoadNextDetected: weakening the deq load of next to
// relaxed breaks the enq→deq synchronization; the spec (or the built-in
// race check via the data field) must flag it.
func TestWeakenedDeqLoadNextDetected(t *testing.T) {
	ord := DefaultOrders()
	ord.Set(SiteDeqLoadNext, memmodel.Relaxed)
	res := explore(Spec("q"), func(root *checker.Thread) {
		q := New(root, "q", ord)
		a := root.Spawn("a", func(tt *checker.Thread) { q.Enq(tt, 7) })
		b := root.Spawn("b", func(tt *checker.Thread) { q.Deq(tt) })
		root.Join(a)
		root.Join(b)
	})
	if res.FailureCount == 0 {
		t.Fatal("weakened deq_load_next not detected")
	}
}

// TestDeterministicSpecWithAdmissibility: the paper's alternative
// deterministic spec — @Admit: deq<->enq (M1->C_RET==-1). Under a valid
// usage pattern (joins order everything), the deterministic spec holds.
func TestDeterministicSpecWithAdmissibility(t *testing.T) {
	spec := Spec("q")
	spec.Admissibility = []core.AdmitRule{{
		M1: "q.deq", M2: "q.enq",
		MustOrder: func(d, e *core.Call) bool { return d.Ret == Empty },
	}}
	// Sequential usage: everything ordered, so admissibility holds and
	// the deterministic behavior is enforced.
	res := explore(spec, func(root *checker.Thread) {
		q := New(root, "q", nil)
		q.Enq(root, 5)
		root.Assert(q.Deq(root) == 5, "deq")
		root.Assert(q.Deq(root) == Empty, "empty deq")
	})
	if res.FailureCount != 0 {
		t.Fatalf("sequential usage must be admissible: %v", res.FirstFailure())
	}
}

// TestAdmissibilityViolationReported: under the deterministic spec, the
// Figure 3 usage produces executions where a failed deq is unordered with
// an enq — inadmissible, reported as a warning (FailAdmissibility).
func TestAdmissibilityViolationReported(t *testing.T) {
	spec := Spec("q")
	spec.Admissibility = []core.AdmitRule{{
		M1: "q.deq", M2: "q.enq",
		MustOrder: func(d, e *core.Call) bool { return d.Ret == Empty },
	}}
	res := explore(spec, func(root *checker.Thread) {
		q := New(root, "q", nil)
		a := root.Spawn("a", func(tt *checker.Thread) { q.Enq(tt, 1) })
		b := root.Spawn("b", func(tt *checker.Thread) { q.Deq(tt) })
		root.Join(a)
		root.Join(b)
	})
	if !res.HasKind(checker.FailAdmissibility) {
		t.Fatalf("expected an admissibility warning, got %v", res)
	}
}

// TestInjectionsDetected mirrors the §6.4.2 experiment on the running
// example. Two of the queue's six sites are load-bearing: the enq CAS on
// next and the deq load of next carry the only synchronization clients
// rely on. The remaining four (tail/head bookkeeping) are *overly strong
// parameters* in the Figure 2 code — every access they guard is itself
// atomic — so weakening them is unobservable, the same phenomenon the
// paper reports for the Chase-Lev deque in §6.4.3.
func TestInjectionsDetected(t *testing.T) {
	prog := func(ord *memmodel.OrderTable) func(*checker.Thread) {
		return func(root *checker.Thread) {
			q := New(root, "q", ord)
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
			q.Deq(root)
		}
	}
	// The correct configuration is clean.
	clean := explore(Spec("q"), prog(DefaultOrders()))
	if clean.FailureCount != 0 {
		t.Fatalf("default orders must be clean: %v", clean.FirstFailure())
	}
	loadBearing := map[string]bool{
		SiteEnqCASNext:  true,
		SiteDeqLoadNext: true,
	}
	for _, weak := range DefaultOrders().Weakenings() {
		name, site := describeInjection(t, weak)
		res := core.Explore(Spec("q"), checker.Config{StopAtFirst: true}, prog(weak))
		detected := res.FailureCount != 0
		if loadBearing[site] && !detected {
			t.Errorf("injection %s not detected", name)
		}
		if !loadBearing[site] && detected {
			t.Errorf("injection %s unexpectedly detected (%v) — overly strong analysis wrong?",
				name, res.FirstFailure())
		}
	}
}

func describeInjection(t *testing.T, weak *memmodel.OrderTable) (desc, site string) {
	t.Helper()
	if c := weak.Changes(); len(c) > 0 {
		return c[0].Name + "->" + c[0].Order.String(), c[0].Name
	}
	t.Fatal("no weakened site found")
	return "", ""
}
