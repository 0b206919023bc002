package msqueue

import (
	"testing"

	"repro/internal/checker"
	"repro/internal/core"
	"repro/internal/memmodel"
)

func explore(spec *core.Spec, prog func(*checker.Thread)) *checker.Result {
	return core.Explore(spec, checker.Config{}, prog)
}

// unitTests are the paper-scale workloads (§6.4: ≤3 threads, a few calls
// each). The symmetric test exercises producer–producer contention (the
// CAS on next, the tail swing, helping) and mixed-role synchronization;
// the split test has a pure consumer whose only happens-before edges come
// from the dequeue path, which makes the dequeue-side orders load-bearing
// in isolation. Detection for an injection means *some* unit test flags
// it, exactly as in the paper's "simple unit tests for each corner case".
func unitTests(ord *memmodel.OrderTable) []func(*checker.Thread) {
	symmetric := func(root *checker.Thread) {
		q := New(root, "q", ord)
		a := root.Spawn("a", func(tt *checker.Thread) {
			q.Enq(tt, 1)
			q.Deq(tt)
		})
		b := root.Spawn("b", func(tt *checker.Thread) {
			q.Enq(tt, 2)
			q.Deq(tt)
		})
		root.Join(a)
		root.Join(b)
		q.Deq(root)
	}
	split := func(root *checker.Thread) {
		q := New(root, "q", ord)
		p := root.Spawn("p", func(tt *checker.Thread) {
			q.Enq(tt, 1)
			q.Enq(tt, 2)
		})
		c := root.Spawn("c", func(tt *checker.Thread) {
			q.Deq(tt)
			q.Deq(tt)
		})
		root.Join(p)
		root.Join(c)
		q.Deq(root)
	}
	return []func(*checker.Thread){symmetric, split}
}

// unitTest is the primary (symmetric) workload.
func unitTest(ord *memmodel.OrderTable) func(*checker.Thread) {
	return unitTests(ord)[0]
}

func TestSingleThreadFIFO(t *testing.T) {
	res := explore(Spec("q"), func(root *checker.Thread) {
		q := New(root, "q", nil)
		root.Assert(q.Deq(root) == Empty, "fresh queue must be empty")
		q.Enq(root, 10)
		q.Enq(root, 20)
		q.Enq(root, 30)
		root.Assert(q.Deq(root) == 10, "deq 1")
		root.Assert(q.Deq(root) == 20, "deq 2")
		root.Assert(q.Deq(root) == 30, "deq 3")
		root.Assert(q.Deq(root) == Empty, "drained queue must be empty")
	})
	if res.FailureCount != 0 {
		t.Fatalf("sequential M&S queue failed: %v", res.FirstFailure())
	}
}

func TestConcurrentCorrect(t *testing.T) {
	res := explore(Spec("q"), unitTest(nil))
	if res.FailureCount != 0 {
		t.Fatalf("correct M&S queue failed: %v", res.FirstFailure())
	}
	if res.Feasible == 0 {
		t.Fatal("no feasible executions")
	}
}

// TestTwoProducers: contention on the enqueue CAS with helping.
func TestTwoProducers(t *testing.T) {
	res := explore(Spec("q"), func(root *checker.Thread) {
		q := New(root, "q", nil)
		p1 := root.Spawn("p1", func(tt *checker.Thread) { q.Enq(tt, 1) })
		p2 := root.Spawn("p2", func(tt *checker.Thread) { q.Enq(tt, 2) })
		root.Join(p1)
		root.Join(p2)
		a := q.Deq(root)
		b := q.Deq(root)
		root.Assert(a != Empty && b != Empty, "both items present")
		root.Assert(a != b, "items distinct")
		root.Assert(q.Deq(root) == Empty, "then empty")
	})
	if res.FailureCount != 0 {
		t.Fatalf("two-producer M&S queue failed: %v", res.FirstFailure())
	}
}

// TestKnownBugEnqueue reproduces the first §6.4.1 bug: the weakened
// enqueue publication breaks the visibility of node contents.
func TestKnownBugEnqueue(t *testing.T) {
	res := core.Explore(Spec("q"), checker.Config{StopAtFirst: true}, unitTest(KnownBugEnqueue()))
	if res.FailureCount == 0 {
		t.Fatal("known enqueue bug not detected")
	}
}

// TestKnownBugDequeue reproduces the second §6.4.1 bug.
func TestKnownBugDequeue(t *testing.T) {
	res := core.Explore(Spec("q"), checker.Config{StopAtFirst: true}, unitTest(KnownBugDequeue()))
	if res.FailureCount == 0 {
		t.Fatal("known dequeue bug not detected")
	}
}

// TestInjectionSweep runs the full §6.4.2 injection experiment on this
// structure and reports the detection rate; the paper reports 10/10.
func TestInjectionSweep(t *testing.T) {
	detected := 0
	var missed []string
	for _, weak := range DefaultOrders().Weakenings() {
		hit := false
		for _, prog := range unitTests(weak) {
			res := core.Explore(Spec("q"), checker.Config{StopAtFirst: true}, prog)
			if res.FailureCount != 0 {
				hit = true
				break
			}
		}
		if hit {
			detected++
		} else {
			missed = append(missed, injectionName(weak))
		}
	}
	total := len(DefaultOrders().Weakenings())
	t.Logf("msqueue injections detected: %d/%d (missed: %v)", detected, total, missed)
	if detected != total {
		t.Errorf("detection rate: %d/%d (paper: 10/10)", detected, total)
	}
}

func injectionName(weak *memmodel.OrderTable) string {
	if c := weak.Changes(); len(c) > 0 {
		return c[0].Name + "->" + c[0].Order.String()
	}
	return "?"
}
