package mpmc

import (
	"testing"

	"repro/internal/checker"
	"repro/internal/core"
	"repro/internal/memmodel"
)

// unitTest: a producer of three items and a consumer of three over a
// 2-slot queue, so slot 0 is reused concurrently (epoch 2) — the handoff
// chain every order in the implementation exists to protect.
func unitTest(ord *memmodel.OrderTable) func(*checker.Thread) {
	return func(root *checker.Thread) {
		q := New(root, "q", ord, 2)
		a := root.Spawn("a", func(tt *checker.Thread) {
			q.Enq(tt, 1)
			q.Enq(tt, 2)
			q.Enq(tt, 3)
		})
		b := root.Spawn("b", func(tt *checker.Thread) {
			q.Deq(tt)
			q.Deq(tt)
			q.Deq(tt)
		})
		root.Join(a)
		root.Join(b)
	}
}

func TestSequential(t *testing.T) {
	res := core.Explore(Spec("q", 2), checker.Config{}, func(root *checker.Thread) {
		q := New(root, "q", nil, 2)
		q.Enq(root, 1)
		q.Enq(root, 2)
		root.Assert(q.Deq(root) == 1, "deq 1")
		q.Enq(root, 3) // exercises slot reuse (epoch 2)
		root.Assert(q.Deq(root) == 2, "deq 2")
		root.Assert(q.Deq(root) == 3, "deq 3")
	})
	if res.FailureCount != 0 {
		t.Fatalf("sequential MPMC failed: %v", res.FirstFailure())
	}
}

func TestConcurrentCorrect(t *testing.T) {
	res := core.Explore(Spec("q", 2), checker.Config{}, unitTest(nil))
	if res.FailureCount != 0 {
		t.Fatalf("correct MPMC failed: %v", res.FirstFailure())
	}
	if res.Feasible == 0 {
		t.Fatal("no feasible executions")
	}
}

// TestFullQueueBlocks: a producer blocked on a full queue resumes once a
// consumer frees a slot.
func TestFullQueueBlocks(t *testing.T) {
	res := core.Explore(Spec("q", 2), checker.Config{}, func(root *checker.Thread) {
		q := New(root, "q", nil, 2)
		p := root.Spawn("p", func(tt *checker.Thread) {
			q.Enq(tt, 1)
			q.Enq(tt, 2)
			q.Enq(tt, 3) // blocks until the consumer drains one
		})
		c := root.Spawn("c", func(tt *checker.Thread) {
			q.Deq(tt)
		})
		root.Join(p)
		root.Join(c)
	})
	if res.FailureCount != 0 {
		t.Fatalf("full-queue blocking failed: %v", res.FirstFailure())
	}
}

// TestInjectionSweep reproduces the paper's 50% detection story: the
// sequence-handoff sites are caught (by the admissibility rule), while
// the seq_cst ticket counters and the redundant data orders exist only to
// protect counter rollover and cannot be observed by rollover-free unit
// tests.
func TestInjectionSweep(t *testing.T) {
	detectable := map[string]bool{
		SiteEnqLoadSeq:  true,
		SiteEnqStoreSeq: true,
		SiteDeqLoadSeq:  true,
		SiteDeqStoreSeq: true,
	}
	detected, admissibility := 0, 0
	var missed, unexpected []string
	weaks := DefaultOrders().Weakenings()
	for _, weak := range weaks {
		name, site := injectionName(weak)
		res := core.Explore(Spec("q", 2), checker.Config{StopAtFirst: true}, unitTest(weak))
		if res.FailureCount != 0 {
			detected++
			if res.HasKind(checker.FailAdmissibility) {
				admissibility++
			}
			if !detectable[site] {
				unexpected = append(unexpected, name)
			}
		} else if detectable[site] {
			missed = append(missed, name)
		}
	}
	t.Logf("mpmc injections detected: %d/%d (%d admissibility; missed: %v; unexpected: %v)",
		detected, len(weaks), admissibility, missed, unexpected)
	if len(missed) != 0 {
		t.Errorf("load-bearing injections missed: %v", missed)
	}
	if len(unexpected) != 0 {
		t.Errorf("rollover-protection injections unexpectedly detected: %v", unexpected)
	}
	if admissibility == 0 {
		t.Error("expected admissibility-channel detections (paper: 4/4 via admissibility)")
	}
}

func injectionName(weak *memmodel.OrderTable) (desc, site string) {
	if c := weak.Changes(); len(c) > 0 {
		return c[0].Name + "->" + c[0].Order.String(), c[0].Name
	}
	return "?", "?"
}
