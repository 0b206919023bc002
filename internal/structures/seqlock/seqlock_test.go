package seqlock

import (
	"testing"

	"repro/internal/checker"
	"repro/internal/core"
	"repro/internal/memmodel"
)

// unitTest: one writer of two values, one concurrent reader, one
// main-thread read at the end.
func unitTest(ord *memmodel.OrderTable) func(*checker.Thread) {
	return func(root *checker.Thread) {
		s := New(root, "s", ord)
		w := root.Spawn("w", func(tt *checker.Thread) {
			s.Write(tt, 10)
			s.Write(tt, 20)
		})
		r := root.Spawn("r", func(tt *checker.Thread) {
			s.Read(tt)
		})
		root.Join(w)
		root.Join(r)
		root.Assert(s.Read(root) == 20, "final read must see the last write")
	}
}

func TestSequentialReadsLatest(t *testing.T) {
	res := core.Explore(Spec("s"), checker.Config{}, func(root *checker.Thread) {
		s := New(root, "s", nil)
		root.Assert(s.Read(root) == 0, "initial value")
		s.Write(root, 7)
		root.Assert(s.Read(root) == 7, "after write")
	})
	if res.FailureCount != 0 {
		t.Fatalf("sequential seqlock failed: %v", res.FirstFailure())
	}
}

func TestConcurrentCorrect(t *testing.T) {
	res := core.Explore(Spec("s"), checker.Config{}, unitTest(nil))
	if res.FailureCount != 0 {
		t.Fatalf("correct seqlock failed: %v", res.FirstFailure())
	}
	if res.Feasible == 0 {
		t.Fatal("no feasible executions")
	}
}

// TestTwoWriters: the CAS serializes writers.
func TestTwoWriters(t *testing.T) {
	res := core.Explore(Spec("s"), checker.Config{}, func(root *checker.Thread) {
		s := New(root, "s", nil)
		w1 := root.Spawn("w1", func(tt *checker.Thread) { s.Write(tt, 1) })
		w2 := root.Spawn("w2", func(tt *checker.Thread) { s.Write(tt, 2) })
		root.Join(w1)
		root.Join(w2)
		v := s.Read(root)
		root.Assert(v == 1 || v == 2, "final value %d", v)
	})
	if res.FailureCount != 0 {
		t.Fatalf("two-writer seqlock failed: %v", res.FirstFailure())
	}
}

// TestReaderNeverTears: a reader concurrent with two writers returns only
// written values (enforced by the spec's justification).
func TestReaderNeverTears(t *testing.T) {
	res := core.Explore(Spec("s"), checker.Config{}, func(root *checker.Thread) {
		s := New(root, "s", nil)
		w := root.Spawn("w", func(tt *checker.Thread) {
			s.Write(tt, 1)
		})
		r := root.Spawn("r", func(tt *checker.Thread) {
			v := s.Read(tt)
			tt.Assert(v == 0 || v == 1, "torn read: %d", v)
		})
		root.Join(w)
		root.Join(r)
	})
	if res.FailureCount != 0 {
		t.Fatalf("seqlock tearing: %v", res.FirstFailure())
	}
}

// TestInjectionSweep: Figure 8 reports 5/5 detections for the seqlock,
// all via assertions. Our port has six injectable sites.
func TestInjectionSweep(t *testing.T) {
	detected := 0
	var missed []string
	weaks := DefaultOrders().Weakenings()
	for _, weak := range weaks {
		res := core.Explore(Spec("s"), checker.Config{StopAtFirst: true}, unitTest(weak))
		if res.FailureCount != 0 {
			detected++
		} else {
			missed = append(missed, injectionName(weak))
		}
	}
	t.Logf("seqlock injections detected: %d/%d (missed: %v)", detected, len(weaks), missed)
	// One injection is expected to escape: weakening the writer CAS from
	// acq_rel to release is observable only through a modification order
	// that contradicts every interleaving (an earlier writer's payload
	// stores ordered after a later writer's), which our operational model
	// excludes by construction (DESIGN.md limitation 2). The paper
	// reports 5/5 on its (differently parameterized) seqlock.
	if detected != len(weaks)-1 || len(missed) != 1 || missed[0] != "write_cas_seq->release" {
		t.Errorf("detection rate: %d/%d missed %v (expected to miss only write_cas_seq->release)",
			detected, len(weaks), missed)
	}
}

func injectionName(weak *memmodel.OrderTable) string {
	if c := weak.Changes(); len(c) > 0 {
		return c[0].Name + "->" + c[0].Order.String()
	}
	return "?"
}
