package rcu

import (
	"testing"

	"repro/internal/checker"
	"repro/internal/core"
	"repro/internal/memmodel"
)

// unitTest: one updater and one reader over an RCU cell (plus a final
// main-thread read) — the paper-scale RCU workload (47 executions in
// Figure 7).
func unitTest(ord *memmodel.OrderTable) func(*checker.Thread) {
	return func(root *checker.Thread) {
		r := New(root, "r", ord, 100)
		w := root.Spawn("w", func(tt *checker.Thread) {
			r.Update(tt, 200)
		})
		rd := root.Spawn("rd", func(tt *checker.Thread) {
			v := r.Read(tt)
			tt.Assert(v == 100 || v == 200, "invalid read: %d", v)
		})
		root.Join(w)
		root.Join(rd)
		root.Assert(r.Read(root) == 200, "final read")
	}
}

func TestSequential(t *testing.T) {
	res := core.Explore(Spec("r", 1), checker.Config{}, func(root *checker.Thread) {
		r := New(root, "r", nil, 1)
		root.Assert(r.Read(root) == 1, "initial")
		r.Update(root, 2)
		root.Assert(r.Read(root) == 2, "after update")
	})
	if res.FailureCount != 0 {
		t.Fatalf("sequential RCU failed: %v", res.FirstFailure())
	}
}

func TestConcurrentCorrect(t *testing.T) {
	res := core.Explore(Spec("r", 100), checker.Config{}, unitTest(nil))
	if res.FailureCount != 0 {
		t.Fatalf("correct RCU failed: %v", res.FirstFailure())
	}
	if res.Feasible == 0 {
		t.Fatal("no feasible executions")
	}
}

// TestTwoReaders: two concurrent read-side critical sections against one
// updater.
func TestTwoReaders(t *testing.T) {
	res := core.Explore(Spec("r", 1), checker.Config{}, func(root *checker.Thread) {
		r := New(root, "r", nil, 1)
		w := root.Spawn("w", func(tt *checker.Thread) { r.Update(tt, 2) })
		r1 := root.Spawn("r1", func(tt *checker.Thread) { r.Read(tt) })
		r2 := root.Spawn("r2", func(tt *checker.Thread) { r.Read(tt) })
		root.Join(w)
		root.Join(r1)
		root.Join(r2)
	})
	if res.FailureCount != 0 {
		t.Fatalf("two-reader RCU failed: %v", res.FirstFailure())
	}
}

// TestInjectionSweep: the grace-period handshake should make every
// weakened site observable, dominated by data races on the reclaimed
// generation — the paper reports 3/3, all built-in.
func TestInjectionSweep(t *testing.T) {
	detected, builtin := 0, 0
	var missed []string
	weaks := DefaultOrders().Weakenings()
	for _, weak := range weaks {
		res := core.Explore(Spec("r", 100), checker.Config{StopAtFirst: true}, unitTest(weak))
		if res.FailureCount != 0 {
			detected++
			if res.HasBuiltIn() {
				builtin++
			}
		} else {
			missed = append(missed, injectionName(weak))
		}
	}
	t.Logf("rcu injections detected: %d/%d (%d built-in; missed: %v)",
		detected, len(weaks), builtin, missed)
	if detected != len(weaks) {
		t.Errorf("detection rate: %d/%d (paper: 3/3)", detected, len(weaks))
	}
	if builtin == 0 {
		t.Error("expected built-in (data race) detections")
	}
}

func injectionName(weak *memmodel.OrderTable) string {
	if c := weak.Changes(); len(c) > 0 {
		return c[0].Name + "->" + c[0].Order.String()
	}
	return "?"
}
