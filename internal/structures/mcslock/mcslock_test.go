package mcslock

import (
	"testing"

	"repro/internal/checker"
	"repro/internal/core"
	"repro/internal/memmodel"
)

// unitTestSpec: two threads lock/unlock with no critical-section data —
// violations surface through the sequential lock spec (assertions).
func unitTestSpec(ord *memmodel.OrderTable) func(*checker.Thread) {
	return func(root *checker.Thread) {
		l := New(root, "l", ord)
		body := func(tt *checker.Thread) {
			l.Lock(tt)
			l.Unlock(tt)
		}
		a := root.Spawn("a", body)
		b := root.Spawn("b", body)
		root.Join(a)
		root.Join(b)
	}
}

// unitTestData: two threads increment a plain counter under the lock —
// violations surface as data races (built-in).
func unitTestData(ord *memmodel.OrderTable) func(*checker.Thread) {
	return func(root *checker.Thread) {
		l := New(root, "l", ord)
		cnt := root.NewPlainInit("cnt", 0)
		body := func(tt *checker.Thread) {
			l.Lock(tt)
			cnt.Store(tt, cnt.Load(tt)+1)
			l.Unlock(tt)
		}
		a := root.Spawn("a", body)
		b := root.Spawn("b", body)
		root.Join(a)
		root.Join(b)
		root.Assert(cnt.Load(root) == 2, "lost update: %d", cnt.Load(root))
	}
}

func TestCorrectSpec(t *testing.T) {
	res := core.Explore(Spec("l"), checker.Config{}, unitTestSpec(nil))
	if res.FailureCount != 0 {
		t.Fatalf("correct MCS lock failed: %v", res.FirstFailure())
	}
	if res.Feasible == 0 {
		t.Fatal("no feasible executions")
	}
}

func TestCorrectData(t *testing.T) {
	res := core.Explore(Spec("l"), checker.Config{}, unitTestData(nil))
	if res.FailureCount != 0 {
		t.Fatalf("MCS lock failed to protect data: %v", res.FirstFailure())
	}
}

func TestSequentialRelock(t *testing.T) {
	res := core.Explore(Spec("l"), checker.Config{}, func(root *checker.Thread) {
		l := New(root, "l", nil)
		l.Lock(root)
		l.Unlock(root)
		l.Lock(root)
		l.Unlock(root)
	})
	if res.FailureCount != 0 {
		t.Fatalf("sequential relock failed: %v", res.FirstFailure())
	}
}

func TestThreeContenders(t *testing.T) {
	res := core.Explore(Spec("l"), checker.Config{MaxExecutions: 100000}, func(root *checker.Thread) {
		l := New(root, "l", nil)
		body := func(tt *checker.Thread) {
			l.Lock(tt)
			l.Unlock(tt)
		}
		a := root.Spawn("a", body)
		b := root.Spawn("b", body)
		c := root.Spawn("c", body)
		root.Join(a)
		root.Join(b)
		root.Join(c)
	})
	if res.FailureCount != 0 {
		t.Fatalf("three-contender MCS failed: %v", res.FirstFailure())
	}
}

// TestInjectionSweep runs both workloads per injection; the paper reports
// 8/8 for MCS (4 built-in + 4 assertion).
func TestInjectionSweep(t *testing.T) {
	detected, builtin, assertion := 0, 0, 0
	var missed []string
	weaks := DefaultOrders().Weakenings()
	for _, weak := range weaks {
		hit := false
		for _, prog := range []func(*checker.Thread){unitTestSpec(weak), unitTestData(weak)} {
			res := core.Explore(Spec("l"), checker.Config{StopAtFirst: true}, prog)
			if res.FailureCount != 0 {
				hit = true
				if res.HasBuiltIn() {
					builtin++
				} else {
					assertion++
				}
				break
			}
		}
		if hit {
			detected++
		} else {
			missed = append(missed, injectionName(weak))
		}
	}
	t.Logf("mcslock injections detected: %d/%d (%d built-in, %d assertion; missed: %v)",
		detected, len(weaks), builtin, assertion, missed)
	if detected != len(weaks) {
		t.Errorf("detection rate: %d/%d (paper: 8/8)", detected, len(weaks))
	}
}

func injectionName(weak *memmodel.OrderTable) string {
	if c := weak.Changes(); len(c) > 0 {
		return c[0].Name + "->" + c[0].Order.String()
	}
	return "?"
}
