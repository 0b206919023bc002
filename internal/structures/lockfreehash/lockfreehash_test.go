package lockfreehash

import (
	"testing"

	"repro/internal/checker"
	"repro/internal/core"
	"repro/internal/memmodel"
)

// unitTest: two threads put and get on overlapping keys.
func unitTest(ord *memmodel.OrderTable) func(*checker.Thread) {
	return func(root *checker.Thread) {
		tbl := New(root, "h", ord, 4)
		a := root.Spawn("a", func(tt *checker.Thread) {
			tbl.Put(tt, 1, 10)
			tbl.Get(tt, 2)
		})
		b := root.Spawn("b", func(tt *checker.Thread) {
			tbl.Put(tt, 2, 20)
			tbl.Get(tt, 1)
		})
		root.Join(a)
		root.Join(b)
		root.Assert(tbl.Get(root, 1) == 10, "final get(1)")
		root.Assert(tbl.Get(root, 2) == 20, "final get(2)")
	}
}

func TestSequential(t *testing.T) {
	res := core.Explore(Spec("h"), checker.Config{}, func(root *checker.Thread) {
		tbl := New(root, "h", nil, 4)
		root.Assert(tbl.Get(root, 1) == NotFound, "fresh get")
		tbl.Put(root, 1, 10)
		root.Assert(tbl.Get(root, 1) == 10, "get after put")
		tbl.Put(root, 1, 11)
		root.Assert(tbl.Get(root, 1) == 11, "get after update")
		tbl.Put(root, 5, 50) // collides with key 1 mod 4
		root.Assert(tbl.Get(root, 5) == 50, "get after collision probe")
		root.Assert(tbl.Get(root, 1) == 11, "collision left key 1 intact")
	})
	if res.FailureCount != 0 {
		t.Fatalf("sequential hashtable failed: %v", res.FirstFailure())
	}
}

func TestConcurrentCorrect(t *testing.T) {
	res := core.Explore(Spec("h"), checker.Config{}, unitTest(nil))
	if res.FailureCount != 0 {
		t.Fatalf("correct hashtable failed: %v", res.FirstFailure())
	}
	if res.Feasible == 0 {
		t.Fatal("no feasible executions")
	}
}

// TestSameKeyContention: concurrent puts to one key; a subsequent get
// returns one of them and the final state is the last put in ~r~.
func TestSameKeyContention(t *testing.T) {
	res := core.Explore(Spec("h"), checker.Config{}, func(root *checker.Thread) {
		tbl := New(root, "h", nil, 4)
		a := root.Spawn("a", func(tt *checker.Thread) { tbl.Put(tt, 1, 10) })
		b := root.Spawn("b", func(tt *checker.Thread) { tbl.Put(tt, 1, 11) })
		root.Join(a)
		root.Join(b)
		v := tbl.Get(root, 1)
		root.Assert(v == 10 || v == 11, "final value %d", v)
	})
	if res.FailureCount != 0 {
		t.Fatalf("same-key contention failed: %v", res.FirstFailure())
	}
}

// TestInjectionSweep: the paper reports 4/4 for the hashtable
// (2 built-in + 2 assertion). The observable workload is same-key
// contention: two writers to one key plus readers in both threads, where
// losing the seq_cst ordering lets a reader observe the two puts in an
// order no sequential history allows.
func TestInjectionSweep(t *testing.T) {
	contended := func(ord *memmodel.OrderTable) func(*checker.Thread) {
		return func(root *checker.Thread) {
			tbl := New(root, "h", ord, 4)
			a := root.Spawn("a", func(tt *checker.Thread) {
				tbl.Put(tt, 1, 10)
				tbl.Get(tt, 1)
			})
			b := root.Spawn("b", func(tt *checker.Thread) {
				tbl.Put(tt, 1, 11)
				tbl.Get(tt, 1)
			})
			root.Join(a)
			root.Join(b)
		}
	}
	detected := 0
	var missed []string
	weaks := DefaultOrders().Weakenings()
	for _, weak := range weaks {
		hit := false
		for _, prog := range []func(*checker.Thread){contended(weak), unitTest(weak)} {
			res := core.Explore(Spec("h"), checker.Config{StopAtFirst: true}, prog)
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
	t.Logf("lockfreehash injections detected: %d/%d (missed: %v)", detected, len(weaks), missed)
	// The two key-store/key-load weakenings escape: a stale key probe
	// only makes the first search miss, and the lock fallback repairs
	// the ordering. In our port they are redundant strength; the paper's
	// (lazily allocated) implementation had observable counterparts and
	// reports 4/4.
	if detected != 2 {
		t.Errorf("detection rate: %d/%d, missed %v (expected the 2 value-path sites detected)",
			detected, len(weaks), missed)
	}
}

func injectionName(weak *memmodel.OrderTable) string {
	if c := weak.Changes(); len(c) > 0 {
		return c[0].Name + "->" + c[0].Order.String()
	}
	return "?"
}
