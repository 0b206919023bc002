package chaselev

import (
	"testing"

	"repro/internal/checker"
	"repro/internal/core"
	"repro/internal/memmodel"
)

// unitTest is the workload the paper used to expose the known bug: an
// owner that pushes three items (forcing a resize of the 2-slot buffer)
// and takes two, racing a thief that steals twice.
func unitTest(ord *memmodel.OrderTable, opts ...Option) func(*checker.Thread) {
	return func(root *checker.Thread) {
		d := New(root, "d", ord, 2, opts...)
		owner := root.Spawn("owner", func(tt *checker.Thread) {
			d.Push(tt, 1)
			d.Push(tt, 2)
			d.Push(tt, 3) // resizes
			d.Take(tt)
			d.Take(tt)
		})
		thief := root.Spawn("thief", func(tt *checker.Thread) {
			d.Steal(tt)
			d.Steal(tt)
		})
		root.Join(owner)
		root.Join(thief)
	}
}

func TestSequentialLIFO(t *testing.T) {
	res := core.Explore(Spec("d"), checker.Config{}, func(root *checker.Thread) {
		d := New(root, "d", nil, 2)
		root.Assert(d.Take(root) == Empty, "fresh take")
		d.Push(root, 1)
		d.Push(root, 2)
		root.Assert(d.Take(root) == 2, "take LIFO")
		root.Assert(d.Steal(root) == 1, "steal FIFO")
		root.Assert(d.Take(root) == Empty, "drained")
	})
	if res.FailureCount != 0 {
		t.Fatalf("sequential deque failed: %v", res.FirstFailure())
	}
}

func TestResizePreservesElements(t *testing.T) {
	res := core.Explore(Spec("d"), checker.Config{}, func(root *checker.Thread) {
		d := New(root, "d", nil, 2)
		d.Push(root, 1)
		d.Push(root, 2)
		d.Push(root, 3) // grow
		root.Assert(d.Steal(root) == 1, "steal oldest")
		root.Assert(d.Take(root) == 3, "take newest")
		root.Assert(d.Take(root) == 2, "take middle")
	})
	if res.FailureCount != 0 {
		t.Fatalf("resize failed: %v", res.FirstFailure())
	}
}

func TestConcurrentCorrect(t *testing.T) {
	res := core.Explore(Spec("d"), checker.Config{}, unitTest(nil))
	if res.FailureCount != 0 {
		t.Fatalf("correct deque failed: %v", res.FirstFailure())
	}
	if res.Feasible == 0 {
		t.Fatal("no feasible executions")
	}
}

// TestLastElementRace: owner and thief race for a single element; exactly
// one of them gets it.
func TestLastElementRace(t *testing.T) {
	var got, stole memmodel.Value
	cfg := checker.Config{
		OnExecution: func(sys *checker.System) []*checker.Failure {
			if got != Empty && stole != Empty {
				return []*checker.Failure{{
					Kind: checker.FailAssertion,
					Msg:  "both owner and thief got the last element",
				}}
			}
			return nil
		},
	}
	res := core.Explore(Spec("d"), cfg, func(root *checker.Thread) {
		d := New(root, "d", nil, 2)
		owner := root.Spawn("owner", func(tt *checker.Thread) {
			d.Push(tt, 7)
			got = d.Take(tt)
		})
		thief := root.Spawn("thief", func(tt *checker.Thread) {
			stole = d.Steal(tt)
		})
		root.Join(owner)
		root.Join(thief)
	})
	if res.FailureCount != 0 {
		t.Fatalf("last-element race failed: %v", res.FirstFailure())
	}
}

// TestKnownBugUninit reproduces §6.4.1: the published version's weak
// array publication lets a racing steal read an uninitialized slot —
// caught by the built-in check.
func TestKnownBugUninit(t *testing.T) {
	res := core.Explore(Spec("d"), checker.Config{StopAtFirst: true}, unitTest(KnownBugOrders()))
	if !res.HasKind(checker.FailUninitLoad) {
		t.Fatalf("expected the uninitialized-load detection, got %v", res)
	}
}

// TestKnownBugSpecViolation mirrors the paper's second experiment: with
// the uninitialized-load report silenced (buffers pre-zeroed), CDSSpec
// still catches the bug as a wrong-item specification violation.
func TestKnownBugSpecViolation(t *testing.T) {
	res := core.Explore(Spec("d"), checker.Config{StopAtFirst: true, DisableLifetimeCheck: true},
		unitTest(KnownBugOrders(), WithInitializedCells()))
	if res.FailureCount == 0 {
		t.Fatal("known bug not detected with initialized buffers")
	}
	if f := res.FirstFailure(); f.Kind.BuiltIn() {
		t.Fatalf("expected a specification violation, got built-in %v", f)
	}
}

// TestOverlyStrongTopCAS reproduces §6.4.3: relaxing the take-side CAS on
// top triggers no violation across the full exploration — the overly
// strong parameter the paper reported to the deque's authors.
func TestOverlyStrongTopCAS(t *testing.T) {
	res := core.Explore(Spec("d"), checker.Config{}, unitTest(OverlyStrongOrders()))
	if res.FailureCount != 0 {
		t.Fatalf("take CAS relaxation should be unobservable (§6.4.3), got %v", res.FirstFailure())
	}
	if !res.Exhausted {
		t.Fatal("exploration did not exhaust the state space")
	}
}

// TestInjectionSweep: the paper reports 7/7 (3 built-in + 4 assertion);
// our port's take-side CAS is the §6.4.3 overly strong parameter, so its
// injection must NOT be detected.
func TestInjectionSweep(t *testing.T) {
	// lastElement focuses on the owner/thief arbitration for a single
	// element, the race the seq_cst fences and CASes exist for.
	lastElement := func(ord *memmodel.OrderTable) func(*checker.Thread) {
		return func(root *checker.Thread) {
			d := New(root, "d", ord, 2)
			var got, stole memmodel.Value
			owner := root.Spawn("owner", func(tt *checker.Thread) {
				d.Push(tt, 7)
				got = d.Take(tt)
			})
			thief := root.Spawn("thief", func(tt *checker.Thread) {
				stole = d.Steal(tt)
			})
			root.Join(owner)
			root.Join(thief)
			root.Assert(got == Empty || stole == Empty, "element duplicated")
		}
	}
	detected, builtin := 0, 0
	var missed []string
	weaks := DefaultOrders().Weakenings()
	for _, weak := range weaks {
		name, site := injectionName(weak)
		hit := false
		isBuiltin := false
		for _, prog := range []func(*checker.Thread){unitTest(weak), lastElement(weak)} {
			res := core.Explore(Spec("d"), checker.Config{StopAtFirst: true}, prog)
			if res.FailureCount != 0 {
				hit = true
				isBuiltin = res.HasBuiltIn()
				break
			}
		}
		if hit {
			detected++
			if isBuiltin {
				builtin++
			}
			if site == SiteTakeCASTop {
				t.Errorf("overly strong site %s unexpectedly detected", name)
			}
		} else if site != SiteTakeCASTop {
			missed = append(missed, name)
		}
	}
	t.Logf("chaselev injections detected: %d/%d (%d built-in; missed: %v)",
		detected, len(weaks), builtin, missed)
	// The acquire loads of top exist for stolen-slot reuse, observable
	// only through modification orders our interleaving-based model
	// excludes (DESIGN.md limitation 2); everything else must be caught.
	allowedMiss := map[string]bool{SitePushLoadTop: true, SiteStealLoadTop: true, SiteStealCASTop: true}
	for _, m := range missed {
		ok := false
		for site := range allowedMiss {
			if len(m) > len(site) && m[:len(site)] == site {
				ok = true
			}
		}
		if !ok {
			t.Errorf("unexpected missed injection: %s", m)
		}
	}
	if detected < 6 {
		t.Errorf("detected %d/%d, want at least 6 (paper: 7/7)", detected, len(weaks))
	}
}

func injectionName(weak *memmodel.OrderTable) (desc, site string) {
	if c := weak.Changes(); len(c) > 0 {
		return c[0].Name + "->" + c[0].Order.String(), c[0].Name
	}
	return "?", "?"
}
