package core

import (
	"testing"

	"repro/internal/checker"
	"repro/internal/memmodel"
)

// runOnce executes prog under the checker a single time with a monitor
// installed and returns the recorded calls.
func runOnce(t *testing.T, spec *Spec, prog func(*checker.Thread)) []*Call {
	t.Helper()
	var calls []*Call
	cfg := checker.Config{
		MaxExecutions: 1,
		OnRunStart:    func(sys *checker.System) { Install(sys, spec) },
		OnExecution: func(sys *checker.System) []*checker.Failure {
			calls = FromSys(sys).Calls()
			return nil
		},
	}
	res := checker.Explore(cfg, prog)
	if res.Feasible == 0 {
		t.Fatalf("no feasible execution: %v", res)
	}
	return calls
}

func trivialSpec() *Spec {
	return &Spec{
		Name:     "t",
		NewState: func() State { return nil },
		Methods: map[string]*MethodSpec{
			"m": {}, "n": {},
		},
	}
}

// TestBeginEndRecordsCall: method boundaries capture thread, args, and
// return value.
func TestBeginEndRecordsCall(t *testing.T) {
	calls := runOnce(t, trivialSpec(), func(root *checker.Thread) {
		mon := Of(root)
		c := mon.Begin(root, "m", 3, 4)
		c.End(root, 7)
	})
	if len(calls) != 1 {
		t.Fatalf("expected 1 call, got %d", len(calls))
	}
	c := calls[0]
	if c.Name != "m" || c.Arg(0) != 3 || c.Arg(1) != 4 || !c.HasRet || c.Ret != 7 {
		t.Errorf("call mis-recorded: %s", c)
	}
	if c.Thread != 0 {
		t.Errorf("thread = %d, want 0", c.Thread)
	}
}

// TestNestedCallsUseOutermost: per §4.3, only the outermost API call is
// recorded; inner Begin/End pairs are inert.
func TestNestedCallsUseOutermost(t *testing.T) {
	calls := runOnce(t, trivialSpec(), func(root *checker.Thread) {
		mon := Of(root)
		outer := mon.Begin(root, "m")
		inner := mon.Begin(root, "n") // nested: must not be recorded
		inner.End(root, 1)
		outer.End(root, 2)
	})
	if len(calls) != 1 || calls[0].Name != "m" || calls[0].Ret != 2 {
		t.Fatalf("nested call handling wrong: %v", calls)
	}
}

// TestOPDefineCapturesPrecedingAction: the ordering point is the atomic
// operation immediately before the annotation.
func TestOPDefineCapturesPrecedingAction(t *testing.T) {
	calls := runOnce(t, trivialSpec(), func(root *checker.Thread) {
		mon := Of(root)
		x := root.NewAtomicInit("x", 0)
		c := mon.Begin(root, "m")
		x.Store(root, memmodel.Release, 5)
		c.OPDefine(root, true)
		c.EndVoid(root)
	})
	c := calls[0]
	if len(c.OPs) != 1 {
		t.Fatalf("expected 1 OP, got %d", len(c.OPs))
	}
	if c.OPs[0].Kind != memmodel.KindAtomicStore || c.OPs[0].Value != 5 {
		t.Errorf("wrong OP action: %v", c.OPs[0])
	}
}

// TestOPDefineConditionFalse: a false condition records nothing.
func TestOPDefineConditionFalse(t *testing.T) {
	calls := runOnce(t, trivialSpec(), func(root *checker.Thread) {
		mon := Of(root)
		x := root.NewAtomicInit("x", 0)
		c := mon.Begin(root, "m")
		x.Store(root, memmodel.Release, 5)
		c.OPDefine(root, false)
		c.EndVoid(root)
	})
	if len(calls[0].OPs) != 0 {
		t.Errorf("false condition recorded an OP")
	}
}

// TestOPClearDefineKeepsLastIteration: the loop idiom — only the final
// iteration's operation remains.
func TestOPClearDefineKeepsLastIteration(t *testing.T) {
	calls := runOnce(t, trivialSpec(), func(root *checker.Thread) {
		mon := Of(root)
		x := root.NewAtomicInit("x", 0)
		c := mon.Begin(root, "m")
		for i := 0; i < 3; i++ {
			x.Store(root, memmodel.Relaxed, memmodel.Value(i))
			c.OPClearDefine(root, true)
		}
		c.EndVoid(root)
	})
	c := calls[0]
	if len(c.OPs) != 1 || c.OPs[0].Value != 2 {
		t.Fatalf("OPClearDefine should keep only the last iteration: %v", c.OPs)
	}
}

// TestPotentialOPPromotion: a PotentialOP is inert until an OPCheck with
// the matching label promotes it (§4.2).
func TestPotentialOPPromotion(t *testing.T) {
	calls := runOnce(t, trivialSpec(), func(root *checker.Thread) {
		mon := Of(root)
		x := root.NewAtomicInit("x", 0)
		c := mon.Begin(root, "m")
		x.Store(root, memmodel.Relaxed, 1)
		c.PotentialOP(root, "A", true)
		x.Store(root, memmodel.Relaxed, 2)
		c.PotentialOP(root, "B", true)
		c.OPCheck(root, "A", true)
		c.EndVoid(root)
	})
	c := calls[0]
	if len(c.OPs) != 1 || c.OPs[0].Value != 1 {
		t.Fatalf("OPCheck(A) should promote only the A potential: %v", c.OPs)
	}
	if len(c.potentials) != 1 || c.potentials[0].label != "B" {
		t.Fatalf("unpromoted potentials should remain: %v", c.potentials)
	}
}

// TestOPCheckConditionFalse: a false OPCheck promotes nothing.
func TestOPCheckConditionFalse(t *testing.T) {
	calls := runOnce(t, trivialSpec(), func(root *checker.Thread) {
		mon := Of(root)
		x := root.NewAtomicInit("x", 0)
		c := mon.Begin(root, "m")
		x.Store(root, memmodel.Relaxed, 1)
		c.PotentialOP(root, "A", true)
		c.OPCheck(root, "A", false)
		c.EndVoid(root)
	})
	if len(calls[0].OPs) != 0 {
		t.Error("false OPCheck promoted a potential OP")
	}
}

// TestOPClearRemovesPotentials: OPClear drops pending potentials too.
func TestOPClearRemovesPotentials(t *testing.T) {
	calls := runOnce(t, trivialSpec(), func(root *checker.Thread) {
		mon := Of(root)
		x := root.NewAtomicInit("x", 0)
		c := mon.Begin(root, "m")
		x.Store(root, memmodel.Relaxed, 1)
		c.PotentialOP(root, "A", true)
		c.OPClear(root, true)
		c.OPCheck(root, "A", true) // nothing left to promote
		c.EndVoid(root)
	})
	if len(calls[0].OPs) != 0 {
		t.Error("OPClear did not remove potentials")
	}
}

// TestNilMonitorIsInert: instrumented structures run fine without an
// installed monitor (production mode — the paper's same-source property).
func TestNilMonitorIsInert(t *testing.T) {
	res := checker.Explore(checker.Config{MaxExecutions: 1}, func(root *checker.Thread) {
		mon := Of(root) // nil: nothing installed
		c := mon.Begin(root, "m", 1)
		c.OPDefine(root, true)
		c.SetAux("k", 2)
		c.End(root, 3)
	})
	if res.FailureCount != 0 {
		t.Fatalf("nil monitor should be inert: %v", res.FirstFailure())
	}
}

// TestUnendedCallCaught: a Begin without End is flagged by Check.
func TestUnendedCallCaught(t *testing.T) {
	spec := trivialSpec()
	var fails []*checker.Failure
	cfg := checker.Config{
		MaxExecutions: 1,
		OnRunStart:    func(sys *checker.System) { Install(sys, spec) },
		OnExecution: func(sys *checker.System) []*checker.Failure {
			fails = FromSys(sys).Check().Failures
			return nil
		},
	}
	checker.Explore(cfg, func(root *checker.Thread) {
		mon := Of(root)
		mon.Begin(root, "m") // never ended
	})
	if len(fails) == 0 {
		t.Error("unended call not reported")
	}
}

// TestSetAuxThroughCtx: aux values set via the context reach the call.
func TestSetAuxThroughCtx(t *testing.T) {
	calls := runOnce(t, trivialSpec(), func(root *checker.Thread) {
		mon := Of(root)
		c := mon.Begin(root, "m")
		c.SetAux("extra", 99)
		c.EndVoid(root)
	})
	if calls[0].GetAux("extra") != 99 {
		t.Errorf("aux = %d, want 99", calls[0].GetAux("extra"))
	}
}

// TestCrossThreadOPOrdering: ordering points in different threads with a
// release/acquire edge order the calls end to end through the pipeline.
func TestCrossThreadOPOrdering(t *testing.T) {
	type obs struct{ ordered, reverse bool }
	var seen obs
	spec := trivialSpec()
	cfg := checker.Config{
		OnRunStart: func(sys *checker.System) { Install(sys, spec) },
		OnExecution: func(sys *checker.System) []*checker.Failure {
			calls := FromSys(sys).Calls()
			if len(calls) == 2 {
				r := buildOrder(calls)
				if r.ordered(calls[0], calls[1]) {
					seen.ordered = true
				}
				if r.ordered(calls[1], calls[0]) {
					seen.reverse = true
				}
			}
			return nil
		},
	}
	res := checker.Explore(cfg, func(root *checker.Thread) {
		mon := Of(root)
		x := root.NewAtomicInit("x", 0)
		a := root.Spawn("a", func(tt *checker.Thread) {
			c := mon.Begin(tt, "m")
			x.Store(tt, memmodel.Release, 1)
			c.OPDefine(tt, true)
			c.EndVoid(tt)
		})
		b := root.Spawn("b", func(tt *checker.Thread) {
			c := mon.Begin(tt, "n")
			v := x.Load(tt, memmodel.Acquire)
			c.OPDefine(tt, true)
			c.End(tt, v)
		})
		root.Join(a)
		root.Join(b)
	})
	if !res.Exhausted {
		t.Fatalf("not exhausted: %v", res)
	}
	if !seen.ordered {
		t.Error("never saw the store-before-load ordering (rf edge should order the calls)")
	}
	if seen.reverse {
		t.Error("saw a bogus reverse ordering (a load cannot happen-before the store it reads)")
	}
}

// TestRecordingAllocs: once an execution's System holds a Monitor,
// Install and a call's annotations reuse the Monitor and its Call record,
// so recording allocates nothing. The script runs inside one execution's
// root thread, after the store its ordering points name.
func TestRecordingAllocs(t *testing.T) {
	spec := trivialSpec()
	var allocs float64
	var calls []*Call
	res := checker.Explore(checker.Config{MaxExecutions: 1}, func(root *checker.Thread) {
		root.NewAtomicInit("x", 0)
		sys := root.Sys()
		allocs = testing.AllocsPerRun(100, func() {
			m := Install(sys, spec)
			c := m.Begin(root, "m", 1, 2)
			c.SetAux("b", 3)
			c.SetAux("a", 4)
			c.OPDefine(root, true)
			c.PotentialOP(root, "p", true)
			c.OPCheck(root, "p", true)
			c.End(root, 5)
			calls = m.Calls()
		})
	})
	if res.Feasible != 1 || len(calls) != 1 {
		t.Fatalf("script did not record one call: %v, %d calls", res, len(calls))
	}
	if c := calls[0]; len(c.Args) != 2 || len(c.OPs) != 2 || c.GetAux("a") != 4 || c.Ret != 5 {
		t.Errorf("call mis-recorded: %s, %d OPs, aux a = %d", c, len(c.OPs), c.GetAux("a"))
	}
	if allocs != 0 {
		t.Errorf("Install plus one call's annotations allocated %.0f times per run, want 0", allocs)
	}
}
