package core

import (
	"math/rand"
	"testing"

	"repro/internal/checker"
	"repro/internal/memmodel"
	"repro/internal/seqds"
)

// fabricate builds an ordering-point action for tests. The returned
// action's clock contains everything in preds (and itself).
func fabricate(thread int, tseq uint32, sc int, preds ...*memmodel.Action) *memmodel.Action {
	cv := memmodel.NewClockVector()
	cv.Set(thread, tseq)
	for _, p := range preds {
		cv.Merge(p.Clock)
	}
	return &memmodel.Action{Thread: thread, TSeq: tseq, SCIndex: sc, Clock: cv}
}

func makeCall(id int, name string, ret memmodel.Value, ops ...*memmodel.Action) *Call {
	return &Call{ID: id, Name: name, Ret: ret, HasRet: true, OPs: ops, ended: true}
}

func TestBuildOrderHappensBefore(t *testing.T) {
	a := fabricate(0, 1, -1)
	b := fabricate(0, 2, -1, a) // same thread, later
	c := fabricate(1, 1, -1)    // concurrent

	ca := makeCall(0, "m", 0, a)
	cb := makeCall(1, "m", 0, b)
	cc := makeCall(2, "m", 0, c)
	r := buildOrder([]*Call{ca, cb, cc})
	if !r.ordered(ca, cb) || r.ordered(cb, ca) {
		t.Error("hb-ordered calls not ordered in ~r~")
	}
	if r.ordered(ca, cc) || r.ordered(cc, ca) {
		t.Error("concurrent calls should be unordered")
	}
	conc := r.concurrent(cc)
	if len(conc) != 2 {
		t.Errorf("concurrent(cc) = %v, want both others", conc)
	}
	if got := r.predecessors(cb); len(got) != 1 || got[0] != ca {
		t.Errorf("predecessors(cb) = %v", got)
	}
}

func TestBuildOrderSC(t *testing.T) {
	a := fabricate(0, 1, 3)
	b := fabricate(1, 1, 7) // different thread, no hb, later in S
	ca := makeCall(0, "m", 0, a)
	cb := makeCall(1, "m", 0, b)
	r := buildOrder([]*Call{ca, cb})
	if !r.ordered(ca, cb) || r.ordered(cb, ca) {
		t.Error("sc-ordered ordering points must order the calls")
	}
}

func TestBuildOrderTransitive(t *testing.T) {
	a := fabricate(0, 1, -1)
	b := fabricate(1, 1, -1, a)
	c := fabricate(2, 1, -1, b)
	ca := makeCall(0, "m", 0, a)
	cb := makeCall(1, "m", 0, b)
	cc := makeCall(2, "m", 0, c)
	r := buildOrder([]*Call{ca, cb, cc})
	if !r.ordered(ca, cc) {
		t.Error("~r~ must be transitively closed")
	}
}

func TestCyclicDetection(t *testing.T) {
	// Two calls with two ordering points each, crossing: a1 -> b2 and
	// b1 -> a2 gives a ~r~ cycle.
	a1 := fabricate(0, 1, -1)
	b1 := fabricate(1, 1, -1)
	a2 := fabricate(0, 2, -1, b1)
	b2 := fabricate(1, 2, -1, a1)
	ca := makeCall(0, "m", 0, a1, a2)
	cb := makeCall(1, "m", 0, b1, b2)
	r := buildOrder([]*Call{ca, cb})
	if !r.cyclic() {
		t.Error("crossed ordering points should be cyclic")
	}
}

func countSorts(t *testing.T, calls []*Call, edge func(a, b *Call) bool) int {
	t.Helper()
	n := 0
	complete := topoSorts(calls, edge, 1_000_000, &checkScratch{}, func(h []*Call) bool { n++; return true })
	if !complete {
		t.Fatal("enumeration truncated")
	}
	return n
}

func TestTopoSortsAntichain(t *testing.T) {
	calls := []*Call{makeCall(0, "a", 0), makeCall(1, "b", 0), makeCall(2, "c", 0)}
	noEdge := func(a, b *Call) bool { return false }
	if got := countSorts(t, calls, noEdge); got != 6 {
		t.Errorf("antichain of 3 has %d sorts, want 6", got)
	}
}

func TestTopoSortsChain(t *testing.T) {
	calls := []*Call{makeCall(0, "a", 0), makeCall(1, "b", 0), makeCall(2, "c", 0)}
	chain := func(a, b *Call) bool { return a.ID < b.ID }
	if got := countSorts(t, calls, chain); got != 1 {
		t.Errorf("chain of 3 has %d sorts, want 1", got)
	}
}

func TestTopoSortsDiamond(t *testing.T) {
	// a -> b, a -> c, b -> d, c -> d: two sorts.
	calls := []*Call{makeCall(0, "a", 0), makeCall(1, "b", 0), makeCall(2, "c", 0), makeCall(3, "d", 0)}
	edge := func(a, b *Call) bool {
		if a.ID == 0 {
			return b.ID != 0
		}
		return b.ID == 3 && a.ID != 3
	}
	if got := countSorts(t, calls, edge); got != 2 {
		t.Errorf("diamond has %d sorts, want 2", got)
	}
}

func TestTopoSortsRespectEdges(t *testing.T) {
	calls := []*Call{makeCall(0, "a", 0), makeCall(1, "b", 0), makeCall(2, "c", 0)}
	edge := func(a, b *Call) bool { return a.ID == 0 && b.ID == 2 } // a before c
	seen := 0
	topoSorts(calls, edge, 100, &checkScratch{}, func(h []*Call) bool {
		seen++
		posA, posC := -1, -1
		for i, c := range h {
			if c.ID == 0 {
				posA = i
			}
			if c.ID == 2 {
				posC = i
			}
		}
		if posA > posC {
			t.Errorf("sort violates edge: %v", formatHistory(h))
		}
		return true
	})
	if seen != 3 {
		t.Errorf("expected 3 sorts, got %d", seen)
	}
}

func TestTopoSortsLimit(t *testing.T) {
	calls := []*Call{makeCall(0, "a", 0), makeCall(1, "b", 0), makeCall(2, "c", 0)}
	noEdge := func(a, b *Call) bool { return false }
	n := 0
	complete := topoSorts(calls, noEdge, 2, &checkScratch{}, func(h []*Call) bool { n++; return true })
	if complete || n != 2 {
		t.Errorf("limit not honored: complete=%v n=%d", complete, n)
	}
}

// queueSpec is the running-example spec (Figure 6) for engine tests.
func queueSpec() *Spec {
	const empty = ^memmodel.Value(0)
	return &Spec{
		Name:     "q",
		NewState: func() State { return seqds.NewIntList() },
		Methods: map[string]*MethodSpec{
			"enq": {
				SideEffect: func(st State, c *Call) { st.(*seqds.IntList).PushBack(c.Arg(0)) },
			},
			"deq": {
				SideEffect: func(st State, c *Call) {
					l := st.(*seqds.IntList)
					if v, ok := l.Front(); ok {
						c.SRet = v
					} else {
						c.SRet = empty
					}
					if c.SRet != empty && c.Ret != empty {
						l.PopFront()
					}
				},
				Post: func(st State, c *Call) bool {
					if c.Ret == empty {
						return true
					}
					return c.Ret == c.SRet
				},
				NeedsJustify: func(c *Call) bool { return c.Ret == empty },
				JustifyPost: func(st State, c *Call, conc []*Call) bool {
					return c.SRet == empty
				},
			},
		},
	}
}

func checkCalls(spec *Spec, calls []*Call) *CheckResult {
	m := &Monitor{spec: spec, calls: calls}
	return m.Check()
}

const empty = ^memmodel.Value(0)

// TestCheckSequentialDeqEmptyRejected: enq ~r~ deq, deq returns empty —
// the unjustified behavior the paper's §2.1 insists must be caught.
func TestCheckSequentialDeqEmptyRejected(t *testing.T) {
	opE := fabricate(0, 1, -1)
	opD := fabricate(0, 2, -1, opE)
	cE := makeCall(0, "enq", 0, opE)
	cE.Args = []memmodel.Value{1}
	cD := makeCall(1, "deq", empty, opD)
	res := checkCalls(queueSpec(), []*Call{cE, cD})
	if len(res.Failures) == 0 {
		t.Fatal("deq spuriously returning empty after an ordered enq must be rejected")
	}
}

// TestCheckConcurrentDeqEmptyJustified: enq and deq concurrent — the
// spurious empty is justified by the empty justifying prefix.
func TestCheckConcurrentDeqEmptyJustified(t *testing.T) {
	opE := fabricate(0, 1, -1)
	opD := fabricate(1, 1, -1)
	cE := makeCall(0, "enq", 0, opE)
	cE.Args = []memmodel.Value{1}
	cD := makeCall(1, "deq", empty, opD)
	res := checkCalls(queueSpec(), []*Call{cE, cD})
	if len(res.Failures) != 0 {
		t.Fatalf("concurrent spurious empty should be justified: %v", res.Failures[0])
	}
}

// TestCheckDeqWrongValue: a deq ordered after enq(1) returning 2 violates
// the postcondition.
func TestCheckDeqWrongValue(t *testing.T) {
	opE := fabricate(0, 1, -1)
	opD := fabricate(0, 2, -1, opE)
	cE := makeCall(0, "enq", 0, opE)
	cE.Args = []memmodel.Value{1}
	cD := makeCall(1, "deq", 2, opD)
	res := checkCalls(queueSpec(), []*Call{cE, cD})
	if len(res.Failures) == 0 {
		t.Fatal("wrong dequeue value must be rejected")
	}
}

// TestCheckFIFOOrder: two ordered enqs and two ordered deqs in FIFO order
// pass; swapped values fail.
func TestCheckFIFOOrder(t *testing.T) {
	opE1 := fabricate(0, 1, -1)
	opE2 := fabricate(0, 2, -1, opE1)
	opD1 := fabricate(0, 3, -1, opE2)
	opD2 := fabricate(0, 4, -1, opD1)
	mk := func(r1, r2 memmodel.Value) []*Call {
		cE1 := makeCall(0, "enq", 0, opE1)
		cE1.Args = []memmodel.Value{1}
		cE2 := makeCall(1, "enq", 0, opE2)
		cE2.Args = []memmodel.Value{2}
		cD1 := makeCall(2, "deq", r1, opD1)
		cD2 := makeCall(3, "deq", r2, opD2)
		return []*Call{cE1, cE2, cD1, cD2}
	}
	if res := checkCalls(queueSpec(), mk(1, 2)); len(res.Failures) != 0 {
		t.Errorf("FIFO order rejected: %v", res.Failures[0])
	}
	if res := checkCalls(queueSpec(), mk(2, 1)); len(res.Failures) == 0 {
		t.Error("LIFO order accepted by FIFO spec")
	}
}

// TestAdmissibilityRule: a rule requiring deq<->enq ordering flags the
// unordered pair.
func TestAdmissibilityRule(t *testing.T) {
	spec := queueSpec()
	spec.Admissibility = []AdmitRule{{
		M1: "deq", M2: "enq",
		MustOrder: func(d, e *Call) bool { return d.Ret == empty },
	}}
	opE := fabricate(0, 1, -1)
	opD := fabricate(1, 1, -1) // concurrent with the enq
	cE := makeCall(0, "enq", 0, opE)
	cE.Args = []memmodel.Value{1}
	cD := makeCall(1, "deq", empty, opD)
	res := checkCalls(spec, []*Call{cE, cD})
	if res.Admissible {
		t.Fatal("execution should be inadmissible under the rule")
	}
	if len(res.Failures) == 0 || res.Failures[0].Kind != checker.FailAdmissibility {
		t.Fatalf("expected admissibility failure, got %v", res.Failures)
	}
}

// TestHistoriesCount: two concurrent calls yield two checked histories.
func TestHistoriesCount(t *testing.T) {
	opE1 := fabricate(0, 1, -1)
	opE2 := fabricate(1, 1, -1)
	cE1 := makeCall(0, "enq", 0, opE1)
	cE1.Args = []memmodel.Value{1}
	cE2 := makeCall(1, "enq", 0, opE2)
	cE2.Args = []memmodel.Value{2}
	res := checkCalls(queueSpec(), []*Call{cE1, cE2})
	if res.Histories != 2 {
		t.Errorf("Histories = %d, want 2", res.Histories)
	}
}

// TestUnendedCallReported: missing End instrumentation is caught.
func TestUnendedCallReported(t *testing.T) {
	c := makeCall(0, "enq", 0)
	c.ended = false
	res := checkCalls(queueSpec(), []*Call{c})
	if len(res.Failures) == 0 {
		t.Error("unended call not reported")
	}
}

// TestUnknownMethodReported: a call without a method spec is caught.
func TestUnknownMethodReported(t *testing.T) {
	c := makeCall(0, "mystery", 0)
	res := checkCalls(queueSpec(), []*Call{c})
	if len(res.Failures) == 0 {
		t.Error("unknown method not reported")
	}
}

// TestComposeIndependence: composed specs keep independent state and never require
// cross-object ordering.
func TestComposeIndependence(t *testing.T) {
	qx := queueSpec()
	qx.Name = "x"
	qx.Methods = map[string]*MethodSpec{"x.enq": qx.Methods["enq"], "x.deq": qx.Methods["deq"]}
	qy := queueSpec()
	qy.Name = "y"
	qy.Methods = map[string]*MethodSpec{"y.enq": qy.Methods["enq"], "y.deq": qy.Methods["deq"]}
	comp := Compose(qx, qy)

	// The Figure 3 execution: x.enq(1) ~r~ y.deq(-1) in thread 0,
	// y.enq(1) ~r~ x.deq(-1) in thread 1, nothing across threads.
	opXE := fabricate(0, 1, -1)
	opYD := fabricate(0, 2, -1, opXE)
	opYE := fabricate(1, 1, -1)
	opXD := fabricate(1, 2, -1, opYE)
	cXE := makeCall(0, "x.enq", 0, opXE)
	cXE.Args = []memmodel.Value{1}
	cYD := makeCall(1, "y.deq", empty, opYD)
	cYE := makeCall(2, "y.enq", 0, opYE)
	cYE.Args = []memmodel.Value{1}
	cXD := makeCall(3, "x.deq", empty, opXD)

	res := checkCalls(comp, []*Call{cXE, cYD, cYE, cXD})
	if len(res.Failures) != 0 {
		t.Fatalf("the Figure 3 execution must be accepted by the ND spec: %v", res.Failures[0])
	}
}

// TestComposeCollisionPanics: duplicate method names across components are
// an authoring error.
func TestComposeCollisionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Compose with colliding names should panic")
		}
	}()
	Compose(queueSpec(), queueSpec())
}

// TestJustifyPreFiltersSubhistories: the justifying precondition must
// hold right before the call executes in the subhistory; if no
// subhistory satisfies it, the behavior is unjustified.
func TestJustifyPreFiltersSubhistories(t *testing.T) {
	spec := queueSpec()
	deq := spec.Methods["deq"]
	deq.JustifyPre = func(st State, c *Call, conc []*Call) bool {
		return false // nothing can be justified
	}
	opE := fabricate(0, 1, -1)
	opD := fabricate(1, 1, -1)
	cE := makeCall(0, "enq", 0, opE)
	cE.Args = []memmodel.Value{1}
	cD := makeCall(1, "deq", empty, opD)
	res := checkCalls(spec, []*Call{cE, cD})
	if len(res.Failures) == 0 {
		t.Fatal("an always-false JustifyPre must make the spurious empty unjustifiable")
	}
}

// TestJustifyConcurrentFallback: when no subhistory justifies, the
// concurrent set may (Definition 4, case 2).
func TestJustifyConcurrentFallback(t *testing.T) {
	spec := queueSpec()
	deq := spec.Methods["deq"]
	deq.JustifyPost = func(st State, c *Call, conc []*Call) bool { return false }
	deq.JustifyConcurrent = func(c *Call, conc []*Call) bool { return len(conc) > 0 }
	opE := fabricate(0, 1, -1)
	opD := fabricate(1, 1, -1) // concurrent
	cE := makeCall(0, "enq", 0, opE)
	cE.Args = []memmodel.Value{1}
	cD := makeCall(1, "deq", empty, opD)
	res := checkCalls(spec, []*Call{cE, cD})
	if len(res.Failures) != 0 {
		t.Fatalf("concurrent-set justification should apply: %v", res.Failures[0])
	}
}

// TestHistoryCapLimitsWork: a tiny MaxHistories bounds the number of
// histories checked per execution.
func TestHistoryCapLimitsWork(t *testing.T) {
	spec := queueSpec()
	spec.MaxHistories = 2
	var calls []*Call
	for i := 0; i < 4; i++ {
		op := fabricate(i, 1, -1) // four mutually concurrent enqs
		c := makeCall(i, "enq", 0, op)
		c.Args = []memmodel.Value{memmodel.Value(i)}
		calls = append(calls, c)
	}
	res := checkCalls(spec, calls)
	if res.Histories != 2 {
		t.Errorf("Histories = %d, want 2 (capped)", res.Histories)
	}
}

// TestSampledHistories: sampling mode checks exactly the requested
// number of randomly drawn histories.
func TestSampledHistories(t *testing.T) {
	spec := queueSpec()
	spec.SampleHistories = 7
	var calls []*Call
	for i := 0; i < 4; i++ {
		op := fabricate(i, 1, -1)
		c := makeCall(i, "enq", 0, op)
		c.Args = []memmodel.Value{memmodel.Value(i)}
		calls = append(calls, c)
	}
	res := checkCalls(spec, calls)
	if res.Histories != 7 {
		t.Errorf("Histories = %d, want 7 (sampled)", res.Histories)
	}
	if len(res.Failures) != 0 {
		t.Errorf("sampled checking of a correct set failed: %v", res.Failures[0])
	}
}

// TestRandomTopoSortRespectsEdges (property-ish): random linear
// extensions always respect the partial order.
func TestRandomTopoSortRespectsEdges(t *testing.T) {
	opA := fabricate(0, 1, -1)
	opB := fabricate(0, 2, -1, opA)
	opC := fabricate(1, 1, -1)
	ca := makeCall(0, "a", 0, opA)
	cb := makeCall(1, "b", 0, opB)
	cc := makeCall(2, "c", 0, opC)
	calls := []*Call{ca, cb, cc}
	r := buildOrder(calls)
	edge := func(x, y *Call) bool { return r.ordered(x, y) }
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		h := randomTopoSort(calls, edge, rng, &checkScratch{})
		posA, posB := -1, -1
		for j, c := range h {
			if c == ca {
				posA = j
			}
			if c == cb {
				posB = j
			}
		}
		if posA > posB {
			t.Fatalf("random sort violated a -> b: %v", formatHistory(h))
		}
	}
}
