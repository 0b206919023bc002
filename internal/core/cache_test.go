package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/checker"
	"repro/internal/memmodel"
)

// cacheProg is a tiny instrumented queue (one slot, enq stores / deq
// loads) plus two uninstrumented noise stores. The noise interleavings
// multiply the executions without changing the recorded calls or ~r~, so
// an exploration repeats spec-equivalent executions — the situation the
// check cache exists for.
func cacheProg(root *checker.Thread) {
	mon := Of(root)
	x := root.NewAtomicInit("x", 0)
	noise := root.NewAtomicInit("noise", 0)
	a := root.Spawn("a", func(tt *checker.Thread) {
		c := mon.Begin(tt, "enq", 1)
		x.Store(tt, memmodel.Release, 1)
		c.OPDefine(tt, true)
		c.EndVoid(tt)
	})
	b := root.Spawn("b", func(tt *checker.Thread) {
		c := mon.Begin(tt, "deq")
		v := x.Load(tt, memmodel.Acquire)
		c.OPDefine(tt, true)
		if v == 0 {
			c.End(tt, empty)
		} else {
			c.End(tt, v)
		}
	})
	n1 := root.Spawn("n1", func(tt *checker.Thread) { noise.Store(tt, memmodel.Relaxed, 1) })
	n2 := root.Spawn("n2", func(tt *checker.Thread) { noise.Store(tt, memmodel.Relaxed, 2) })
	root.Join(a)
	root.Join(b)
	root.Join(n1)
	root.Join(n2)
}

// buggyCacheProg is cacheProg with an off-by-one dequeue value, so the
// spec check fails on the executions where deq observes the enqueue.
func buggyCacheProg(root *checker.Thread) {
	mon := Of(root)
	x := root.NewAtomicInit("x", 0)
	noise := root.NewAtomicInit("noise", 0)
	a := root.Spawn("a", func(tt *checker.Thread) {
		c := mon.Begin(tt, "enq", 1)
		x.Store(tt, memmodel.Release, 1)
		c.OPDefine(tt, true)
		c.EndVoid(tt)
	})
	b := root.Spawn("b", func(tt *checker.Thread) {
		c := mon.Begin(tt, "deq")
		v := x.Load(tt, memmodel.Acquire)
		c.OPDefine(tt, true)
		if v == 0 {
			c.End(tt, empty)
		} else {
			c.End(tt, v+1) // bug: wrong value out
		}
	})
	n1 := root.Spawn("n1", func(tt *checker.Thread) { noise.Store(tt, memmodel.Relaxed, 1) })
	n2 := root.Spawn("n2", func(tt *checker.Thread) { noise.Store(tt, memmodel.Relaxed, 2) })
	root.Join(a)
	root.Join(b)
	root.Join(n1)
	root.Join(n2)
}

// TestExploreSpecCacheHits: an exhaustive exploration with repeated
// spec-equivalent executions gets cache hits, and the counters satisfy
// their invariants: every feasible execution is either a hit or a miss,
// and every miss inserts exactly one entry.
func TestExploreSpecCacheHits(t *testing.T) {
	res := Explore(queueSpec(), checker.Config{}, cacheProg)
	if !res.Exhausted {
		t.Fatalf("not exhausted: %v", res)
	}
	s := res.Stats
	if s.SpecCacheHits == 0 {
		t.Error("expected spec-cache hits on a program with noise-only nondeterminism")
	}
	if s.SpecCacheHits+s.SpecCacheMisses != res.Feasible {
		t.Errorf("hits %d + misses %d != feasible %d", s.SpecCacheHits, s.SpecCacheMisses, res.Feasible)
	}
	if s.SpecCacheEntries != s.SpecCacheMisses {
		t.Errorf("entries %d != misses %d (every miss must insert exactly one entry)",
			s.SpecCacheEntries, s.SpecCacheMisses)
	}
}

// TestExploreCacheDisabledZeroCounters: disableCheckCache really turns
// the cache off.
func TestExploreCacheDisabledZeroCounters(t *testing.T) {
	spec := queueSpec()
	spec.disableCheckCache = true
	res := Explore(spec, checker.Config{}, cacheProg)
	s := res.Stats
	if s.SpecCacheHits != 0 || s.SpecCacheMisses != 0 || s.SpecCacheEntries != 0 {
		t.Errorf("disabled cache left counters nonzero: hits=%d misses=%d entries=%d",
			s.SpecCacheHits, s.SpecCacheMisses, s.SpecCacheEntries)
	}
}

// TestExploreCacheTransparency: a cached run must be observationally
// identical to an uncached one — same counts, same spec counters, and
// the same failures at the same execution indices (the cached-failure
// copies must be re-stamped per execution, not reused).
func TestExploreCacheTransparency(t *testing.T) {
	for _, prog := range []struct {
		name string
		fn   func(*checker.Thread)
	}{{"clean", cacheProg}, {"buggy", buggyCacheProg}} {
		on := Explore(queueSpec(), checker.Config{MaxFailures: 1 << 20}, prog.fn)
		off := Explore(func() *Spec { s := queueSpec(); s.disableCheckCache = true; return s }(),
			checker.Config{MaxFailures: 1 << 20}, prog.fn)
		if on.Executions != off.Executions || on.Feasible != off.Feasible ||
			on.Pruned != off.Pruned || on.FailureCount != off.FailureCount {
			t.Errorf("%s: counts differ: cached %v, uncached %v", prog.name, on, off)
		}
		a, b := on.Stats.WithoutTimings(), off.Stats.WithoutTimings()
		a.SpecCacheHits, a.SpecCacheMisses, a.SpecCacheEntries = 0, 0, 0
		if a != b {
			t.Errorf("%s: non-cache stats differ:\n  cached:   %+v\n  uncached: %+v", prog.name, a, b)
		}
		if len(on.Failures) != len(off.Failures) {
			t.Fatalf("%s: retained failures differ: %d vs %d", prog.name, len(on.Failures), len(off.Failures))
		}
		for i := range on.Failures {
			fa, fb := on.Failures[i], off.Failures[i]
			if fa.Kind != fb.Kind || fa.Execution != fb.Execution || fa.Msg != fb.Msg {
				t.Errorf("%s: failure %d differs: cached %v@%d, uncached %v@%d",
					prog.name, i, fa.Kind, fa.Execution, fb.Kind, fb.Execution)
			}
		}
	}
}

// TestExploreCacheSeqParIdentity: exhaustive sequential and parallel
// explorations must agree on every Stats counter including the cache
// fields — the shard design exists precisely for this property.
func TestExploreCacheSeqParIdentity(t *testing.T) {
	for _, prog := range []struct {
		name string
		fn   func(*checker.Thread)
	}{{"clean", cacheProg}, {"buggy", buggyCacheProg}} {
		seq := Explore(queueSpec(), checker.Config{MaxFailures: 1 << 20}, prog.fn)
		par := Explore(queueSpec(), checker.Config{MaxFailures: 1 << 20, Parallelism: 4}, prog.fn)
		if seq.Stats.WithoutTimings() != par.Stats.WithoutTimings() {
			t.Errorf("%s: stats differ:\n  sequential: %+v\n  parallel:   %+v",
				prog.name, seq.Stats.WithoutTimings(), par.Stats.WithoutTimings())
		}
		if seq.Stats.SpecCacheHits == 0 {
			t.Errorf("%s: expected nonzero cache hits", prog.name)
		}
	}
}

// fingerprintOf runs the fingerprint pipeline over a fabricated call set.
func fingerprintOf(t *testing.T, calls []*Call) (string, uint64) {
	t.Helper()
	sc := &checkScratch{}
	r := buildOrderScratch(calls, sc)
	key, h := fingerprint(sc, calls, r)
	return string(key), h
}

// TestFingerprintDistinguishesContent: executions differing in any
// spec-relevant dimension — return value, argument, aux value, or the
// ~r~ relation — must fingerprint differently; identical ones must
// collide exactly.
func TestFingerprintDistinguishesContent(t *testing.T) {
	base := func() []*Call {
		opE := fabricate(0, 1, -1)
		opD := fabricate(1, 1, -1)
		cE := makeCall(0, "enq", 0, opE)
		cE.Args = []memmodel.Value{1}
		cD := makeCall(1, "deq", empty, opD)
		return []*Call{cE, cD}
	}
	k0, h0 := fingerprintOf(t, base())
	k1, h1 := fingerprintOf(t, base())
	if k0 != k1 || h0 != h1 {
		t.Error("identical executions must share fingerprint and hash")
	}

	ret := base()
	ret[1].Ret = 1
	if k, _ := fingerprintOf(t, ret); k == k0 {
		t.Error("different return value, same fingerprint")
	}

	arg := base()
	arg[0].Args = []memmodel.Value{2}
	if k, _ := fingerprintOf(t, arg); k == k0 {
		t.Error("different argument, same fingerprint")
	}

	aux := base()
	aux[0].SetAux("k", 5)
	if k, _ := fingerprintOf(t, aux); k == k0 {
		t.Error("different aux, same fingerprint")
	}

	// Same calls, but the deq's ordering point now observes the enq's:
	// ~r~ gains an edge, nothing else changes.
	opE := fabricate(0, 1, -1)
	opD := fabricate(1, 1, -1, opE)
	cE := makeCall(0, "enq", 0, opE)
	cE.Args = []memmodel.Value{1}
	cD := makeCall(1, "deq", empty, opD)
	if k, _ := fingerprintOf(t, []*Call{cE, cD}); k == k0 {
		t.Error("different ~r~, same fingerprint")
	}
}

// TestCheckMemoHitIsolation: a hit returns failures that are fresh copies
// — the explorer stamps Failure.Execution on what a check returns, and a
// stamp on one execution's failures must not leak into later equivalent
// executions or into the cached master copy.
func TestCheckMemoHitIsolation(t *testing.T) {
	mk := func() *Monitor {
		opE := fabricate(0, 1, -1)
		opD := fabricate(0, 2, -1, opE)
		cE := makeCall(0, "enq", 0, opE)
		cE.Args = []memmodel.Value{1}
		cD := makeCall(1, "deq", 2, opD) // wrong value: check fails
		return &Monitor{spec: queueSpec(), calls: []*Call{cE, cD}}
	}
	cc := newCheckCache()
	r1, rep1 := mk().checkMemo(cc)
	if rep1.CacheMisses != 1 || rep1.CacheHits != 0 {
		t.Fatalf("first check should miss: %+v", rep1)
	}
	if len(r1.Failures) == 0 {
		t.Fatal("expected a failure")
	}
	r1.Failures[0].Execution = 7 // what runOne does

	r2, rep2 := mk().checkMemo(cc)
	if rep2.CacheHits != 1 || rep2.CacheMisses != 0 || rep2.CacheEntries != 0 {
		t.Fatalf("second check should hit: %+v", rep2)
	}
	if len(r2.Failures) != len(r1.Failures) {
		t.Fatalf("hit returned %d failures, want %d", len(r2.Failures), len(r1.Failures))
	}
	if r2.Failures[0] == r1.Failures[0] {
		t.Error("hit returned the same *Failure as the earlier execution")
	}
	if r2.Failures[0].Execution != 0 {
		t.Errorf("hit's failure carries a stale execution stamp %d", r2.Failures[0].Execution)
	}
	// The hit replays the miss's spec counters.
	if rep2.Histories != rep1.Histories || rep2.AdmissibilityChecks != rep1.AdmissibilityChecks ||
		rep2.JustifySearches != rep1.JustifySearches {
		t.Errorf("hit did not replay counters: miss %+v, hit %+v", rep1, rep2)
	}
}

// TestCheckMemoHitAllocs: once a record's check is cached, checking it
// again is a hit that allocates nothing: the key is looked up from the
// scratch fingerprint buffer, the ~r~ relation lives in the scratch, and
// a hit without failures returns the cached CheckResult.
func TestCheckMemoHitAllocs(t *testing.T) {
	opE := fabricate(0, 1, -1)
	opD := fabricate(0, 2, -1, opE)
	cE := makeCall(0, "enq", 0, opE)
	cE.Args = []memmodel.Value{1}
	cD := makeCall(1, "deq", 1, opD)
	m := &Monitor{spec: queueSpec(), calls: []*Call{cE, cD}}
	cc := newCheckCache()
	if res, rep := m.checkMemo(cc); rep.CacheMisses != 1 || len(res.Failures) != 0 {
		t.Fatalf("first check should miss and pass: %+v, %v", rep, res.Failures)
	}
	var rep checker.SpecReport
	allocs := testing.AllocsPerRun(100, func() { _, rep = m.checkMemo(cc) })
	if rep.CacheHits != 1 {
		t.Fatalf("repeat check should hit: %+v", rep)
	}
	if allocs != 0 {
		t.Errorf("a spec-cache hit allocated %.0f times per run, want 0", allocs)
	}
}

// TestOrderedNonDenseIDs: ordered() must work on call lists whose IDs are
// not dense positions. The old implementation indexed the reachability
// matrix by Call.ID and either panicked or silently aliased rows here.
func TestOrderedNonDenseIDs(t *testing.T) {
	opA := fabricate(0, 1, -1)
	opB := fabricate(0, 2, -1, opA)
	opC := fabricate(1, 1, -1)
	ca := makeCall(5, "m", 0, opA)
	cb := makeCall(2, "m", 0, opB)
	cc := makeCall(9, "m", 0, opC)
	r := buildOrder([]*Call{ca, cb, cc})
	if !r.ordered(ca, cb) || r.ordered(cb, ca) {
		t.Error("hb-ordered calls with sparse IDs not ordered correctly")
	}
	if r.ordered(ca, cc) || r.ordered(cc, ca) || r.ordered(cb, cc) || r.ordered(cc, cb) {
		t.Error("concurrent calls with sparse IDs spuriously ordered")
	}
	if got := r.predecessors(cb); len(got) != 1 || got[0] != ca {
		t.Errorf("predecessors with sparse IDs = %v, want [ca]", got)
	}
}

// TestSamplerSeedVariesWithReach: two executions with equal call counts
// but different ~r~ fingerprint differently, so their sampler seeds
// differ. The old derivation (base + call count) collapsed them onto one
// seed, silently sampling the same histories for every same-sized
// execution of a run.
func TestSamplerSeedVariesWithReach(t *testing.T) {
	// Unordered pair.
	opE1 := fabricate(0, 1, -1)
	opD1 := fabricate(1, 1, -1)
	a := []*Call{makeCall(0, "enq", 0, opE1), makeCall(1, "deq", empty, opD1)}
	a[0].Args = []memmodel.Value{1}
	// Same calls, ordered pair.
	opE2 := fabricate(0, 1, -1)
	opD2 := fabricate(1, 1, -1, opE2)
	b := []*Call{makeCall(0, "enq", 0, opE2), makeCall(1, "deq", empty, opD2)}
	b[0].Args = []memmodel.Value{1}

	_, ha := fingerprintOf(t, a)
	_, hb := fingerprintOf(t, b)
	if ha == hb {
		t.Fatal("different ~r~ must hash differently")
	}
	const base = 12345
	if samplerSeed(base, ha) == samplerSeed(base, hb) {
		t.Error("equal-count executions with different ~r~ got the same sampler seed")
	}
	if samplerSeed(base, ha) != samplerSeed(base, ha) {
		t.Error("sampler seed must be deterministic")
	}
}

// samplingRecorderSpec is a spec whose method "m" records the order in
// which calls execute within each checked history into *got.
func samplingRecorderSpec(got *[][]int) *Spec {
	return &Spec{
		Name:     "rec",
		NewState: func() State { h := []int{}; return &h },
		Methods: map[string]*MethodSpec{
			"m": {
				SideEffect: func(st State, c *Call) {
					h := st.(*[]int)
					*h = append(*h, c.ID)
				},
				Post: func(st State, c *Call) bool {
					h := st.(*[]int)
					if len(*h) == 4 {
						*got = append(*got, append([]int(nil), (*h)...))
					}
					return true
				},
			},
		},
		SampleHistories: 3,
		SampleSeed:      42,
	}
}

// concurrentMs builds four mutually concurrent "m" calls whose args carry
// the execution tag — equal call counts, equal ~r~, different content.
func concurrentMs(tag int) []*Call {
	var calls []*Call
	for i := 0; i < 4; i++ {
		op := fabricate(i, 1, -1)
		c := makeCall(i, "m", 0, op)
		c.Args = []memmodel.Value{memmodel.Value(tag)}
		calls = append(calls, c)
	}
	return calls
}

// TestSampledHistoriesVaryAcrossExecutions is the regression for the
// sampler-seed collapse: two executions with the same call count (the old
// seed's only entropy) must not draw the same history sample when their
// content differs. Against the old base+len(calls) derivation both
// executions drew byte-identical samples and this test fails.
func TestSampledHistoriesVaryAcrossExecutions(t *testing.T) {
	sample := func(tag int) [][]int {
		var got [][]int
		spec := samplingRecorderSpec(&got)
		res := checkCalls(spec, concurrentMs(tag))
		if len(res.Failures) != 0 {
			t.Fatalf("recorder spec failed: %v", res.Failures[0])
		}
		if res.Histories != 3 {
			t.Fatalf("Histories = %d, want 3", res.Histories)
		}
		return got
	}
	s1 := sample(1)
	s2 := sample(2)
	if fmt.Sprint(s1) == fmt.Sprint(s2) {
		t.Errorf("executions with different content sampled identical history sets: %v", s1)
	}
	// Determinism: the same execution always draws the same sample.
	if fmt.Sprint(sample(1)) != fmt.Sprint(s1) {
		t.Error("sampling is not deterministic for identical executions")
	}
}

// TestSamplingNeverSetsHistoriesCapped pins the contract that sampling
// specs — incomplete by design — never report HistoriesCapped, even when
// the sample budget exceeds the exhaustive cap that would have tripped
// it.
func TestSamplingNeverSetsHistoriesCapped(t *testing.T) {
	var got [][]int
	spec := samplingRecorderSpec(&got)
	spec.SampleHistories = 50
	spec.MaxHistories = 1 // would truncate an exhaustive enumeration instantly
	res := checkCalls(spec, concurrentMs(0))
	if res.HistoriesCapped {
		t.Error("sampling spec set HistoriesCapped")
	}
	if res.Histories != 50 {
		t.Errorf("Histories = %d, want 50", res.Histories)
	}
}

// TestSeededBugNeedsVariedSamples: a bug that only one of the 24
// possible histories exposes, checked with SampleHistories=1. Detection
// requires different executions to draw different histories; the test
// first proves the old derivation's single shared draw misses the bug,
// then that the content-derived seeds find it across a handful of
// executions.
func TestSeededBugNeedsVariedSamples(t *testing.T) {
	const seed = 3
	bad := []int{3, 2, 1, 0} // the one history that trips the bug
	buggySpec := func(hit *bool) *Spec {
		return &Spec{
			Name:     "seeded",
			NewState: func() State { h := []int{}; return &h },
			Methods: map[string]*MethodSpec{
				"m": {
					SideEffect: func(st State, c *Call) {
						h := st.(*[]int)
						*h = append(*h, c.ID)
					},
					Post: func(st State, c *Call) bool {
						h := st.(*[]int)
						if len(*h) == 4 && fmt.Sprint(*h) == fmt.Sprint(bad) {
							*hit = true
							return false
						}
						return true
					},
				},
			},
			SampleHistories: 1,
			SampleSeed:      seed,
		}
	}

	// The old derivation seeds every 4-call execution with seed+4 and
	// therefore draws one fixed history for all of them. Show that this
	// single shared draw is not the buggy one — so the old sampler would
	// have missed the bug no matter how many executions ran.
	calls := concurrentMs(0)
	sc := &checkScratch{}
	r := buildOrderScratch(calls, sc)
	edge := func(a, b *Call) bool { return r.ordered(a, b) }
	oldRng := rand.New(rand.NewSource(seed + int64(len(calls))))
	oldDraw := randomTopoSort(calls, edge, oldRng, sc)
	var oldIDs []int
	for _, c := range oldDraw {
		oldIDs = append(oldIDs, c.ID)
	}
	if fmt.Sprint(oldIDs) == fmt.Sprint(bad) {
		t.Fatalf("test setup: the old shared draw %v accidentally hits the bug; pick another seed", oldIDs)
	}

	// The fixed derivation varies the draw with execution content, so a
	// modest batch of distinct executions covers the buggy history.
	detected := false
	for tag := 0; tag < 30 && !detected; tag++ {
		var hit bool
		res := checkCalls(buggySpec(&hit), concurrentMs(tag))
		if hit != (len(res.Failures) != 0) {
			t.Fatalf("tag %d: hit=%v but failures=%d", tag, hit, len(res.Failures))
		}
		detected = detected || hit
	}
	if !detected {
		t.Error("content-derived sampler seeds never drew the buggy history in 30 executions")
	}
}

// BenchmarkSpecCacheOn/Off measure the end-to-end exploration win of the
// memoized spec check on the cache-friendly program.
func BenchmarkSpecCacheOn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Explore(queueSpec(), checker.Config{}, cacheProg)
	}
}

func BenchmarkSpecCacheOff(b *testing.B) {
	spec := queueSpec()
	spec.disableCheckCache = true
	for i := 0; i < b.N; i++ {
		Explore(spec, checker.Config{}, cacheProg)
	}
}
