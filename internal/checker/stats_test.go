package checker

import (
	"testing"
	"time"

	"repro/internal/memmodel"
)

// TestStepBoundPrunedAccounting is the regression test for the
// step-bound accounting bug: an execution that exceeds MaxSteps must be
// counted exactly once, as Pruned — never as a failure that could leak
// into FailureCount and the Figure 8 detection channels.
func TestStepBoundPrunedAccounting(t *testing.T) {
	res := Explore(Config{MaxSteps: 10}, func(root *Thread) {
		x := root.NewAtomicInit("x", 0)
		for i := 0; i < 20; i++ {
			x.Store(root, memmodel.Relaxed, memmodel.Value(i))
		}
	})
	if res.Executions == 0 {
		t.Fatalf("explored nothing: %v", res)
	}
	if res.Pruned == 0 || res.Stats.PrunedStepBound == 0 {
		t.Errorf("step-bound overrun not counted as pruned: %v stats %+v", res, res.Stats)
	}
	if res.FailureCount != 0 || len(res.Failures) != 0 {
		t.Errorf("step-bound overrun leaked into failures: %v", res.Failures)
	}
	for _, f := range res.Failures {
		if f.Kind == FailTooManySteps {
			t.Errorf("FailTooManySteps must never be retained as a failure: %v", f)
		}
	}
	if res.Executions != res.Feasible+res.Pruned {
		t.Errorf("executions=%d != feasible=%d + pruned=%d", res.Executions, res.Feasible, res.Pruned)
	}
}

// TestStepBoundPrunedAccountingMultiThread: same invariant when the
// bound trips across an exhaustive multi-threaded exploration, where the
// old code's create-failure-then-prune sequence was easiest to get wrong.
func TestStepBoundPrunedAccountingMultiThread(t *testing.T) {
	res := Explore(Config{MaxSteps: 6}, manyExecProgram)
	if res.Stats.PrunedStepBound == 0 {
		t.Fatalf("expected step-bound prunes with MaxSteps=6: %+v", res.Stats)
	}
	if res.FailureCount != 0 {
		t.Errorf("step-bound prunes leaked into FailureCount=%d: %v", res.FailureCount, res.Failures)
	}
	if sum := res.Stats.PrunedSleepSet + res.Stats.PrunedFairness + res.Stats.PrunedStepBound; sum != res.Pruned {
		t.Errorf("prune-reason split %d does not sum to Pruned %d", sum, res.Pruned)
	}
}

// TestStatsCounters: an exhaustive run of the store-buffering program
// populates every exploration-side counter sensibly.
func TestStatsCounters(t *testing.T) {
	res := Explore(Config{}, manyExecProgram)
	s := res.Stats
	if res.Executions < 2 {
		t.Fatalf("expected multiple executions, got %v", res)
	}
	if s.RFBranchPoints == 0 {
		t.Error("relaxed loads with stale stores should open rf branch points")
	}
	if s.ScheduleBranchPoints == 0 {
		t.Error("two runnable threads should open schedule branch points")
	}
	if s.ReplayedDecisions == 0 {
		t.Error("backtracking across executions should replay decisions")
	}
	if s.MaxDecisionDepth == 0 {
		t.Error("decision stack depth never recorded")
	}
	if s.TotalSteps < res.Executions {
		t.Errorf("TotalSteps=%d implausibly small for %d executions", s.TotalSteps, res.Executions)
	}
	if sum := s.PrunedSleepSet + s.PrunedFairness + s.PrunedStepBound; sum != res.Pruned {
		t.Errorf("prune-reason split %d does not sum to Pruned %d", sum, res.Pruned)
	}
	if s.ExploreTime <= 0 {
		t.Error("ExploreTime not measured")
	}
}

// TestStatsMerge: counters add (RFClasses included), depth maxes,
// timings add.
func TestStatsMerge(t *testing.T) {
	a := Stats{
		PrunedSleepSet: 1, PrunedFairness: 2, PrunedStepBound: 3,
		RFBranchPoints: 4, ScheduleBranchPoints: 5, ReplayedDecisions: 6,
		MaxDecisionDepth: 7, TotalSteps: 8,
		Histories: 9, HistoriesCapped: 1, AdmissibilityChecks: 10, JustifySearches: 11,
		RFClasses:   5,
		ExploreTime: time.Second, SpecTime: time.Millisecond,
	}
	b := Stats{MaxDecisionDepth: 3, RFBranchPoints: 1, RFClasses: 3, ExploreTime: time.Second}
	a.Merge(&b)
	if a.MaxDecisionDepth != 7 {
		t.Errorf("MaxDecisionDepth should max, got %d", a.MaxDecisionDepth)
	}
	if a.RFBranchPoints != 5 {
		t.Errorf("RFBranchPoints should sum, got %d", a.RFBranchPoints)
	}
	if a.RFClasses != 8 {
		t.Errorf("RFClasses should sum, got %d", a.RFClasses)
	}
	if a.ExploreTime != 2*time.Second {
		t.Errorf("ExploreTime should sum, got %v", a.ExploreTime)
	}
	c := Stats{MaxDecisionDepth: 9}
	c.Merge(&a)
	if c.MaxDecisionDepth != 9 {
		t.Errorf("MaxDecisionDepth should keep the larger side, got %d", c.MaxDecisionDepth)
	}
	wt := a.WithoutTimings()
	if wt.ExploreTime != 0 || wt.SpecTime != 0 {
		t.Errorf("WithoutTimings left timings: %+v", wt)
	}
	if wt.RFBranchPoints != a.RFBranchPoints || a.ExploreTime == 0 {
		t.Error("WithoutTimings must copy, not mutate")
	}
}

// TestProgressFinalSnapshot: the closing Progress snapshot is always
// delivered and its counts equal the returned Result, sequentially and
// in parallel.
func TestProgressFinalSnapshot(t *testing.T) {
	for _, par := range []int{1, 4} {
		var got []Progress
		res := Explore(Config{
			Parallelism:      par,
			Progress:         func(p Progress) { got = append(got, p) },
			ProgressInterval: time.Millisecond,
		}, manyExecProgram)
		if len(got) == 0 {
			t.Fatalf("parallelism %d: no progress snapshots delivered", par)
		}
		last := got[len(got)-1]
		if !last.Final {
			t.Errorf("parallelism %d: last snapshot not Final: %+v", par, last)
		}
		for _, p := range got[:len(got)-1] {
			if p.Final {
				t.Errorf("parallelism %d: non-last snapshot marked Final", par)
			}
		}
		if last.Executions != res.Executions || last.Feasible != res.Feasible ||
			last.Pruned != res.Pruned || last.Failures != res.FailureCount {
			t.Errorf("parallelism %d: final snapshot %+v does not match result %v", par, last, res)
		}
		if last.Elapsed <= 0 || last.ExecsPerSec <= 0 {
			t.Errorf("parallelism %d: final snapshot missing rate: %+v", par, last)
		}
	}
}

// TestProgressTrackerETA: the rate/ETA math on a tracker driven by hand
// (interval long enough that the ticker never fires).
func TestProgressTrackerETA(t *testing.T) {
	var finals []Progress
	tr := newProgressTracker(func(p Progress) { finals = append(finals, p) }, time.Hour, 100, nil)
	for i := 0; i < 10; i++ {
		tr.observe(i%2 == 0, i%2 != 0, 0, 0, false, 0, 0)
	}
	tr.observe(false, false, 3, 2, false, 0, 0)
	time.Sleep(time.Millisecond) // ensure a measurable elapsed for the rate
	p := tr.snapshot(false)
	if p.Executions != 11 || p.Feasible != 5 || p.Pruned != 5 || p.Failures != 3 {
		t.Errorf("snapshot counts wrong: %+v", p)
	}
	if p.ExecsPerSec <= 0 || p.ETA <= 0 {
		t.Errorf("expected positive rate and ETA toward maxExecs=100: %+v", p)
	}
	tr.close()
	if len(finals) != 1 || !finals[0].Final {
		t.Fatalf("close must deliver exactly one final snapshot: %+v", finals)
	}
	// At the cap there is nothing left to estimate.
	tr2 := newProgressTracker(func(Progress) {}, time.Hour, 5, nil)
	for i := 0; i < 5; i++ {
		tr2.observe(true, false, 0, 0, false, 0, 0)
	}
	if p := tr2.snapshot(false); p.ETA != 0 {
		t.Errorf("ETA should be zero at MaxExecutions: %+v", p)
	}
	tr2.close()
}
