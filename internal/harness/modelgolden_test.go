package harness

import (
	"fmt"
	"testing"

	"repro/internal/checker"
	"repro/internal/checker/model"
)

// These goldens are the reference data for the DFS engine: every row was
// captured from the sequential depth-first loop the checker had before
// the work-stealing engine became its only DFS engine, and before the
// consistency-backend seam existed (model.C11 and the zero-value Model
// must reproduce the old inlined rules exactly). Any drift in a
// non-timing counter means a change altered the explored space.

type goldenRow struct {
	executions, feasible, pruned int
	failures                     int
	exhausted                    bool
	// firstKind and firstExec pin a known bug's first failure: its kind
	// and its 1-based execution index in depth-first order.
	firstKind checker.FailureKind
	firstExec int
	stats     checker.Stats
}

// c11Goldens holds the primary workload of each Figure 7 benchmark,
// explored exhaustively with the spec, keyed by benchmark name.
func c11Goldens() map[string]goldenRow {
	return map[string]goldenRow{
		"Chase-Lev Deque": {executions: 331, feasible: 228, pruned: 103, exhausted: true,
			stats: checker.Stats{PrunedSleepSet: 103, RFBranchPoints: 81, ScheduleBranchPoints: 204,
				ReplayedDecisions: 5004, MaxDecisionDepth: 22, TotalSteps: 7764, Histories: 482,
				JustifySearches: 228, SpecCacheHits: 219, SpecCacheMisses: 9, SpecCacheEntries: 9}},
		"SPSC Queue": {executions: 96, feasible: 48, pruned: 48, exhausted: true,
			stats: checker.Stats{PrunedSleepSet: 12, PrunedFairness: 36, RFBranchPoints: 72,
				ScheduleBranchPoints: 23, ReplayedDecisions: 625, MaxDecisionDepth: 9, TotalSteps: 1784,
				Histories: 96, SpecCacheHits: 45, SpecCacheMisses: 3, SpecCacheEntries: 3}},
		"RCU": {executions: 79, feasible: 53, pruned: 26, exhausted: true,
			stats: checker.Stats{PrunedSleepSet: 7, PrunedFairness: 19, RFBranchPoints: 49,
				ScheduleBranchPoints: 27, ReplayedDecisions: 455, MaxDecisionDepth: 8, TotalSteps: 1665,
				Histories: 71, JustifySearches: 106, SpecCacheHits: 49, SpecCacheMisses: 4, SpecCacheEntries: 4}},
		"Lockfree Hashtable": {executions: 131, feasible: 106, pruned: 25, exhausted: true,
			stats: checker.Stats{PrunedSleepSet: 25, ScheduleBranchPoints: 130, ReplayedDecisions: 1175,
				MaxDecisionDepth: 13, TotalSteps: 3096, Histories: 106, SpecCacheHits: 97,
				SpecCacheMisses: 9, SpecCacheEntries: 9}},
		"MCS Lock": {executions: 707, feasible: 455, pruned: 252, exhausted: true,
			stats: checker.Stats{PrunedSleepSet: 34, PrunedFairness: 218, RFBranchPoints: 435,
				ScheduleBranchPoints: 271, ReplayedDecisions: 8377, MaxDecisionDepth: 17, TotalSteps: 15556,
				Histories: 455, SpecCacheHits: 450, SpecCacheMisses: 5, SpecCacheEntries: 5}},
		"MPMC Queue": {executions: 159076, feasible: 111340, pruned: 47736, exhausted: true,
			stats: checker.Stats{PrunedSleepSet: 2971, PrunedFairness: 44765, RFBranchPoints: 88904,
				ScheduleBranchPoints: 70171, ReplayedDecisions: 4180826, MaxDecisionDepth: 33,
				TotalSteps: 7548406, Histories: 445360, AdmissibilityChecks: 445360,
				SpecCacheHits: 111333, SpecCacheMisses: 7, SpecCacheEntries: 7}},
		"M&S Queue": {executions: 1957, feasible: 1407, pruned: 550, exhausted: true,
			stats: checker.Stats{PrunedSleepSet: 523, PrunedFairness: 27, RFBranchPoints: 739,
				ScheduleBranchPoints: 1217, ReplayedDecisions: 28587, MaxDecisionDepth: 24, TotalSteps: 70708,
				Histories: 2252, JustifySearches: 1407, SpecCacheHits: 1396, SpecCacheMisses: 11, SpecCacheEntries: 11}},
		"Linux RW Lock": {executions: 6762, feasible: 4972, pruned: 1790, exhausted: true,
			stats: checker.Stats{PrunedSleepSet: 2, PrunedFairness: 1788, RFBranchPoints: 2737,
				ScheduleBranchPoints: 2430, ReplayedDecisions: 101103, MaxDecisionDepth: 23, TotalSteps: 165963,
				Histories: 5858, JustifySearches: 410, SpecCacheHits: 4954, SpecCacheMisses: 18, SpecCacheEntries: 18}},
		"Seqlock": {executions: 84435, feasible: 51625, pruned: 32810, exhausted: true,
			stats: checker.Stats{PrunedSleepSet: 2178, PrunedFairness: 30632, RFBranchPoints: 56891,
				ScheduleBranchPoints: 17110, ReplayedDecisions: 1686423, MaxDecisionDepth: 26,
				TotalSteps: 2674240, Histories: 58006, JustifySearches: 103250,
				SpecCacheHits: 51616, SpecCacheMisses: 9, SpecCacheEntries: 9}},
		"Ticket Lock": {executions: 33, feasible: 22, pruned: 11, exhausted: true,
			stats: checker.Stats{PrunedSleepSet: 1, PrunedFairness: 10, RFBranchPoints: 20,
				ScheduleBranchPoints: 12, ReplayedDecisions: 152, MaxDecisionDepth: 7, TotalSteps: 443,
				Histories: 22, SpecCacheHits: 19, SpecCacheMisses: 3, SpecCacheEntries: 3}},
	}
}

// knownBugGoldens holds the §6.4.1 checks (StopAtFirst), keyed by
// knownBugCheck name.
func knownBugGoldens() map[string]goldenRow {
	return map[string]goldenRow{
		"M&S queue: enqueue publication too weak (AutoMO bug 1)": {executions: 120, feasible: 90, pruned: 29,
			failures: 1, firstKind: checker.FailUninitLoad, firstExec: 120,
			stats: checker.Stats{PrunedSleepSet: 21, PrunedFairness: 8, RFBranchPoints: 60,
				ScheduleBranchPoints: 64, ReplayedDecisions: 1556, MaxDecisionDepth: 20, TotalSteps: 4098,
				Histories: 174, JustifySearches: 90, SpecCacheHits: 87, SpecCacheMisses: 3, SpecCacheEntries: 3}},
		"M&S queue: dequeue head load too weak (AutoMO bug 2)": {executions: 2, feasible: 1, pruned: 1,
			failures: 1, firstKind: checker.FailAssertion, firstExec: 2,
			stats: checker.Stats{PrunedFairness: 1, RFBranchPoints: 4, ScheduleBranchPoints: 10,
				ReplayedDecisions: 13, MaxDecisionDepth: 14, TotalSteps: 71, Histories: 3,
				SpecCacheMisses: 1, SpecCacheEntries: 1}},
		"Chase-Lev deque: weak resize publication (uninit load)": {executions: 603, feasible: 521, pruned: 81,
			failures: 1, firstKind: checker.FailUninitLoad, firstExec: 603,
			stats: checker.Stats{PrunedSleepSet: 81, RFBranchPoints: 194, ScheduleBranchPoints: 435,
				ReplayedDecisions: 25079, MaxDecisionDepth: 49, TotalSteps: 32239, Histories: 2420,
				JustifySearches: 521, SpecCacheHits: 510, SpecCacheMisses: 11, SpecCacheEntries: 11}},
		"Chase-Lev deque: same bug with uninit report silenced (spec violation)": {executions: 603, feasible: 522, pruned: 81,
			failures: 1, firstKind: checker.FailAssertion, firstExec: 603,
			stats: checker.Stats{PrunedSleepSet: 81, RFBranchPoints: 195, ScheduleBranchPoints: 439,
				ReplayedDecisions: 27487, MaxDecisionDepth: 53, TotalSteps: 35862, Histories: 2421,
				JustifySearches: 521, SpecCacheHits: 510, SpecCacheMisses: 12, SpecCacheEntries: 12}},
	}
}

func checkGolden(t *testing.T, label string, want goldenRow, res *checker.Result) {
	t.Helper()
	if res.Executions != want.executions || res.Feasible != want.feasible ||
		res.Pruned != want.pruned || res.FailureCount != want.failures ||
		res.Exhausted != want.exhausted {
		t.Errorf("%s: result drifted from golden:\n  want: exec=%d feas=%d pruned=%d fails=%d exhausted=%v\n  got:  %v (exhausted=%v)",
			label, want.executions, want.feasible, want.pruned, want.failures, want.exhausted, res, res.Exhausted)
	}
	if got := res.Stats.WithoutTimings(); got != want.stats {
		t.Errorf("%s: stats drifted from golden:\n  want: %+v\n  got:  %+v", label, want.stats, got)
	}
	if want.failures > 0 {
		checkFirstFailure(t, label, want, res, true)
	}
}

// checkFirstFailure pins a known bug's first failure: its kind, and with
// exact set its execution index.
func checkFirstFailure(t *testing.T, label string, want goldenRow, res *checker.Result, exact bool) {
	t.Helper()
	f := res.FirstFailure()
	switch {
	case f == nil:
		t.Errorf("%s: bug not detected, want %v", label, want.firstKind)
	case f.Kind != want.firstKind:
		t.Errorf("%s: first failure %v, want %v", label, f.Kind, want.firstKind)
	case exact && f.Execution != want.firstExec:
		t.Errorf("%s: first failure at execution %d, want %d", label, f.Execution, want.firstExec)
	}
}

// TestC11GoldenStats explores every Figure 7 primary workload under the
// explicit c11 model at workers 1, 4 and 16, and under the zero-value
// Model at one worker, requiring every non-timing counter to match the
// golden exactly. MPMC Queue and Seqlock (~160k and ~85k executions) run
// only without -short.
func TestC11GoldenStats(t *testing.T) {
	goldens := c11Goldens()
	for _, b := range Benchmarks() {
		want, ok := goldens[b.Name]
		if !ok {
			t.Fatalf("no golden for benchmark %q", b.Name)
		}
		if testing.Short() && (b.Name == "MPMC Queue" || b.Name == "Seqlock") {
			continue
		}
		for _, workers := range []int{1, 4, 16} {
			res := exploreBench(b, checker.Config{Parallelism: workers, Model: model.C11})
			checkGolden(t, fmt.Sprintf("%s workers=%d", b.Name, workers), want, res)
		}
		res := exploreBench(b, checker.Config{})
		checkGolden(t, b.Name+" default model", want, res)
	}
}

// TestKnownBugGoldens pins the §6.4.1 checks. At one worker the
// StopAtFirst cut is deterministic, so the whole Result is pinned; with
// more workers the cut depends on which worker fails first, so only the
// first failure's kind is.
func TestKnownBugGoldens(t *testing.T) {
	goldens := knownBugGoldens()
	for _, k := range knownBugChecks() {
		want, ok := goldens[k.name]
		if !ok {
			t.Fatalf("no golden for known bug %q", k.name)
		}
		checkGolden(t, k.name, want, k.run(1))
		for _, workers := range []int{4, 16} {
			checkFirstFailure(t, fmt.Sprintf("%s workers=%d", k.name, workers), want, k.run(workers), false)
		}
	}
}
