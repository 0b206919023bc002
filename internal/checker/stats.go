package checker

import "time"

// Stats breaks down where an exploration's executions and time went, the
// observability layer behind the paper's Figure 7 "seconds per benchmark"
// claim: without it a partial-order-reduction regression is
// indistinguishable from a spec-checking slowdown. All counters are
// bit-identical between exhaustive runs at any worker count (the merge
// sums them in branch order); only the timing fields and the scheduler
// telemetry differ, since parallel workers accumulate wall clock
// concurrently and carve the frontier differently. (One exception: with
// Reduce.RF enabled at Parallelism > 1 the prune/execution split depends
// on which racing worker registers a state first — the behavior set and
// RFClasses stay invariant, the counters do not.)
type Stats struct {
	// Prune-reason split of Result.Pruned; together with RFEquivPrunes
	// below, the reasons always sum to it.
	//
	// PrunedSleepSet counts interleavings abandoned because every enabled
	// thread was asleep (the sleep-set reduction proved the suffix
	// redundant). PrunedFairness counts executions stuck with a spinner
	// that ignored a newer store (CDSChecker's fairness assumption).
	// PrunedStepBound counts executions that exceeded Config.MaxSteps.
	PrunedSleepSet  int `json:"pruned_sleep_set"`
	PrunedFairness  int `json:"pruned_fairness"`
	PrunedStepBound int `json:"pruned_step_bound"`

	// Execution-equivalence reduction counters (Config.Reduce; reduce.go).
	//
	// RFEquivPrunes counts subtrees cut because the branch-point state was
	// already registered by an equal-fingerprint visit (Reduce.RF) — part
	// of the Result.Pruned split. RFClasses is the number of distinct
	// execution-graph equivalence classes among the feasible executions;
	// it is deterministic at any Parallelism (every class is witnessed at
	// least once and counted once), unlike the prune counters, whose split
	// under parallel RF depends on which racing worker registers a state
	// first. SymmetryPrunes counts scheduling candidates dropped because a
	// lower-id never-started twin covers them (Reduce.Symmetry).
	// SpinloopBounds counts spin-iteration branches removed — futile
	// spinners excluded from scheduling plus stale re-reads floored past
	// the previous iteration's store (Reduce.Spinloop).
	RFEquivPrunes  int `json:"rf_equiv_prunes,omitempty"`
	RFClasses      int `json:"rf_classes,omitempty"`
	SymmetryPrunes int `json:"symmetry_prunes,omitempty"`
	SpinloopBounds int `json:"spinloop_bounds,omitempty"`

	// RFBranchPoints counts value-nondeterminism decision nodes opened by
	// the explorer (reads-from choices and CAS outcomes with more than
	// one alternative) — the real cost driver of weak-memory checking.
	// ScheduleBranchPoints counts scheduling decision nodes (more than
	// one runnable candidate, plus last-resort spinner wakes).
	RFBranchPoints       int `json:"rf_branch_points"`
	ScheduleBranchPoints int `json:"schedule_branch_points"`
	// ReplayedDecisions counts decisions re-driven from a recorded prefix
	// while backtracking (the stateless-replay overhead).
	ReplayedDecisions int `json:"replayed_decisions"`
	// MaxDecisionDepth is the deepest decision stack seen.
	MaxDecisionDepth int `json:"max_decision_depth"`
	// TotalSteps is the number of visible operations executed across all
	// executions (including pruned ones).
	TotalSteps int `json:"total_steps"`

	// Spec-checking counters, reported by the core layer through
	// System.ReportSpecStats from the OnExecution hook.
	//
	// Histories is the number of sequential histories enumerated and
	// replayed; HistoriesCapped counts executions whose enumeration was
	// truncated by Spec.MaxHistories before the space was exhausted.
	Histories       int `json:"histories"`
	HistoriesCapped int `json:"histories_capped"`
	// AdmissibilityChecks counts admissibility rule-pair evaluations.
	AdmissibilityChecks int `json:"admissibility_checks"`
	// JustifySearches counts justifying-subhistory searches (one per call
	// whose non-deterministic behavior needed justification).
	JustifySearches int `json:"justify_searches"`

	// Spec-check memoization counters. The spec layer caches the full
	// check result keyed by a canonical fingerprint of each execution's
	// spec-relevant content, so equivalent executions cost one lookup.
	// Caches are per exploration shard (Config.NewScratch): DFS opens one
	// shard per root-decision branch, whichever workers explore it, so on
	// exhaustive runs the branch-order merge makes all three counters
	// bit-identical at every worker count, like every other non-timing
	// field.
	//
	// SpecCacheHits counts feasible executions answered from the cache;
	// SpecCacheMisses counts executions that ran the full check;
	// SpecCacheEntries counts distinct fingerprints inserted (summed over
	// shards). Hits + Misses equals the feasible executions that reached
	// the spec checker with caching enabled, and all three stay zero when
	// the check runs uncached.
	//
	// One caveat: checkpoints serialize the decision frontier, not the
	// cache contents, so a resumed run starts its caches cold and a
	// fingerprint first seen before the cut misses again after it. Across
	// a resume boundary Hits+Misses is still exact, but the hit/miss
	// split (and Entries) can shift toward misses; resume verification
	// compares the total, not the split.
	SpecCacheHits    int `json:"spec_cache_hits"`
	SpecCacheMisses  int `json:"spec_cache_misses"`
	SpecCacheEntries int `json:"spec_cache_entries"`

	// Phase-timing split: wall clock spent running executions vs checking
	// feasible executions against the specification. Parallel workers
	// accumulate concurrently, so the sums may exceed Result.Elapsed; both
	// fields are exempt from cross-worker-count bit-identity.
	ExploreTime time.Duration `json:"explore_ns"`
	SpecTime    time.Duration `json:"spec_ns"`

	// Work-stealing scheduler telemetry. Unlike every other counter these
	// describe how the frontier happened to be carved across workers —
	// schedule-dependent by nature — so, like the timings, they are
	// exempt from cross-worker-count bit-identity and zeroed by
	// WithoutTimings. Steals counts frontier tasks taken from another
	// worker's deque; MaxFrontier is the high-water mark of outstanding
	// frontier entries; WorkerBusy sums the wall clock workers spent
	// inside executions (vs stealing or parked) — the numerator of the
	// busy fraction WorkerBusy / (Elapsed × workers). All three survive
	// checkpoint/resume boundaries; every DFS run reports them (one
	// worker included), and they stay zero under FastMode.
	Steals      int           `json:"steals"`
	MaxFrontier int           `json:"max_frontier"`
	WorkerBusy  time.Duration `json:"worker_busy_ns"`

	// Fast-mode telemetry (Config.FastMode).
	//
	// StoreBufferEvictions counts stores evicted from bounded per-location
	// store buffers — the knob-visible cost of the O(live state) memory
	// bound. It is a deterministic function of the run set (summed by
	// Merge, kept by WithoutTimings), so the parallel bit-identity tests
	// cover it like any other counter.
	StoreBufferEvictions int `json:"store_buffer_evictions,omitempty"`
	// RunsPerSec is Executions / Elapsed, computed once by exploreFast
	// after the worker merge. Timing-class: not summed by Merge, zeroed by
	// WithoutTimings.
	RunsPerSec float64 `json:"runs_per_sec,omitempty"`
}

// Merge folds o into s: counters add, depths max, timings add. The
// parallel explorer merges worker stats with it, and the harness uses it
// to aggregate stats across independent runs (e.g. Figure 8 trials).
// RFClasses adds like every other counter: each exploration counts the
// classes of its own registry, and per-execution results carry none
// (the engine sets the exploration's count once its workers stop).
func (s *Stats) Merge(o *Stats) {
	s.PrunedSleepSet += o.PrunedSleepSet
	s.PrunedFairness += o.PrunedFairness
	s.PrunedStepBound += o.PrunedStepBound
	s.RFEquivPrunes += o.RFEquivPrunes
	s.RFClasses += o.RFClasses
	s.SymmetryPrunes += o.SymmetryPrunes
	s.SpinloopBounds += o.SpinloopBounds
	s.RFBranchPoints += o.RFBranchPoints
	s.ScheduleBranchPoints += o.ScheduleBranchPoints
	s.ReplayedDecisions += o.ReplayedDecisions
	if o.MaxDecisionDepth > s.MaxDecisionDepth {
		s.MaxDecisionDepth = o.MaxDecisionDepth
	}
	s.TotalSteps += o.TotalSteps
	s.Histories += o.Histories
	s.HistoriesCapped += o.HistoriesCapped
	s.AdmissibilityChecks += o.AdmissibilityChecks
	s.JustifySearches += o.JustifySearches
	s.SpecCacheHits += o.SpecCacheHits
	s.SpecCacheMisses += o.SpecCacheMisses
	s.SpecCacheEntries += o.SpecCacheEntries
	s.ExploreTime += o.ExploreTime
	s.SpecTime += o.SpecTime
	s.Steals += o.Steals
	if o.MaxFrontier > s.MaxFrontier {
		s.MaxFrontier = o.MaxFrontier
	}
	s.WorkerBusy += o.WorkerBusy
	s.StoreBufferEvictions += o.StoreBufferEvictions
}

// WithoutTimings returns a copy with the wall-clock and scheduler-
// telemetry fields zeroed — the form the determinism tests compare,
// since timing and scheduling are the only parts of Stats allowed to
// differ between exhaustive runs at different worker counts.
func (s Stats) WithoutTimings() Stats {
	s.ExploreTime, s.SpecTime = 0, 0
	s.Steals, s.MaxFrontier, s.WorkerBusy = 0, 0, 0
	s.RunsPerSec = 0
	return s
}
