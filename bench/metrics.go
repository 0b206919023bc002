package main

import (
	"math"
	"sort"
	"time"

	"repro/internal/checker"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is the full result of one run, written by -out and read by
// -compare.
type record struct {
	Env       env  `json:"env"`
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	// VerdictOK is the fraction of checks whose verdict matched
	// expected.json, or "unchecked" when the seed's fuzz programs have no
	// entry there (their verdicts are then held to invariants only).
	VerdictOK any `json:"verdict_ok"`
	// Samples counts what the metrics were taken over.
	Samples map[string]int `json:"samples"`
	// Metrics are those of the last output line: end-to-end, or per-layer
	// in a traced run.
	Metrics map[string]metric `json:"metrics"`
	// EndToEnd of a traced run comes from its untraced passes.
	EndToEnd map[string]metric `json:"end_to_end,omitempty"`
	// Raw holds the end-to-end times before they are divided by the
	// reference, and the reference's median time.
	Raw map[string]metric `json:"raw"`
	// Counts are the layer counters of the first pass, a function of the
	// code, the workload and the seed; -compare requires them to match.
	Counts map[string]int64 `json:"counts"`
	Errors []string         `json:"errors,omitempty"`
}

func (r *record) result() result {
	return result{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: r.Metrics}
}

// maxErrors bounds the verdict mismatches kept in a record.
const maxErrors = 10

func summarize(e env, w *workload, setup, refs []time.Duration, passes []passRec, tr *tracer) *record {
	rec := &record{Env: e, Counts: counts(passes[0], w.workers)}
	var untraced, traced []passRec
	for _, p := range passes {
		if p.traced {
			traced = append(traced, p)
		} else {
			untraced = append(untraced, p)
		}
		for _, c := range p.checks {
			rec.Attempted++
			if c.err != nil {
				rec.Failed++
				if len(rec.Errors) < maxErrors {
					rec.Errors = append(rec.Errors, c.err.Error())
				}
			}
		}
	}
	rec.Correct = rec.Failed == 0
	rec.VerdictOK = "unchecked"
	if w.pinned {
		rec.VerdictOK = float64(rec.Attempted-rec.Failed) / float64(rec.Attempted)
	}
	e2e, raw := endToEnd(setup, refs, untraced)
	rec.Raw = raw
	rec.Samples = map[string]int{"setup_reps": len(setup), "references": len(refs), "passes": len(untraced), "checks": checkCount(untraced)}
	if tr == nil {
		rec.Metrics = e2e
	} else {
		rec.EndToEnd = e2e
		rec.Metrics = layerMetrics(w, setup, untraced, traced, tr)
		rec.Samples["traced_passes"] = len(traced)
		rec.Samples["traced_checks"] = checkCount(traced)
	}
	return rec
}

func checkCount(passes []passRec) int {
	n := 0
	for _, p := range passes {
		n += len(p.checks)
	}
	return n
}

// endToEnd computes what a user of the checker sees, over untraced
// passes: set-up time, the median pass's wall clock and CPU time, the
// 95th-percentile latency of a check (its verdict), and the peak
// resident set. The times after set-up are also returned raw; the
// end-to-end ones are divided by the median reference time of the run
// (see reference.go).
//
// The median check latency is raw only. On fuzz-campaign check
// latencies split into programs that exhaust in a few milliseconds and
// programs that run to the budget, and the median falls in the gap
// between them: it moved by more than half from seed to seed even with
// the mix of program sizes held fixed.
func endToEnd(setup, refs []time.Duration, passes []passRec) (e2e, raw map[string]metric) {
	var setups, refSecs, walls, cpus, lats []float64
	for _, d := range setup {
		setups = append(setups, d.Seconds())
	}
	for _, d := range refs {
		refSecs = append(refSecs, d.Seconds())
	}
	for _, p := range passes {
		walls = append(walls, p.wall.Seconds())
		cpus = append(cpus, p.cpu.Seconds())
		for _, c := range p.checks {
			lats = append(lats, c.lat.Seconds())
		}
	}
	ref := median(refSecs)
	wall, cpu, p50, p95 := median(walls), median(cpus), percentile(lats, 50), percentile(lats, 95)
	e2e = map[string]metric{
		"setup_s":       {median(setups), "s"},
		"wall_ref":      {wall / ref, "ref"},
		"cpu_ref":       {cpu / ref, "ref"},
		"check_p95_ref": {p95 / ref, "ref"},
		"peak_rss_mb":   {peakRSS() / 1e6, "MB"},
	}
	raw = map[string]metric{
		"reference_ms": {ref * 1e3, "ms"},
		"wall_s":       {wall, "s"},
		"cpu_s":        {cpu, "s"},
		"check_p50_ms": {p50 * 1e3, "ms"},
		"check_p95_ms": {p95 * 1e3, "ms"},
	}
	return e2e, raw
}

// tally sums the verdicts of a set of checks by layer.
type tally struct {
	checks          int
	lat             time.Duration
	execs, feasible int
	hasStats        bool
	stats           checker.Stats
	// rfClasses sums what Stats.Merge would take the maximum of.
	rfClasses int
	// Work-stealing checks: engine workers, and check latency × workers.
	engineWorkers int
	engineTime    time.Duration
	// Fast mode: runs and time of the unit-scale rows, and of the scaled
	// row.
	fastRuns, unitRuns int
	unitLat            time.Duration
	scaledOps          int
	scaledLat          time.Duration
	heapHigh           uint64
	// Fuzz verdicts.
	programs, exhausted, capped, failing int
}

func (t *tally) add(c checkRec, workers int) {
	t.checks++
	t.lat += c.lat
	o := c.out
	if o.res == nil && o.verdict == nil {
		return // the check failed before returning a verdict
	}
	execs := o.executions()
	t.execs += execs
	t.feasible += o.feasible()
	exhausted, failed := false, false
	if r := o.res; r != nil {
		t.hasStats = true
		t.stats.Merge(&r.Stats)
		t.rfClasses += r.Stats.RFClasses
		if r.Stats.WorkerBusy > 0 {
			t.engineWorkers = max(t.engineWorkers, workers)
			t.engineTime += c.lat * time.Duration(workers)
		}
		exhausted, failed = r.Exhausted, r.FailureCount > 0
	} else {
		exhausted, failed = o.verdict.Exhausted, o.verdict.Failure != nil
	}
	switch c.job.kind {
	case kindFast:
		t.fastRuns += execs
		t.unitRuns += execs
		t.unitLat += c.lat
	case kindScaled:
		t.fastRuns += execs
		t.scaledOps += execs * o.ops
		t.scaledLat += c.lat
		t.heapHigh = max(t.heapHigh, o.heapHigh)
	case kindFuzz:
		t.programs++
		switch {
		case failed:
			t.failing++
		case exhausted:
			t.exhausted++
		default:
			t.capped++
		}
	}
}

// counts are the integer layer counters of one pass.
func counts(p passRec, workers int) map[string]int64 {
	var t tally
	for _, c := range p.checks {
		t.add(c, workers)
	}
	m := map[string]int64{
		"checks":              int64(t.checks),
		"explorer.executions": int64(t.execs),
		"explorer.feasible":   int64(t.feasible),
		"fast.runs":           int64(t.fastRuns),
		"fuzz.programs":       int64(t.programs),
		"fuzz.exhausted":      int64(t.exhausted),
		"fuzz.budget_capped":  int64(t.capped),
		"fuzz.failing":        int64(t.failing),
	}
	if !t.hasStats {
		return m
	}
	s := &t.stats
	for k, v := range map[string]int{
		"explorer.pruned_sleep_set":       s.PrunedSleepSet,
		"explorer.pruned_fairness":        s.PrunedFairness,
		"explorer.pruned_step_bound":      s.PrunedStepBound,
		"explorer.rf_branch_points":       s.RFBranchPoints,
		"explorer.schedule_branch_points": s.ScheduleBranchPoints,
		"explorer.replayed_decisions":     s.ReplayedDecisions,
		"explorer.max_decision_depth":     s.MaxDecisionDepth,
		"kernel.total_steps":              s.TotalSteps,
		"reduce.rf_equiv_prunes":          s.RFEquivPrunes,
		"reduce.rf_classes":               t.rfClasses,
		"reduce.symmetry_prunes":          s.SymmetryPrunes,
		"reduce.spinloop_bounds":          s.SpinloopBounds,
		"engine.steals":                   s.Steals,
		"engine.max_frontier":             s.MaxFrontier,
		"spec.histories":                  s.Histories,
		"spec.histories_capped":           s.HistoriesCapped,
		"spec.admissibility_checks":       s.AdmissibilityChecks,
		"spec.justify_searches":           s.JustifySearches,
		"spec.cache_hits":                 s.SpecCacheHits,
		"spec.cache_misses":               s.SpecCacheMisses,
		"fast.store_buffer_evictions":     s.StoreBufferEvictions,
	} {
		m[k] = int64(v)
	}
	return m
}

// layerMetrics computes the per-layer metrics of a traced run. Counters
// and layer times come from the traced passes, averaged per pass; the
// allocation and GC figures come from the untraced passes, which the
// span recording does not perturb. A layer a workload bypasses reports
// zero, which is why a layer's time is given as a share where some
// workload bypasses it.
func layerMetrics(w *workload, setup []time.Duration, untraced, traced []passRec, tr *tracer) map[string]metric {
	var t tally
	var core, bare time.Duration
	var tracedWalls []float64
	for _, p := range traced {
		for _, c := range p.checks {
			t.add(c, w.workers)
		}
		core += p.core
		bare += p.bare
		tracedWalls = append(tracedWalls, p.wall.Seconds())
	}
	var mallocs, bytes uint64
	var gcs uint32
	var pause time.Duration
	var walls []float64
	execs := 0
	for _, p := range untraced {
		mallocs += p.mallocs
		bytes += p.bytes
		gcs += p.gcs
		pause += p.gcPause
		walls = append(walls, p.wall.Seconds())
		for _, c := range p.checks {
			if c.out.res != nil || c.out.verdict != nil {
				execs += c.out.executions()
			}
		}
	}
	n := float64(len(traced))
	perPass := func(v int) float64 { return float64(v) / n }
	s := &t.stats
	execNs := tr.execDurations("check")
	count := func(v int) metric { return metric{perPass(v), "count"} }
	ratio := func(a, b float64) metric { return metric{div(a, b), "ratio"} }
	return map[string]metric{
		"explorer.executions":             count(t.execs),
		"explorer.feasible":               count(t.feasible),
		"explorer.feasible_ratio":         ratio(float64(t.feasible), float64(t.execs)),
		"explorer.execs_per_s":            {div(float64(t.execs), t.lat.Seconds()), "1/s"},
		"explorer.pruned_sleep_set":       count(s.PrunedSleepSet),
		"explorer.pruned_fairness":        count(s.PrunedFairness),
		"explorer.pruned_step_bound":      count(s.PrunedStepBound),
		"explorer.rf_branch_points":       count(s.RFBranchPoints),
		"explorer.schedule_branch_points": count(s.ScheduleBranchPoints),
		"explorer.replayed_decisions":     count(s.ReplayedDecisions),
		"explorer.replay_ratio":           ratio(float64(s.ReplayedDecisions), float64(s.TotalSteps)),
		"explorer.max_decision_depth":     {float64(s.MaxDecisionDepth), "count"},

		"kernel.total_steps": count(s.TotalSteps),
		"kernel.explore_s":   {s.ExploreTime.Seconds() / n, "s"},
		"kernel.ns_per_step": {div(float64(s.ExploreTime), float64(s.TotalSteps)), "ns"},
		"kernel.exec_p50_us": {percentile(execNs, 50) / 1e3, "us"},
		"kernel.exec_p99_us": {percentile(execNs, 99) / 1e3, "us"},

		"reduce.rf_equiv_prunes": count(s.RFEquivPrunes),
		"reduce.rf_classes":      count(t.rfClasses),
		"reduce.symmetry_prunes": count(s.SymmetryPrunes),
		"reduce.spinloop_bounds": count(s.SpinloopBounds),
		"reduce.class_yield":     ratio(float64(t.rfClasses), float64(t.execs)),

		"engine.workers":      {float64(t.engineWorkers), "count"},
		"engine.steals":       count(s.Steals),
		"engine.max_frontier": {float64(s.MaxFrontier), "count"},
		"engine.busy_frac":    ratio(float64(s.WorkerBusy), float64(t.engineTime)),

		"spec.share":                ratio(float64(s.SpecTime), float64(s.ExploreTime+s.SpecTime)),
		"spec.self_share":           ratio(float64(core-bare), float64(core)),
		"spec.histories":            count(s.Histories),
		"spec.histories_capped":     count(s.HistoriesCapped),
		"spec.admissibility_checks": count(s.AdmissibilityChecks),
		"spec.justify_searches":     count(s.JustifySearches),
		"spec.cache_hits":           count(s.SpecCacheHits),
		"spec.cache_misses":         count(s.SpecCacheMisses),
		"spec.cache_hit_ratio":      ratio(float64(s.SpecCacheHits), float64(s.SpecCacheHits+s.SpecCacheMisses)),

		"fast.runs":                   count(t.fastRuns),
		"fast.runs_per_s":             {div(float64(t.unitRuns), t.unitLat.Seconds()), "1/s"},
		"fast.scaled_ops_per_s":       {div(float64(t.scaledOps), t.scaledLat.Seconds()), "1/s"},
		"fast.store_buffer_evictions": count(s.StoreBufferEvictions),
		"fast.heap_high_water_mb":     {float64(t.heapHigh) / 1e6, "MB"},

		"fuzz.gen_share":     ratio(w.gen.Seconds(), setup[len(setup)-1].Seconds()),
		"fuzz.programs":      count(t.programs),
		"fuzz.exhausted":     count(t.exhausted),
		"fuzz.budget_capped": count(t.capped),
		"fuzz.failing":       count(t.failing),

		"mem.allocs_per_exec": {div(float64(mallocs), float64(execs)), "count"},
		"mem.bytes_per_exec":  {div(float64(bytes), float64(execs)), "B"},
		"mem.gc_cycles":       {float64(gcs) / float64(len(untraced)), "count"},
		"mem.gc_pause_ms":     {float64(pause) / 1e6 / float64(len(untraced)), "ms"},

		"trace.overhead_pct": {(div(median(tracedWalls), median(walls)) - 1) * 100, "%"},
	}
}

// div is a/b, or 0 when b is 0 (a layer the workload bypasses).
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile interpolates linearly between the closest ranks; it is 0
// for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}
