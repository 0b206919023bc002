package harness

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/checker"
	"repro/internal/core"
)

// TestFig7AllBenchmarksClean: every benchmark's primary workload explores
// exhaustively with zero failures and a nonzero feasible count — the
// precondition for the Figure 7 numbers to mean anything.
func TestFig7AllBenchmarksClean(t *testing.T) {
	for _, b := range Benchmarks() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			row := b.RunFig7(Options{})
			if row.Executions == 0 || row.Feasible == 0 {
				t.Fatalf("%s explored nothing: %+v", b.Name, row)
			}
			if row.Executions != row.Feasible+row.Pruned {
				t.Errorf("%s: executions=%d != feasible=%d + pruned=%d (clean runs have no failures)",
					b.Name, row.Executions, row.Feasible, row.Pruned)
			}
			if got := row.Stats.PrunedSleepSet + row.Stats.PrunedFairness + row.Stats.PrunedStepBound; got != row.Pruned {
				t.Errorf("%s: prune-reason split %d does not sum to Pruned %d", b.Name, got, row.Pruned)
			}
			t.Logf("%s: executions=%d feasible=%d elapsed=%v explore=%v spec=%v (paper %d/%d/%ss)",
				b.Name, row.Executions, row.Feasible, row.Elapsed,
				row.Stats.ExploreTime, row.Stats.SpecTime,
				row.PaperExecutions, row.PaperFeasible, row.PaperTime)
		})
	}
}

// TestFig8DetectionRates: the measured detection must match the expected
// shape — every site not in the benchmark's UndetectableSites list is
// detected, and the overall rate stays high (paper: 93%).
func TestFig8DetectionRates(t *testing.T) {
	totalInj, totalDet := 0, 0
	for _, b := range Benchmarks() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			row := b.RunFig8(Options{})
			totalInj += row.Injections
			totalDet += row.Detected
			t.Logf("%s: %d/%d detected (builtin %d, admissibility %d, assertion %d; paper %d@%d%%)",
				b.Name, row.Detected, row.Injections,
				row.Builtin, row.Admissibility, row.Assertion,
				b.PaperInjections, b.PaperRatePercent)
			for _, m := range row.Missed {
				site := strings.SplitN(m, ":", 2)[0]
				if !b.UndetectableSites[site] {
					t.Errorf("%s: unexpected missed injection %q", b.Name, m)
				}
			}
		})
	}
	if totalInj == 0 {
		t.Fatal("no injections ran")
	}
	rate := totalDet * 100 / totalInj
	t.Logf("overall: %d/%d detected (%d%%; paper 93%%)", totalDet, totalInj, rate)
	if rate < 70 {
		t.Errorf("overall detection rate %d%% too low (paper: 93%%)", rate)
	}
}

// TestKnownBugsAllDetected: the three §6.4.1 bugs (in both Chase-Lev
// guises) are detected.
func TestKnownBugsAllDetected(t *testing.T) {
	for _, r := range RunKnownBugs() {
		if !r.Detected {
			t.Errorf("known bug not detected: %s", r.Name)
		} else {
			t.Logf("%s: %s", r.Name, r.Channel)
		}
	}
}

// TestOverlyStrongCAS: the §6.4.3 relaxation produces zero violations
// over an exhaustive exploration.
func TestOverlyStrongCAS(t *testing.T) {
	r := RunOverlyStrong()
	if r.Violations != 0 {
		t.Errorf("overly strong CAS relaxation flagged %d violations", r.Violations)
	}
	if r.Feasible == 0 {
		t.Error("no feasible executions explored")
	}
	t.Logf("overly-strong experiment: %d executions, %d feasible, %d violations",
		r.Executions, r.Feasible, r.Violations)
}

// TestSpecStats: the specification-size statistics are in the paper's
// ballpark (27 methods across 10 benchmarks, a handful of admissibility
// rules).
func TestSpecStats(t *testing.T) {
	stats := RunSpecStats()
	if len(stats) != 10 {
		t.Fatalf("expected 10 benchmarks, got %d", len(stats))
	}
	methods, rules := 0, 0
	for _, s := range stats {
		methods += s.Methods
		rules += s.AdmitRules
	}
	if methods < 20 || methods > 40 {
		t.Errorf("total methods = %d, expected ~27 (paper)", methods)
	}
	if rules == 0 {
		t.Error("no admissibility rules found")
	}
	t.Logf("\n%s", FormatSpecStats(stats))
}

// TestFormatters: the table renderers produce non-empty output with the
// right headers.
func TestFormatters(t *testing.T) {
	f7 := FormatFig7([]Fig7Row{{Name: "X", Executions: 1, Feasible: 1}})
	if !strings.Contains(f7, "# Executions") || !strings.Contains(f7, "X") {
		t.Errorf("bad Figure 7 table:\n%s", f7)
	}
	f8 := FormatFig8([]Fig8Row{{Name: "X", Injections: 2, Builtin: 1, Detected: 1, Missed: []string{"s: a -> b"}}})
	if !strings.Contains(f8, "Admissibility") || !strings.Contains(f8, "missed") {
		t.Errorf("bad Figure 8 table:\n%s", f8)
	}
	kb := FormatKnownBugs([]KnownBugResult{{Name: "B", Detected: true, Channel: "assertion"}})
	if !strings.Contains(kb, "detected via assertion") {
		t.Errorf("bad known-bugs table:\n%s", kb)
	}
}

// TestSnapshotJSON: the -json snapshot blob is valid JSON, carries the
// schema marker, and round-trips the rows.
func TestSnapshotJSON(t *testing.T) {
	fig7 := []Fig7Row{{Name: "X", Executions: 5, Feasible: 4, Pruned: 1,
		Stats: checker.Stats{PrunedSleepSet: 1, TotalSteps: 40, SpecCacheHits: 7}}}
	fig8 := []Fig8Row{{Name: "X", Injections: 3, Detected: 2, Builtin: 2}}
	blob, err := SnapshotJSON(fig7, fig8)
	if err != nil {
		t.Fatal(err)
	}
	var snap BenchSnapshot
	if err := json.Unmarshal(blob, &snap); err != nil {
		t.Fatalf("snapshot does not round-trip: %v\n%s", err, blob)
	}
	if snap.Schema != SnapshotSchema {
		t.Errorf("schema = %q, want %q", snap.Schema, SnapshotSchema)
	}
	if len(snap.Fig7) != 1 || snap.Fig7[0].Stats.TotalSteps != 40 {
		t.Errorf("fig7 rows did not survive the round-trip: %+v", snap.Fig7)
	}
	if len(snap.Fig8) != 1 || snap.Fig8[0].Detected != 2 {
		t.Errorf("fig8 rows did not survive the round-trip: %+v", snap.Fig8)
	}
	if snap.Fig7[0].Stats.SpecCacheHits != 7 {
		t.Errorf("spec-cache counters did not survive the round-trip: %+v", snap.Fig7[0].Stats)
	}
}

// TestFig7CacheColumn: the rendered Figure 7 table carries the cache
// hit-rate column, and a row without cached checking renders it n/a.
func TestFig7CacheColumn(t *testing.T) {
	rows := []Fig7Row{{Name: "X", Stats: checker.Stats{SpecCacheHits: 3, SpecCacheMisses: 1}}}
	out := FormatFig7(rows)
	if !strings.Contains(out, "Cache") || !strings.Contains(out, "75%") {
		t.Errorf("Figure 7 table missing cache column:\n%s", out)
	}
	if got := SpecCacheHitRate(&checker.Stats{}); got != "n/a" {
		t.Errorf("hit rate without cached checking = %q, want n/a", got)
	}
}

// TestDisableSpecCacheOption: the harness-level switch reaches the spec.
func TestDisableSpecCacheOption(t *testing.T) {
	b := BenchmarkByName("M&S Queue")
	if b == nil {
		t.Fatal("M&S Queue benchmark missing")
	}
	if !b.spec(Options{DisableSpecCache: true}).DisableCheckCache {
		t.Error("DisableSpecCache option not applied to the spec")
	}
	if b.spec(Options{}).DisableCheckCache {
		t.Error("cache disabled by default")
	}
}

// TestFig8ParallelDeterminism: a worker-pool Figure 8 sweep produces a
// row identical to the sequential sweep (trials are independent and the
// fold is in weakening order).
func TestFig8ParallelDeterminism(t *testing.T) {
	b := BenchmarkByName("SPSC Queue")
	if b == nil {
		t.Fatal("SPSC Queue benchmark missing")
	}
	seq := b.RunFig8(Options{Workers: 1})
	par := b.RunFig8(Options{Workers: 4})
	// The Stats timing fields are wall-clock measurements and differ even
	// between two sequential runs; everything else must be bit-identical.
	seqCmp, parCmp := seq, par
	seqCmp.Stats = seqCmp.Stats.WithoutTimings()
	parCmp.Stats = parCmp.Stats.WithoutTimings()
	if fmt.Sprintf("%+v", seqCmp) != fmt.Sprintf("%+v", parCmp) {
		t.Errorf("parallel Fig8 row differs:\n  seq: %+v\n  par: %+v", seqCmp, parCmp)
	}
}

// TestFig8RFClassesSumTrials: under the rf reduction a Figure 8 row
// reports the sum of its trials' class counts, like every other counter
// it folds through Stats.Merge.
func TestFig8RFClassesSumTrials(t *testing.T) {
	b := BenchmarkByName("M&S Queue")
	opts := Options{Workers: 1, Reduce: checker.ReduceSet{RF: true}}
	row := b.RunFig8(opts)
	want := 0
	for _, weak := range b.Orders().Weakenings() {
		for _, prog := range b.Progs(weak) {
			cfg := opts.ExplorerConfig(b.Name)
			cfg.StopAtFirst = true
			res := core.Explore(b.spec(opts), cfg, prog)
			want += res.Stats.RFClasses
			if res.FirstFailure() != nil {
				break
			}
		}
	}
	if want == 0 || row.Stats.RFClasses != want {
		t.Errorf("Figure 8 row reports %d rf classes, want the trials' sum %d", row.Stats.RFClasses, want)
	}
}

// TestMSQueueParallelDFSDeterminism: exhaustive checker-level parallel
// exploration of the M&S queue workload matches the one-worker run
// exactly (the determinism suite anchor).
func TestMSQueueParallelDFSDeterminism(t *testing.T) {
	b := BenchmarkByName("M&S Queue")
	if b == nil {
		t.Fatal("M&S Queue benchmark missing")
	}
	prog := b.Progs(b.Orders())[0]
	seq := core.Explore(b.Spec(), checker.Config{}, prog)
	par := core.Explore(b.Spec(), checker.Config{Parallelism: 4}, prog)
	if seq.Executions != par.Executions || seq.Feasible != par.Feasible ||
		seq.Pruned != par.Pruned || seq.Exhausted != par.Exhausted ||
		seq.FailureCount != par.FailureCount {
		t.Errorf("parallel exploration differs:\n  seq: %v\n  par: %v", seq, par)
	}
	// Stats must be bit-identical too, except the wall-clock timings
	// (Elapsed and the Stats.ExploreTime/SpecTime split), which are
	// explicitly exempt: parallel workers accumulate them concurrently.
	if seq.Stats.WithoutTimings() != par.Stats.WithoutTimings() {
		t.Errorf("parallel stats differ:\n  seq: %+v\n  par: %+v",
			seq.Stats.WithoutTimings(), par.Stats.WithoutTimings())
	}
	if seq.Stats.Histories == 0 {
		t.Error("spec-layer history count missing from stats")
	}
	// The WithoutTimings equality above already covers the spec-cache
	// counters; additionally require that the cache actually engaged, so
	// the bit-identity claim is about a nontrivial hit pattern.
	if seq.Stats.SpecCacheHits == 0 || seq.Stats.SpecCacheMisses == 0 {
		t.Errorf("spec cache idle on the M&S queue workload: hits=%d misses=%d",
			seq.Stats.SpecCacheHits, seq.Stats.SpecCacheMisses)
	}
	if seq.Elapsed <= 0 || par.Elapsed <= 0 || seq.Stats.ExploreTime <= 0 || seq.Stats.SpecTime <= 0 {
		t.Errorf("timing fields should be positive: seq elapsed=%v explore=%v spec=%v, par elapsed=%v",
			seq.Elapsed, seq.Stats.ExploreTime, seq.Stats.SpecTime, par.Elapsed)
	}
}

// TestRatePercentZeroInjections: a row with no injections reports 0 (not
// 100) and renders as n/a.
func TestRatePercentZeroInjections(t *testing.T) {
	r := Fig8Row{Name: "empty"}
	if got := r.RatePercent(); got != 0 {
		t.Errorf("RatePercent() = %d for zero injections, want 0", got)
	}
	out := FormatFig8([]Fig8Row{r})
	if !strings.Contains(out, "n/a") {
		t.Errorf("FormatFig8 should render n/a for zero injections:\n%s", out)
	}
}
