// Package harness drives the paper's evaluation (§6): Figure 7 (benchmark
// exploration statistics), Figure 8 (bug-injection detection), the known
// bugs of §6.4.1, the overly strong parameter of §6.4.3, and the
// ease-of-use statistics of §6.2. Each experiment is reproducible from
// the cdsspec CLI and from the repository-root benchmarks.
package harness

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/checker"
	"repro/internal/checker/model"
	"repro/internal/core"
	"repro/internal/fuzz"
	"repro/internal/memmodel"
)

// Options configures how the harness schedules its independent work
// items — Figure 8 weakening trials and Figure 7 benchmark rows.
type Options struct {
	// Workers bounds the worker pool. 0 means runtime.GOMAXPROCS(0).
	Workers int
	// Parallelism sets checker.Config.Parallelism for every exploration
	// the harness runs: the number of work-stealing engine workers (0 or
	// 1 = one worker). Orthogonal to Workers, which parallelizes across
	// independent work items (Figure 8 trials, Figure 7 rows) rather than
	// within one exploration.
	Parallelism int
	// Model selects the consistency model for every exploration the
	// harness runs (zero value = c11). The paper's numbers are C/C++11
	// numbers; the other models exist for behavior diffing (RunDiff).
	Model model.ID
	// Reduce selects the execution-equivalence reductions
	// (checker.Config.Reduce) for every exploration the harness runs.
	// Zero value = no reduction. Reduction preserves the behavior set —
	// spec fingerprints and failure kinds — while cutting the executions
	// explored; a one-model RunDiff with one leg reduced pins that claim
	// per target.
	Reduce checker.ReduceSet
	// Progress, when set, receives periodic exploration snapshots labeled
	// with the benchmark name (the cdsspec -progress flag feeds on it).
	// Rows may explore concurrently, so the callback must be safe for
	// concurrent use.
	Progress func(name string, p checker.Progress)
	// ProgressInterval is the snapshot period (default 1s).
	ProgressInterval time.Duration
	// DisableSpecCache turns off the per-shard spec-check memoization for
	// every exploration the harness runs (Spec.DisableCheckCache), for
	// cache-on/off ablation runs. Results must be identical either way;
	// only timings and the spec_cache_* counters change.
	DisableSpecCache bool
	// CPUProfile and MemProfile, when non-empty, are file paths the CLI
	// writes pprof profiles to around the invoked experiment (see
	// StartProfiles).
	CPUProfile, MemProfile string
}

// StartProfiles starts CPU profiling when CPUProfile is set and returns
// a stop function that finishes the CPU profile and writes the heap
// profile when MemProfile is set. The stop function is always non-nil
// and safe to call once.
func (o Options) StartProfiles() (stop func() error, err error) {
	var cpuFile *os.File
	if o.CPUProfile != "" {
		cpuFile, err = os.Create(o.CPUProfile)
		if err != nil {
			return nil, fmt.Errorf("creating cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("starting cpu profile: %w", err)
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		if o.MemProfile != "" {
			f, err := os.Create(o.MemProfile)
			if err != nil {
				return fmt.Errorf("creating mem profile: %w", err)
			}
			defer f.Close()
			runtime.GC() // flush recently freed objects out of the heap profile
			if err := pprof.WriteHeapProfile(f); err != nil {
				return fmt.Errorf("writing mem profile: %w", err)
			}
		}
		return nil
	}, nil
}

// spec builds the benchmark's spec with the harness-level cache switch
// applied.
func (b *Benchmark) spec(opts Options) *core.Spec {
	s := b.Spec()
	if opts.DisableSpecCache {
		s.DisableCheckCache = true
	}
	return s
}

func (o Options) workerCount() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// ExplorerConfig builds the checker configuration for one benchmark run,
// wiring the name-labeled progress callback when requested. The cdsspec
// CLI uses it for one-off explorations that bypass the Run* helpers.
func (o Options) ExplorerConfig(name string) checker.Config {
	cfg := checker.Config{ProgressInterval: o.ProgressInterval, Parallelism: o.Parallelism, Model: o.Model, Reduce: o.Reduce}
	if o.Progress != nil {
		cfg.Progress = func(p checker.Progress) { o.Progress(name, p) }
	}
	return cfg
}

// forEach runs f(0..n-1) on at most workers goroutines and waits for all
// of them. Callers write results into index-addressed slots, so the
// output order is deterministic regardless of scheduling.
func forEach(workers, n int, f func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				f(i)
			}
		}()
	}
	wg.Wait()
}

// Benchmark bundles one paper benchmark: its spec, parameterized orders,
// unit tests, and the numbers the paper reports for it.
type Benchmark struct {
	// Name matches the Figure 7 row.
	Name string
	// Spec builds the CDSSpec specification.
	Spec func() *core.Spec
	// Orders returns the correct memory-order table.
	Orders func() *memmodel.OrderTable
	// Progs returns the unit tests for the given orders; Progs()[0] is
	// the primary workload used for Figure 7.
	Progs func(ord *memmodel.OrderTable) []func(*checker.Thread)
	// UndetectableSites lists sites whose one-step weakening is known to
	// be unobservable — either an overly strong parameter (the paper's
	// §6.4.3 phenomenon) or a modification-order anomaly our model
	// excludes (DESIGN.md limitation 2).
	UndetectableSites map[string]bool
	// Ops returns the structure's fuzzable client-operation registry,
	// from which the generative campaigns build programs.
	Ops func() *fuzz.Registry

	// Paper numbers (Figures 7 and 8).
	PaperExecutions, PaperFeasible     int
	PaperTime                          string
	PaperInjections, PaperBuiltin      int
	PaperAdmissibility, PaperAssertion int
	PaperRatePercent                   int
}

// FuzzTarget bundles the benchmark's spec, orders, and op registry into
// the fuzz package's target form, so campaigns check generated programs
// against the same specification the hand-written unit tests use.
func (b *Benchmark) FuzzTarget() *fuzz.Target {
	return &fuzz.Target{
		Name:     b.Name,
		Spec:     b.Spec,
		Orders:   b.Orders,
		Registry: b.Ops(),
	}
}

// Fig7Row is one measured row of Figure 7, with the observability extras
// (prune split, branch counts, phase timings) carried in Stats.
type Fig7Row struct {
	Name            string        `json:"name"`
	Executions      int           `json:"executions"`
	Feasible        int           `json:"feasible"`
	Pruned          int           `json:"pruned"`
	Elapsed         time.Duration `json:"elapsed_ns"`
	Stats           checker.Stats `json:"stats"`
	PaperExecutions int           `json:"paper_executions"`
	PaperFeasible   int           `json:"paper_feasible"`
	PaperTime       string        `json:"paper_time_s"`
}

// RunFig7 explores the primary unit test exhaustively and returns the
// measured row.
func (b *Benchmark) RunFig7(opts Options) Fig7Row {
	res := core.Explore(b.spec(opts), opts.ExplorerConfig(b.Name), b.Progs(b.Orders())[0])
	return Fig7Row{
		Name:            b.Name,
		Executions:      res.Executions,
		Feasible:        res.Feasible,
		Pruned:          res.Pruned,
		Elapsed:         res.Elapsed,
		Stats:           res.Stats,
		PaperExecutions: b.PaperExecutions,
		PaperFeasible:   b.PaperFeasible,
		PaperTime:       b.PaperTime,
	}
}

// Fig8Row is one measured row of Figure 8. Executions and Stats aggregate
// over every weakening trial of the row.
type Fig8Row struct {
	Name               string        `json:"name"`
	Injections         int           `json:"injections"`
	Builtin            int           `json:"builtin"`
	Admissibility      int           `json:"admissibility"`
	Assertion          int           `json:"assertion"`
	Detected           int           `json:"detected"`
	Missed             []string      `json:"missed,omitempty"`
	Executions         int           `json:"executions"`
	Stats              checker.Stats `json:"stats"`
	PaperInjections    int           `json:"paper_injections"`
	PaperBuiltin       int           `json:"paper_builtin"`
	PaperAdmissibility int           `json:"paper_admissibility"`
	PaperAssertion     int           `json:"paper_assertion"`
	PaperRatePercent   int           `json:"paper_rate_percent"`
}

// RatePercent returns the measured detection rate, or 0 when the row had
// no injections (rendered as "n/a" by FormatFig8).
func (r Fig8Row) RatePercent() int {
	if r.Injections == 0 {
		return 0
	}
	return r.Detected * 100 / r.Injections
}

// RunFig8 runs the §6.4.2 injection experiment: every one-step weakening
// of every exercised site, classified by the first detection channel in
// the paper's priority order (built-in, then admissibility, then
// assertion). The trials are independent and run on opts' worker pool;
// the row is folded in weakening order, so Missed ordering and every
// count are deterministic.
func (b *Benchmark) RunFig8(opts Options) Fig8Row {
	row := Fig8Row{
		Name:               b.Name,
		PaperInjections:    b.PaperInjections,
		PaperBuiltin:       b.PaperBuiltin,
		PaperAdmissibility: b.PaperAdmissibility,
		PaperAssertion:     b.PaperAssertion,
		PaperRatePercent:   b.PaperRatePercent,
	}
	defaults := b.Orders()
	weaks := defaults.Weakenings()
	hits := make([]*checker.Failure, len(weaks))
	trialExecs := make([]int, len(weaks))
	trialStats := make([]checker.Stats, len(weaks))
	forEach(opts.workerCount(), len(weaks), func(i int) {
		for _, prog := range b.Progs(weaks[i]) {
			cfg := opts.ExplorerConfig(b.Name)
			cfg.StopAtFirst = true
			res := core.Explore(b.spec(opts), cfg, prog)
			trialExecs[i] += res.Executions
			trialStats[i].Merge(&res.Stats)
			if f := res.FirstFailure(); f != nil {
				hits[i] = f
				break
			}
		}
	})
	for i, weak := range weaks {
		row.Injections++
		row.Executions += trialExecs[i]
		row.Stats.Merge(&trialStats[i])
		hit := hits[i]
		if hit == nil {
			row.Missed = append(row.Missed, describeWeakening(defaults, weak))
			continue
		}
		// Classify by the kind's Figure 8 channel rather than ad-hoc kind
		// tests, so a newly added kind cannot land in the wrong column.
		switch hit.Kind.Channel() {
		case "builtin":
			row.Builtin++
			row.Detected++
		case "admissibility":
			row.Admissibility++
			row.Detected++
		case "assertion":
			row.Assertion++
			row.Detected++
		default:
			// "none": a prune-only kind (e.g. step-bound) leaked out as a
			// failure — a checker accounting bug. Count it as a miss so
			// the detection rate never benefits from it.
			row.Missed = append(row.Missed, fmt.Sprintf("%s (non-detection failure %s)",
				describeWeakening(defaults, weak), hit.Kind))
		}
	}
	return row
}

// RunAllFig7 measures every Figure 7 row, exploring the independent rows
// on opts' worker pool; the returned slice is in Benchmarks() order.
func RunAllFig7(opts Options) []Fig7Row {
	bs := Benchmarks()
	rows := make([]Fig7Row, len(bs))
	forEach(opts.workerCount(), len(bs), func(i int) {
		rows[i] = bs[i].RunFig7(opts)
	})
	return rows
}

// RunAllFig8 measures every Figure 8 row in Benchmarks() order. Rows run
// one at a time; each row's weakening trials use opts' worker pool.
func RunAllFig8(opts Options) []Fig8Row {
	bs := Benchmarks()
	rows := make([]Fig8Row, len(bs))
	for i, b := range bs {
		rows[i] = b.RunFig8(opts)
	}
	return rows
}

func describeWeakening(defaults, weak *memmodel.OrderTable) string {
	for _, s := range defaults.Sites() {
		if weak.Get(s.Name) != s.Default {
			return fmt.Sprintf("%s: %s -> %s", s.Name, s.Default, weak.Get(s.Name))
		}
	}
	return "?"
}

// SpecCacheHitRate returns the spec-cache hit rate of a Stats record as a
// percentage string, or "n/a" when no cached checking happened (caching
// disabled, or no feasible executions).
func SpecCacheHitRate(s *checker.Stats) string {
	total := s.SpecCacheHits + s.SpecCacheMisses
	if total == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%d%%", s.SpecCacheHits*100/total)
}

// FormatFig7 renders the Figure 7 table with the observability extras:
// the prune split folded into one column, rf-branch decision counts, the
// exploration vs spec-checking time split, and the spec-cache hit rate.
func FormatFig7(rows []Fig7Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %12s %10s %8s %8s %10s %9s %9s %6s   %s\n",
		"Benchmark", "# Executions", "# Feasible", "# Pruned", "RF-br", "Time", "Explore", "Spec", "Cache",
		"(paper: exec/feasible/time)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-18s %12d %10d %8d %8d %10s %9s %9s %6s   (%d / %d / %ss)\n",
			r.Name, r.Executions, r.Feasible, r.Pruned, r.Stats.RFBranchPoints,
			r.Elapsed.Round(time.Millisecond),
			r.Stats.ExploreTime.Round(time.Millisecond), r.Stats.SpecTime.Round(time.Millisecond),
			SpecCacheHitRate(&r.Stats),
			r.PaperExecutions, r.PaperFeasible, r.PaperTime)
	}
	return b.String()
}

// FormatFig8 renders the Figure 8 table.
func FormatFig8(rows []Fig8Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %6s %9s %14s %11s %6s   %s\n",
		"Benchmark", "# Inj", "# Builtin", "# Admissibility", "# Assertion", "Rate", "(paper: inj/bi/adm/asr/rate)")
	ti, td := 0, 0
	pi, pd := 0, 0
	for _, r := range rows {
		rate := "n/a"
		if r.Injections > 0 {
			rate = fmt.Sprintf("%d%%", r.RatePercent())
		}
		fmt.Fprintf(&b, "%-18s %6d %9d %14d %11d %6s   (%d/%d/%d/%d/%d%%)\n",
			r.Name, r.Injections, r.Builtin, r.Admissibility, r.Assertion, rate,
			r.PaperInjections, r.PaperBuiltin, r.PaperAdmissibility, r.PaperAssertion, r.PaperRatePercent)
		for _, m := range r.Missed {
			fmt.Fprintf(&b, "%-18s   missed: %s\n", "", m)
		}
		ti += r.Injections
		td += r.Detected
		pi += r.PaperInjections
		pd += r.PaperInjections * r.PaperRatePercent / 100
	}
	fmt.Fprintf(&b, "%-18s %6d  detected %d (%d%%)   paper: %d injections, %d detected (93%%)\n",
		"Total", ti, td, td*100/max(ti, 1), pi, pd)
	return b.String()
}

// BenchSnapshot is the machine-readable record that fig7, fig8, run
// and fuzz print with -json.
type BenchSnapshot struct {
	// Schema versions the blob layout.
	Schema string `json:"schema"`
	// Model names the consistency model the rows were measured under;
	// rows measured under different models are not comparable (the
	// explored spaces differ).
	Model string         `json:"model,omitempty"`
	Fig7  []Fig7Row      `json:"fig7,omitempty"`
	Fig8  []Fig8Row      `json:"fig8,omitempty"`
	Fuzz  []fuzz.Summary `json:"fuzz,omitempty"`
}

// SnapshotSchema identifies the BenchSnapshot layout. v3 added the
// optional fuzz-campaign summaries; v2 added the spec_cache_* counters
// to every Stats record.
const SnapshotSchema = "cdsspec-bench/v3"

// SnapshotJSON renders the measured rows as an indented JSON snapshot
// under the default (c11) model.
func SnapshotJSON(fig7 []Fig7Row, fig8 []Fig8Row) ([]byte, error) {
	return SnapshotJSONFor(model.Default(), fig7, fig8)
}

// SnapshotJSONFor is SnapshotJSON with the measuring model recorded in
// the blob, so rows from non-c11 runs are never mistaken for c11 ones.
func SnapshotJSONFor(id model.ID, fig7 []Fig7Row, fig8 []Fig8Row) ([]byte, error) {
	return json.MarshalIndent(&BenchSnapshot{
		Schema: SnapshotSchema,
		Model:  id.OrDefault().String(),
		Fig7:   fig7,
		Fig8:   fig8,
	}, "", "  ")
}
