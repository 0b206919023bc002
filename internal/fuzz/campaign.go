package fuzz

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/checker"
	"repro/internal/core"
	"repro/internal/memmodel"
)

// TriageBucket names the campaign triage bucket for a failure kind.
// Every FailureKind has an explicit case: a kind added to the checker
// without a bucket here returns "" and fails the exhaustiveness test
// (TestTriageBucketExhaustive), mirroring how the harness pins Figure 8
// channels — new kinds must not fall through the triage silently.
func TriageBucket(k checker.FailureKind) string {
	switch k {
	case checker.FailDataRace:
		return "builtin/data-race"
	case checker.FailUninitLoad:
		return "builtin/uninitialized-load"
	case checker.FailDeadlock:
		return "builtin/deadlock"
	case checker.FailLivelock:
		return "builtin/livelock"
	case checker.FailTooManySteps:
		// Never surfaces as a failure (step-bound runs are pruned); the
		// bucket exists so the switch is total and a leak is visible.
		return "prune/step-bound"
	case checker.FailAssertion:
		return "spec/assertion"
	case checker.FailAdmissibility:
		return "spec/admissibility"
	case checker.FailAPIMisuse:
		return "harness/api-misuse"
	case checker.FailMixedRace:
		return "builtin/mixed-race"
	}
	return ""
}

// CampaignConfig configures a fuzz campaign over one target.
type CampaignConfig struct {
	// Seed seeds the program generator.
	Seed uint64
	// Count is the number of programs to generate and check (default 20).
	Count int
	// Budget bounds the executions explored per program (0 = exhaustive).
	// Generated lock programs can reach millions of interleavings, so
	// campaigns usually set it; the per-program exploration then stops
	// early without reporting a failure.
	Budget int
	// MaxSteps bounds visible operations per execution. 0 scales with the
	// program: generated programs are bigger than the hand-written tests,
	// so the budget grows with op count instead of using the checker's
	// flat default.
	MaxSteps int
	// Workers bounds the program-level worker pool (0 = GOMAXPROCS).
	// Verdicts are written into index-addressed slots and folded in index
	// order, so campaign results are bit-identical for any worker count.
	Workers int
	// Gen bounds the generated program shapes.
	Gen GenConfig
	// Orders overrides the target's default order table — a weakened
	// clone injects a seeded bug for the campaign to find. nil means the
	// correct defaults.
	Orders *memmodel.OrderTable
	// Progress, when set, receives each program's periodic exploration
	// snapshots (the checker.Progress reuse), labeled with the program's
	// batch index. Programs run concurrently, so it must be safe for
	// concurrent use.
	Progress func(programIndex int, p checker.Progress)
}

func (c CampaignConfig) withDefaults() CampaignConfig {
	if c.Count == 0 {
		c.Count = 20
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// stepBudget scales the per-execution step bound with program size.
func stepBudget(p *Program, override int) int {
	if override > 0 {
		return override
	}
	return 1000 + 300*p.OpCount()
}

// Verdict is the outcome of checking one generated program. All fields
// are deterministic functions of (program, orders, budget) — timings are
// deliberately excluded so campaign results compare bit-identical across
// runs and worker counts.
type Verdict struct {
	Program *Program `json:"program"`
	// Failure is the first failure found, nil when the program passed
	// (or its budget ran out first).
	Failure *checker.Failure `json:"failure,omitempty"`
	// Bucket is the failure's triage bucket ("" when no failure).
	Bucket string `json:"bucket,omitempty"`
	// Fingerprint is the canonical content hash of the failing execution
	// (core.Monitor.Fingerprint); together with the failure kind it is
	// the dedup key.
	Fingerprint uint64 `json:"fingerprint,omitempty"`
	Executions  int    `json:"executions"`
	Feasible    int    `json:"feasible"`
	Exhausted   bool   `json:"exhausted"`
}

// dedupKey groups verdicts that expose the same failure behavior.
func (v *Verdict) dedupKey() string {
	return fmt.Sprintf("%s/%016x", v.Failure.Kind, v.Fingerprint)
}

// Check explores one program (sequentially, StopAtFirst) and returns its
// verdict. ord nil means the target's default orders.
func (t *Target) Check(p *Program, ord *memmodel.OrderTable, cfg CampaignConfig) (*Verdict, error) {
	prog, err := t.Render(p, ord)
	if err != nil {
		return nil, err
	}
	ccfg := checker.Config{
		MaxExecutions: cfg.Budget,
		MaxSteps:      stepBudget(p, cfg.MaxSteps),
		StopAtFirst:   true,
	}
	if cfg.Progress != nil {
		idx := p.Index
		ccfg.Progress = func(pr checker.Progress) { cfg.Progress(idx, pr) }
	}
	// The exploration runs on one worker, which records every execution
	// into one reused monitor. After Explore that monitor still holds the
	// failing execution, because StopAtFirst stops the worker right after
	// it — its canonical fingerprint is the dedup key. Built-in failures
	// abort mid-execution; Fingerprint handles the partial record.
	var mon *core.Monitor
	ccfg.OnRunStart = func(sys *checker.System) { mon = core.FromSys(sys) }
	res := core.Explore(t.Spec(), ccfg, prog)
	v := &Verdict{
		Program:    p,
		Executions: res.Executions,
		Feasible:   res.Feasible,
		Exhausted:  res.Exhausted,
	}
	if f := res.FirstFailure(); f != nil {
		v.Failure = f
		v.Bucket = TriageBucket(f.Kind)
		v.Fingerprint = mon.Fingerprint()
	}
	return v, nil
}

// Summary aggregates one campaign for reports and the bench snapshot.
type Summary struct {
	Benchmark string `json:"benchmark"`
	Seed      uint64 `json:"seed"`
	Programs  int    `json:"programs"`
	// Failing counts failing programs before dedup; Unique after.
	Failing int `json:"failing"`
	Unique  int `json:"unique"`
	Deduped int `json:"deduped"`
	// Buckets counts unique failures per triage bucket.
	Buckets map[string]int `json:"buckets,omitempty"`
	// Executions totals explored executions across all programs.
	Executions int           `json:"executions"`
	Elapsed    time.Duration `json:"elapsed_ns"`
}

// Campaign is the full outcome of one fuzz campaign.
type Campaign struct {
	Target   *Target
	Verdicts []*Verdict // every program, batch order
	Unique   []*Verdict // failing programs after fingerprint dedup, batch order
	Summary  Summary
}

// Run generates cfg.Count programs and checks each on the worker pool.
// The batch is generated up-front on one goroutine and the verdicts are
// folded in batch order, so everything except Summary.Elapsed is
// bit-identical across runs and worker counts.
func Run(t *Target, cfg CampaignConfig) (*Campaign, error) {
	cfg = cfg.withDefaults()
	start := time.Now()
	programs := NewGenerator(t, cfg.Seed, cfg.Gen).Generate(cfg.Count)

	verdicts := make([]*Verdict, len(programs))
	errs := make([]error, len(programs))
	checker.ForEach(cfg.Workers, len(programs), func(i int) {
		verdicts[i], errs[i] = t.Check(programs[i], cfg.Orders, cfg)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	c := &Campaign{
		Target:   t,
		Verdicts: verdicts,
		Summary: Summary{
			Benchmark: t.Name,
			Seed:      cfg.Seed,
			Programs:  len(programs),
			Buckets:   map[string]int{},
		},
	}
	seen := map[string]bool{}
	for _, v := range verdicts {
		c.Summary.Executions += v.Executions
		if v.Failure == nil {
			continue
		}
		c.Summary.Failing++
		key := v.dedupKey()
		if seen[key] {
			c.Summary.Deduped++
			continue
		}
		seen[key] = true
		c.Unique = append(c.Unique, v)
		c.Summary.Unique++
		c.Summary.Buckets[v.Bucket]++
	}
	if len(c.Summary.Buckets) == 0 {
		c.Summary.Buckets = nil
	}
	c.Summary.Elapsed = time.Since(start)
	return c, nil
}

// FormatSummaries renders campaign summaries as a table, with per-bucket
// unique-failure counts on follow-up lines.
func FormatSummaries(sums []Summary) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %6s %8s %7s %8s %11s %10s\n",
		"Benchmark", "progs", "failing", "unique", "deduped", "executions", "time")
	for _, s := range sums {
		fmt.Fprintf(&b, "%-18s %6d %8d %7d %8d %11d %10s\n",
			s.Benchmark, s.Programs, s.Failing, s.Unique, s.Deduped, s.Executions,
			s.Elapsed.Round(time.Millisecond))
		buckets := make([]string, 0, len(s.Buckets))
		for k := range s.Buckets {
			buckets = append(buckets, k)
		}
		sort.Strings(buckets)
		for _, k := range buckets {
			fmt.Fprintf(&b, "%-18s   bucket %s: %d\n", "", k, s.Buckets[k])
		}
	}
	return b.String()
}
