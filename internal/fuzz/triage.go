package fuzz

import (
	"runtime"
	"time"

	"repro/internal/checker"
	"repro/internal/memmodel"
)

// This file implements the triage tier of a fuzz campaign: fast mode
// (checker.Config.FastMode) screens a large batch of generated programs
// at thousands of runs per second, exhaustive mode re-checks only the
// programs the screen flagged (confirming the hit and attaching the
// CDSSpec verdict fast mode cannot produce), and the shrinker minimizes
// the confirmed reproducers. The screen is sampling-based, so a flagged
// program that exhaustive mode cannot confirm within its budget is
// reported as unconfirmed rather than dropped — fast-mode hits are real
// executions, so an unconfirmed hit usually means the confirm budget was
// too small, not a false positive.

// TriageConfig configures a screen-confirm-shrink triage run.
type TriageConfig struct {
	// Seed seeds the program generator and the fast-mode screens.
	Seed uint64
	// Count is the number of programs to generate and screen (default 100).
	Count int
	// FastRuns is the fast-mode run budget per program (default 200).
	FastRuns int
	// ConfirmBudget bounds the exhaustive executions spent confirming one
	// flagged program (0 = exhaustive).
	ConfirmBudget int
	// MaxSteps bounds visible operations per execution (0 scales with the
	// program, as in CampaignConfig).
	MaxSteps int
	// Workers bounds the program-level worker pool (0 = GOMAXPROCS).
	Workers int
	// Gen bounds the generated program shapes. The screen is built for
	// production-sized programs, so callers typically raise MaxThreads /
	// MaxOpsPerThread well past the campaign defaults.
	Gen GenConfig
	// Orders overrides the target's default order table (seeded bugs).
	Orders *memmodel.OrderTable
	// Shrink minimizes each confirmed hit to a local minimum.
	Shrink bool
	// Interrupt, when non-nil, stops the triage early once the channel
	// closes: in-flight fast-mode screens stop between runs (the checker
	// honors Interrupt in every engine) and the confirm/shrink tier is
	// not entered. The partial result is still returned, but the
	// bit-identical-across-runs guarantee only holds for uninterrupted
	// triages. The verification service wires job cancellation and
	// deadlines to it.
	Interrupt <-chan struct{}
}

// interrupted reports whether the triage's interrupt channel has fired.
func (c TriageConfig) interrupted() bool {
	select {
	case <-c.Interrupt:
		return true
	default:
		return false
	}
}

func (c TriageConfig) withDefaults() TriageConfig {
	if c.Count == 0 {
		c.Count = 100
	}
	if c.FastRuns == 0 {
		c.FastRuns = 200
	}
	return c
}

// TriageHit is one program the fast-mode screen flagged.
type TriageHit struct {
	Program *Program `json:"program"`
	// Screen is the failure fast mode observed.
	Screen *checker.Failure `json:"screen"`
	// Verdict is the exhaustive confirmation (nil Failure when the
	// confirm budget ran out before reproducing it).
	Verdict *Verdict `json:"verdict,omitempty"`
	// Minimal is the shrunk reproducer (TriageConfig.Shrink, confirmed
	// hits only).
	Minimal *ShrinkResult `json:"minimal,omitempty"`
}

// TriageResult aggregates one triage run. Everything except Elapsed is a
// deterministic function of (target, config) — programs are generated
// up-front, screened with per-program derived seeds, and folded in batch
// order — so results are bit-identical across runs and worker counts.
type TriageResult struct {
	Benchmark string `json:"benchmark"`
	Seed      uint64 `json:"seed"`
	// Screened counts programs screened; Flagged those fast mode failed.
	Screened int `json:"screened"`
	Flagged  int `json:"flagged"`
	// Confirmed and Unconfirmed partition the flagged programs by whether
	// exhaustive mode reproduced a failure within ConfirmBudget.
	Confirmed   []*TriageHit `json:"confirmed,omitempty"`
	Unconfirmed []*TriageHit `json:"unconfirmed,omitempty"`
	// Buckets counts confirmed hits per triage bucket (of the confirmed
	// failure kind, which exhaustive mode may classify more precisely
	// than the screen).
	Buckets map[string]int `json:"buckets,omitempty"`
	// FastExecutions and ConfirmExecutions split the exploration spend
	// between the two tiers — the screen typically runs orders of
	// magnitude more executions per second than the confirm tier.
	FastExecutions    int           `json:"fast_executions"`
	ConfirmExecutions int           `json:"confirm_executions"`
	Elapsed           time.Duration `json:"elapsed_ns"`
}

// screenOne runs the fast-mode screen on one program and returns the
// failure it observed (nil when the program survived the run budget).
func screenOne(t *Target, p *Program, cfg TriageConfig) (*checker.Failure, int, error) {
	prog, err := t.Render(p, cfg.Orders)
	if err != nil {
		return nil, 0, err
	}
	// Bare checker.Explore: fast mode rejects the CDSSpec layer (no
	// action trace for the monitor to reconstruct), so the screen sees
	// only the built-in checks — races, uninitialized loads, deadlocks,
	// livelocks. That is exactly the §6.4.1 seeded-bug class the screen
	// exists to catch cheaply; spec-level failures surface in the
	// confirm tier.
	res := checker.Explore(checker.Config{
		FastMode:      true,
		Seed:          int64(cfg.Seed) + int64(p.Index),
		MaxExecutions: cfg.FastRuns,
		MaxSteps:      stepBudget(p, cfg.MaxSteps),
		StopAtFirst:   true,
		Interrupt:     cfg.Interrupt,
	}, prog)
	return res.FirstFailure(), res.Executions, nil
}

// Triage generates cfg.Count programs, screens each in fast mode,
// confirms the flagged ones exhaustively, and (optionally) shrinks the
// confirmed hits.
func Triage(t *Target, cfg TriageConfig) (*TriageResult, error) {
	cfg = cfg.withDefaults()
	start := time.Now()
	programs := NewGenerator(t, cfg.Seed, cfg.Gen).Generate(cfg.Count)

	type slot struct {
		screen *checker.Failure
		execs  int
		err    error
	}
	screens := make([]slot, len(programs))
	workers := cfg.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	checker.ForEach(workers, len(programs), func(i int) {
		screens[i].screen, screens[i].execs, screens[i].err = screenOne(t, programs[i], cfg)
	})

	res := &TriageResult{
		Benchmark: t.Name,
		Seed:      cfg.Seed,
		Screened:  len(programs),
		Buckets:   map[string]int{},
	}
	var flagged []*TriageHit
	for i, s := range screens {
		if s.err != nil {
			return nil, s.err
		}
		res.FastExecutions += s.execs
		if s.screen != nil {
			res.Flagged++
			flagged = append(flagged, &TriageHit{Program: programs[i], Screen: s.screen})
		}
	}

	// An interrupted triage stops here: the screen results above are
	// real (each flagged hit is a genuine fast-mode failure), but
	// spending the confirm/shrink budget against a closing deadline
	// would only be thrown away.
	if cfg.interrupted() {
		res.Elapsed = time.Since(start)
		res.Unconfirmed = flagged
		return res, nil
	}

	// Confirm tier: exhaustive (bounded) re-check of the flagged
	// programs only, through the full CDSSpec pipeline.
	ccfg := CampaignConfig{
		Budget:   cfg.ConfirmBudget,
		MaxSteps: cfg.MaxSteps,
		Workers:  1, // per-program exploration is sequential in Check
		Orders:   cfg.Orders,
	}
	errs := make([]error, len(flagged))
	checker.ForEach(workers, len(flagged), func(i int) {
		h := flagged[i]
		h.Verdict, errs[i] = t.Check(h.Program, cfg.Orders, ccfg)
		if errs[i] == nil && cfg.Shrink && h.Verdict.Failure != nil {
			h.Minimal, errs[i] = Shrink(t, h.Program, cfg.Orders, ccfg)
		}
	})
	for i, h := range flagged {
		if errs[i] != nil {
			return nil, errs[i]
		}
		res.ConfirmExecutions += h.Verdict.Executions
		if h.Minimal != nil {
			res.ConfirmExecutions += h.Minimal.Verdict.Executions
		}
		if h.Verdict.Failure != nil {
			res.Confirmed = append(res.Confirmed, h)
			res.Buckets[TriageBucket(h.Verdict.Failure.Kind)]++
		} else {
			res.Unconfirmed = append(res.Unconfirmed, h)
		}
	}
	res.Elapsed = time.Since(start)
	return res, nil
}
