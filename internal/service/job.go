// Package service is the long-running verification daemon behind
// `cdsspec serve`: it accepts verification jobs over an HTTP/JSON API,
// runs them on a bounded worker pool over the existing exploration
// engines (work-stealing DFS, fast mode, fuzz triage), persists a
// per-job atomic checkpoint plus an fsynced journal under a state
// directory, and streams progress to watchers. The design goal is
// crash-safety: kill -9 the daemon mid-job, restart it against the same
// state directory, and the job resumes from its last checkpoint with a
// final Result bit-identical to an uninterrupted run (the PR 6 resume
// contract, with the PR 8 model-mismatch refusal).
package service

import (
	"fmt"
	"time"

	"repro/internal/checker"
	"repro/internal/checker/model"
	"repro/internal/harness"
)

// JobKind selects which engine a job runs on.
type JobKind string

const (
	// KindExplore is a spec-checked exhaustive (or budgeted) DFS
	// exploration under the work-stealing engine — the only kind that
	// checkpoints and resumes bit-identically across daemon restarts.
	KindExplore JobKind = "explore"
	// KindFast is a C11Tester-style fast-mode screen: independent
	// plausible executions, built-in checks only. No frontier, so no
	// checkpoint — a crash reruns the job from scratch.
	KindFast JobKind = "fast"
	// KindTriage is a fuzz triage campaign (fast screen → exhaustive
	// confirm → shrink) over generated programs. Not checkpointable
	// either; a crash reruns it (same seed, same batch).
	KindTriage JobKind = "triage"
)

// JobState is one node of the job lifecycle state machine:
//
//	queued ──► running ──► done | failed | canceled | deadline
//	  ▲            │
//	  └─ suspended ┘   (graceful drain or crash; requeued on restart)
//
// done/failed/canceled/deadline are terminal. A suspended job holds a
// checkpoint (explore jobs) or simply its spec (fast/triage) and is
// requeued by the recovery replay when the daemon restarts.
type JobState string

const (
	StateQueued    JobState = "queued"
	StateRunning   JobState = "running"
	StateSuspended JobState = "suspended"
	StateDone      JobState = "done"
	StateFailed    JobState = "failed"
	StateCanceled  JobState = "canceled"
	StateDeadline  JobState = "deadline"
)

// Terminal reports whether the state ends the job's lifecycle.
func (s JobState) Terminal() bool {
	switch s {
	case StateDone, StateFailed, StateCanceled, StateDeadline:
		return true
	}
	return false
}

// JobSpec is a submitted verification job: the benchmark/spec to check
// plus the checker.Config knobs the API exposes. The zero value of every
// optional field means "engine default".
type JobSpec struct {
	// Kind selects the engine (default explore).
	Kind JobKind `json:"kind,omitempty"`
	// Benchmark names the harness benchmark to verify (required).
	Benchmark string `json:"benchmark"`
	// Model is the consistency model (empty = c11). An explore job that
	// resumes a checkpoint explored under another model fails
	// (checker.Config.Validate refuses it). Triage runs only c11, so
	// Validate refuses a triage job that names another model.
	Model string `json:"model,omitempty"`
	// MaxExecutions bounds the exploration / run budget (0 = exhaustive
	// for explore, engine default for fast/triage).
	MaxExecutions int `json:"max_executions,omitempty"`
	// Parallelism is the within-job worker count of the work-stealing
	// engine (checker.Config semantics: 0 or 1 = one worker).
	Parallelism int `json:"parallelism,omitempty"`
	// Deadline is the per-job wall-clock budget. When it expires the job
	// is interrupted and lands in the first-class terminal state
	// "deadline" with whatever partial result it had (0 = no deadline).
	Deadline time.Duration `json:"deadline_ns,omitempty"`
	// CheckpointEvery overrides the daemon's periodic checkpoint
	// interval for explore jobs (0 = the server default).
	CheckpointEvery time.Duration `json:"checkpoint_every_ns,omitempty"`
	// Seed seeds fast-mode runs and triage program generation.
	Seed uint64 `json:"seed,omitempty"`
	// Count is the triage program count (0 = triage default).
	Count int `json:"count,omitempty"`
	// Budget is the triage per-program confirm budget (0 = exhaustive).
	Budget int `json:"budget,omitempty"`
	// FastRuns is the triage per-program fast-mode screen budget
	// (0 = triage default).
	FastRuns int `json:"fast_runs,omitempty"`
	// Shrink asks triage to minimize confirmed hits.
	Shrink bool `json:"shrink,omitempty"`
}

// Validate rejects a spec the daemon could not run, so submission errors
// surface at the API boundary instead of as failed jobs.
func (js *JobSpec) Validate() error {
	switch js.Kind {
	case "", KindExplore, KindFast, KindTriage:
	default:
		return fmt.Errorf("unknown job kind %q (valid: %s, %s, %s)", js.Kind, KindExplore, KindFast, KindTriage)
	}
	if js.Benchmark == "" {
		return fmt.Errorf("job spec names no benchmark")
	}
	if harness.BenchmarkByName(js.Benchmark) == nil {
		return fmt.Errorf("unknown benchmark %q", js.Benchmark)
	}
	if _, err := model.Parse(js.Model); err != nil {
		return err
	}
	if js.KindOrDefault() == KindTriage && js.ModelID() != model.C11 {
		// Triage generates and checks programs under c11 only; a job that
		// named another model would be journaled with a model it never ran.
		return fmt.Errorf("triage jobs run only the %s model, not %q", model.C11, js.Model)
	}
	if js.MaxExecutions < 0 || js.Count < 0 || js.Budget < 0 || js.FastRuns < 0 {
		return fmt.Errorf("job budgets must be >= 0")
	}
	if js.Deadline < 0 || js.CheckpointEvery < 0 {
		return fmt.Errorf("job durations must be >= 0")
	}
	return nil
}

// KindOrDefault resolves the default job kind.
func (js *JobSpec) KindOrDefault() JobKind {
	if js.Kind == "" {
		return KindExplore
	}
	return js.Kind
}

// ModelID resolves the spec's consistency model.
func (js *JobSpec) ModelID() model.ID {
	return model.ID(js.Model).OrDefault()
}

// Summary condenses a finished (or interrupted) job's outcome for the
// journal, the list API, and the metrics counters. Explore/fast jobs
// fill the Result-shaped fields; triage jobs fill the triage ones. The
// full per-kind payload lives in the job's result.json.
type Summary struct {
	Executions   int           `json:"executions"`
	Feasible     int           `json:"feasible,omitempty"`
	Pruned       int           `json:"pruned,omitempty"`
	FailureCount int           `json:"failure_count,omitempty"`
	Exhausted    bool          `json:"exhausted,omitempty"`
	Elapsed      time.Duration `json:"elapsed_ns,omitempty"`
	// Stats carries the checker counters (explore/fast jobs); the
	// metrics endpoint aggregates steals, busy time, and cache hits
	// from it.
	Stats *checker.Stats `json:"stats,omitempty"`
	// Screened/Flagged/Confirmed are the triage funnel.
	Screened  int `json:"screened,omitempty"`
	Flagged   int `json:"flagged,omitempty"`
	Confirmed int `json:"confirmed,omitempty"`
}

// summarize folds a checker Result into the journal summary.
func summarize(res *checker.Result) *Summary {
	if res == nil {
		return nil
	}
	stats := res.Stats
	return &Summary{
		Executions:   res.Executions,
		Feasible:     res.Feasible,
		Pruned:       res.Pruned,
		FailureCount: res.FailureCount,
		Exhausted:    res.Exhausted,
		Elapsed:      res.Elapsed,
		Stats:        &stats,
	}
}

// JobView is the API representation of one job.
type JobView struct {
	ID    string   `json:"id"`
	Spec  JobSpec  `json:"spec"`
	State JobState `json:"state"`
	// Attempts counts run starts, across restarts: an explore job that
	// was suspended and resumed twice reports 3.
	Attempts int `json:"attempts,omitempty"`
	// Resumed marks an explore attempt that continued a checkpoint
	// rather than starting from scratch.
	Resumed bool `json:"resumed,omitempty"`
	// Error describes why a failed job failed.
	Error string `json:"error,omitempty"`
	// Progress is the latest snapshot of a running job.
	Progress *checker.Progress `json:"progress,omitempty"`
	// Summary is the terminal outcome (and the partial outcome of a
	// deadline/canceled job).
	Summary *Summary `json:"summary,omitempty"`
}

// Event is one message on a job's watch stream: a state transition or a
// progress snapshot. Terminal events carry the summary so watchers can
// render the outcome without a second status call.
type Event struct {
	ID       string            `json:"id"`
	State    JobState          `json:"state"`
	Progress *checker.Progress `json:"progress,omitempty"`
	Summary  *Summary          `json:"summary,omitempty"`
	Error    string            `json:"error,omitempty"`
}
