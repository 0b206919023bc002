package checker

import (
	"math"
	"time"
)

// Progress is a periodic snapshot of a running DFS exploration, delivered
// to Config.Progress every Config.ProgressInterval and once more when the
// exploration finishes (Final set). Long benchmarks are otherwise silent
// for minutes; CDSChecker prints per-execution diagnostics for the same
// reason.
//
// A snapshot is a view of the engine's fold list: it sums the completed
// regions a checkpoint taken at the same moment would hold, plus the
// engine-level telemetry no region holds (steals, worker busy time, the
// frontier high-water mark, the rf class count). A resumed run therefore
// counts from the checkpoint's completed work, as its Result does, and
// every Stats counter reaches Progress unaided.
type Progress struct {
	// Executions, Feasible, Pruned and Failures mirror the Result fields
	// for the executions completed so far (across all workers).
	Executions int
	Feasible   int
	Pruned     int
	Failures   int
	// Frontier is the current number of outstanding frontier entries
	// (unexplored decision subtrees).
	Frontier int
	// Stats is the Result's Stats for the work so far: the spec-cache,
	// reduction and scheduler counters included.
	Stats Stats
	// Elapsed is the wall clock since the exploration started, plus, for
	// a resumed run, the checkpoint's elapsed base (as in Result.Elapsed).
	Elapsed time.Duration
	// ExecsPerSec is the average execution rate so far.
	ExecsPerSec float64
	// ETA estimates the time remaining to reach Config.MaxExecutions
	// (zero when the exploration is unbounded or the rate is unknown).
	// DFS runs may finish earlier by exhausting the space.
	ETA time.Duration
	// Final marks the closing snapshot. It is built from the returned
	// Result, so its counts and Stats equal it exactly, and it is always
	// delivered, even for explorations shorter than one interval.
	Final bool
}

// newProgress builds the snapshot of r: its counts and Stats, the
// frontier size, and the rate and ETA toward maxExecs over elapsed.
func newProgress(r *Result, frontier int, elapsed time.Duration, maxExecs int, final bool) Progress {
	p := Progress{
		Executions: r.Executions,
		Feasible:   r.Feasible,
		Pruned:     r.Pruned,
		Failures:   r.FailureCount,
		Frontier:   frontier,
		Stats:      r.Stats,
		Elapsed:    elapsed,
		Final:      final,
	}
	if secs := elapsed.Seconds(); secs > 0 {
		p.ExecsPerSec = float64(p.Executions) / secs
	}
	p.ETA = etaFor(p.Executions, maxExecs, p.ExecsPerSec)
	return p
}

// progress is the periodic snapshot: the fold list's done cells, summed
// under the fold lock, plus the engine gauges.
func (e *wsEngine) progress() Progress {
	r := e.fold.tally()
	e.addGauges(&r.Stats)
	return newProgress(&r, e.fold.pendingCount(), e.elapsed(), e.c.MaxExecutions, false)
}

// etaFor estimates the time remaining to reach maxExecs at the given
// rate, clamped to zero. The clamp matters: on the final snapshot
// Executions can exceed maxExecs (resumed runs start above the bound,
// and in-flight workers land past it), and a snapshot racing the very
// first execution can see a zero or non-finite rate — both previously
// produced negative or NaN ETAs.
func etaFor(executions, maxExecs int, rate float64) time.Duration {
	if maxExecs <= 0 || rate <= 0 || math.IsNaN(rate) || math.IsInf(rate, 0) {
		return 0
	}
	remaining := maxExecs - executions
	if remaining <= 0 {
		return 0
	}
	eta := time.Duration(float64(remaining) / rate * float64(time.Second))
	if eta < 0 {
		return 0
	}
	return eta
}
