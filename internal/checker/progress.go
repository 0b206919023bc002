package checker

import (
	"math"
	"sync/atomic"
	"time"
)

// Progress is a periodic snapshot of a running exploration, delivered to
// Config.Progress every Config.ProgressInterval and once more when the
// exploration finishes (Final set). Long benchmarks are otherwise silent
// for minutes; CDSChecker prints per-execution diagnostics for the same
// reason.
type Progress struct {
	// Executions, Feasible, Pruned and Failures mirror the Result fields
	// for the executions completed so far (across all workers).
	Executions int
	Feasible   int
	Pruned     int
	Failures   int
	// SpecCacheHits mirrors Stats.SpecCacheHits: spec checks answered
	// from the memoization cache so far (zero when caching is off).
	SpecCacheHits int
	// Steals counts frontier tasks taken from another worker's deque so
	// far; Frontier is the current number of outstanding frontier entries
	// (unexplored decision subtrees). Both stay zero outside the
	// work-stealing DFS engine.
	Steals   int
	Frontier int
	// RFEquivPrunes, SymmetryPrunes and SpinloopBounds mirror the
	// execution-equivalence reduction counters in Stats for the work so
	// far, and RFClasses is the live count of distinct execution-graph
	// equivalence classes witnessed (a gauge on the shared registry). All
	// four stay zero when Config.Reduce is unset.
	RFEquivPrunes  int
	SymmetryPrunes int
	SpinloopBounds int
	RFClasses      int
	// Elapsed is the wall clock since the exploration started, plus, for
	// a resumed run, the checkpoint's elapsed base (as in Result.Elapsed).
	Elapsed time.Duration
	// ExecsPerSec is the average execution rate so far.
	ExecsPerSec float64
	// ETA estimates the time remaining to reach Config.MaxExecutions
	// (zero when the exploration is unbounded or the rate is unknown).
	// DFS runs may finish earlier by exhausting the space.
	ETA time.Duration
	// Final marks the closing snapshot: its counts equal the returned
	// Result exactly, and it is always delivered, even for explorations
	// shorter than one interval. A resumed run counts from the
	// checkpoint's completed work, as its Result does.
	Final bool
}

// progressTracker aggregates per-execution counts from all workers (plain
// atomics, so runOne stays cheap) and drives a ticker goroutine that
// invokes the user callback. The callback itself only ever runs on the
// ticker goroutine or, for the final snapshot, on the Explore caller's
// goroutine after the ticker is stopped — so it needs no locking of its
// own.
type progressTracker struct {
	fn       func(Progress)
	maxExecs int
	start    time.Time

	execs      atomic.Int64
	feasible   atomic.Int64
	pruned     atomic.Int64
	fails      atomic.Int64
	cacheHits  atomic.Int64
	rfPrunes   atomic.Int64
	symPrunes  atomic.Int64
	spinBounds atomic.Int64

	// steals/frontier are gauges owned by the work-stealing engine,
	// attached before its workers start (nil otherwise); classes is the
	// rf seen-set's live class counter, attached when Reduce.RF is on.
	steals   *atomic.Int64
	frontier *atomic.Int64
	classes  *atomic.Int64

	stop chan struct{}
	done chan struct{}
}

// attachEngine points the tracker at the engine's live scheduler gauges.
func (t *progressTracker) attachEngine(steals, frontier *atomic.Int64) {
	t.steals = steals
	t.frontier = frontier
}

// attachClasses points the tracker at the rf seen-set's class counter.
func (t *progressTracker) attachClasses(classes *atomic.Int64) {
	t.classes = classes
}

// newProgressTracker starts the tracker. A resumed run passes its
// checkpoint: the counts start from its completed cells and the clock
// from its elapsed base.
func newProgressTracker(fn func(Progress), interval time.Duration, maxExecs int, resumed *Checkpoint) *progressTracker {
	t := &progressTracker{
		fn:       fn,
		maxExecs: maxExecs,
		start:    time.Now(),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	if resumed != nil {
		t.start = t.start.Add(-resumed.Elapsed)
		for _, c := range resumed.Cells {
			if r := c.Result; r != nil {
				t.execs.Add(int64(r.Executions))
				t.feasible.Add(int64(r.Feasible))
				t.pruned.Add(int64(r.Pruned))
				t.fails.Add(int64(r.FailureCount))
				t.cacheHits.Add(int64(r.Stats.SpecCacheHits))
				t.rfPrunes.Add(int64(r.Stats.RFEquivPrunes))
				t.symPrunes.Add(int64(r.Stats.SymmetryPrunes))
				t.spinBounds.Add(int64(r.Stats.SpinloopBounds))
			}
		}
	}
	go t.loop(interval)
	return t
}

func (t *progressTracker) loop(interval time.Duration) {
	defer close(t.done)
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-t.stop:
			return
		case <-tick.C:
			t.fn(t.snapshot(false))
		}
	}
}

// observe folds one completed execution into the tracker. rfPrune marks
// an execution cut by the rf-equivalence reduction; symPrunes/spinBounds
// are the execution's reduction-counter deltas (zero with Reduce unset).
func (t *progressTracker) observe(feasible, pruned bool, failures, cacheHits int, rfPrune bool, symPrunes, spinBounds int) {
	t.execs.Add(1)
	if feasible {
		t.feasible.Add(1)
	}
	if pruned {
		t.pruned.Add(1)
	}
	if failures > 0 {
		t.fails.Add(int64(failures))
	}
	if cacheHits > 0 {
		t.cacheHits.Add(int64(cacheHits))
	}
	if rfPrune {
		t.rfPrunes.Add(1)
	}
	if symPrunes > 0 {
		t.symPrunes.Add(int64(symPrunes))
	}
	if spinBounds > 0 {
		t.spinBounds.Add(int64(spinBounds))
	}
}

func (t *progressTracker) snapshot(final bool) Progress {
	p := Progress{
		Executions:     int(t.execs.Load()),
		Feasible:       int(t.feasible.Load()),
		Pruned:         int(t.pruned.Load()),
		Failures:       int(t.fails.Load()),
		SpecCacheHits:  int(t.cacheHits.Load()),
		RFEquivPrunes:  int(t.rfPrunes.Load()),
		SymmetryPrunes: int(t.symPrunes.Load()),
		SpinloopBounds: int(t.spinBounds.Load()),
		Elapsed:        time.Since(t.start),
		Final:          final,
	}
	if t.steals != nil {
		p.Steals = int(t.steals.Load())
	}
	if t.frontier != nil {
		p.Frontier = int(t.frontier.Load())
	}
	if t.classes != nil {
		p.RFClasses = int(t.classes.Load())
	}
	if secs := p.Elapsed.Seconds(); secs > 0 {
		p.ExecsPerSec = float64(p.Executions) / secs
	}
	p.ETA = etaFor(p.Executions, t.maxExecs, p.ExecsPerSec)
	return p
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

// close stops the ticker goroutine and delivers the final snapshot from
// the caller's goroutine, after every worker has finished — so the final
// counts match the merged Result exactly.
func (t *progressTracker) close() {
	close(t.stop)
	<-t.done
	t.fn(t.snapshot(true))
}
