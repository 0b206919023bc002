package checker

import (
	"repro/internal/memmodel"
)

// execPool is where every execution gets its per-execution state — the
// System shell, thread structs, locations and their handles, actions,
// and clock snapshots. It recycles them across one worker's executions,
// so replaying millions of executions allocates (amortized) nothing per
// execution instead of rebuilding everything from scratch.
//
// A pool is single-threaded: it belongs to exactly one engine worker
// (wsEngine.worker) or one fastBlock, which runs one execution at a time
// through it. It is not per shard: several workers may explore one
// shard, each through its own pool, while they share the shard's Scratch
// value. Recycling is invisible to results, because every recycled
// object is fully reset or fully overwritten before reuse.
//
// The load-bearing invariant is *lifetime*: pointers into pooled state —
// *memmodel.Action, Action.Clock, storeRec.sync, *Atomic and *Plain
// handles — are valid only until the worker's next execution starts.
// Everything the checker retains across executions already obeys this
// (Failure renders its trace to a string at creation time; Result holds
// no actions), and the spec layer above keeps only derived data
// (fingerprints, counters) in its cross-execution caches. System.Aux is
// the one slot take leaves alone: the spec layer keeps its monitor there
// and resets it itself.
//
// The test-only Config.disablePooling switch is a setting of this path,
// not a second one: take then closes the pool and drops everything it
// holds before each execution, so every execution starts from fresh
// state with a nil Aux — the reference the tests compare recycling
// against.
type execPool struct {
	sys *System

	// threads and locs are supersets of any single execution's threads
	// and locations; newThread/newLocation take the next entry and reset
	// it instead of allocating. The per-execution System slices alias
	// prefixes of these.
	threads []*Thread
	locs    []*location

	// acts and clks are arenas of recycled actions and clock snapshots;
	// actIdx/clkIdx are the next free slots, rewound on reset.
	acts   []*memmodel.Action
	actIdx int
	clks   []*memmodel.ClockVector
	clkIdx int
}

// take returns a System reset for the next execution. The first call
// builds the shell; later calls rewind it, except Aux, which keeps the
// value the previous execution's OnRunStart hook left there. Under
// disablePooling every call is a first call.
func (p *execPool) take(cfg *Config, ch chooser, scratch any) *System {
	if cfg.disablePooling {
		p.close()
		*p = execPool{}
	}
	if p.sys == nil {
		p.sys = &System{schedDone: make(chan struct{})}
	}
	s := p.sys
	if cfg.FastMode {
		// Return the previous run's live store-buffer actions and clocks
		// to the free lists before the location slices are truncated —
		// this (plus eviction during the run) is what keeps fast-mode
		// allocation amortized-zero per run. Must happen before s.locs
		// and s.threads are rewound below.
		s.sweepFast()
	}
	// Full overwrite of the shell except the pooled containers.
	s.cfg = cfg
	s.chooser = ch
	s.threads = s.threads[:0]
	s.locs = s.locs[:0]
	s.actions = s.actions[:0]
	s.scCount = 0
	s.storeEpoch = 0
	s.stepCount = 0
	s.aborted = false
	s.draining = false
	s.pruned = false
	s.pruneReason = pruneNone
	s.failure = nil
	s.mutexCount = 0
	s.mutexes = s.mutexes[:0]
	s.symClasses = s.symClasses[:0]
	s.fpSC = fpPair{}
	s.fpObjs = fpKey{}
	s.fpDirty = s.fpDirty[:0]
	s.redSpinBounds = 0
	s.redSymPrunes = 0
	s.actionCount = 0
	s.lastActID = 0
	s.evictions = 0
	s.specReport = SpecReport{}
	s.sleep.clear()
	s.Scratch = scratch
	s.pool = p
	p.actIdx = 0
	p.clkIdx = 0
	return s
}

// getThread returns the id-th thread struct, recycled and reset to run
// fn with a clock copied from src. A recycled thread keeps its goroutine,
// idle on resume since the previous execution's reap; a goroutine is
// started only for an id the pool has never run, and lives until close.
func (p *execPool) getThread(s *System, id int, name string, fn func(*Thread), src *memmodel.ClockVector) *Thread {
	if id < len(p.threads) {
		t := p.threads[id]
		t.reset(s, name, fn, src)
		return t
	}
	t := newThreadStruct(s, id, name, fn, cloneOrNew(src))
	p.threads = append(p.threads, t)
	return t
}

// close stops the pool's thread goroutines, all idle on resume between
// executions: it closes each resume channel and waits for every
// goroutine's exit ack on schedDone. This is the only place a thread
// goroutine stops. The pool's owner calls it once, between executions,
// when it is done with the pool; take calls it before each execution
// under disablePooling.
func (p *execPool) close() {
	for _, t := range p.threads {
		close(t.resume)
	}
	for range p.threads {
		<-p.sys.schedDone
	}
}

// getLocation returns the id-th location struct, recycled and reset.
func (p *execPool) getLocation(id int) *location {
	if id < len(p.locs) {
		l := p.locs[id]
		l.reset()
		return l
	}
	l := &location{maxLoadRF: -1}
	p.locs = append(p.locs, l)
	return l
}

// getAction returns a recycled Action; the caller overwrites every field.
func (p *execPool) getAction() *memmodel.Action {
	if p.actIdx < len(p.acts) {
		a := p.acts[p.actIdx]
		p.actIdx++
		return a
	}
	a := &memmodel.Action{}
	p.acts = append(p.acts, a)
	p.actIdx++
	return a
}

// getClock returns a recycled clock holding a copy of src (empty when
// src is nil).
func (p *execPool) getClock(src *memmodel.ClockVector) *memmodel.ClockVector {
	var cv *memmodel.ClockVector
	if p.clkIdx < len(p.clks) {
		cv = p.clks[p.clkIdx]
	} else {
		cv = memmodel.NewClockVector()
		p.clks = append(p.clks, cv)
	}
	p.clkIdx++
	if src == nil {
		cv.Reset()
	} else {
		cv.CopyFrom(src)
	}
	return cv
}

// cloneOrNew deep-copies src, or returns a fresh clock when src is nil.
func cloneOrNew(src *memmodel.ClockVector) *memmodel.ClockVector {
	if src == nil {
		return memmodel.NewClockVector()
	}
	return src.Clone()
}
