package checker

import (
	"fmt"
	"strings"

	"repro/internal/memmodel"
)

// chooser supplies nondeterministic decisions to a running execution.
// The explorer implements it with a replayable decision stack.
type chooser interface {
	// choose picks one of n alternatives (n >= 1) for value
	// nondeterminism ('r' reads-from, 'c' CAS outcome).
	choose(n int, kind byte) int
	// pickThread picks the next thread to run among the enabled ones.
	// A nil result prunes the execution as redundant (every enabled
	// thread is asleep under the sleep-set reduction).
	pickThread(s *System, enabled []*Thread) *Thread
	// pinnedFloor returns the recorded visibility record for the next
	// value-nondeterminism site while the chooser is re-driving a frozen
	// decision prefix: replay is deterministic, so the site reaches the
	// exact state it had when the record was taken and may skip the
	// store/load scans entirely. ok is false when the site must compute
	// fresh (and then report the result via noteFloor).
	pinnedFloor() (*floorRec, bool)
	// noteFloor records a freshly computed visibility record at the
	// current value-site position and returns a pointer the caller may
	// update with resolved-choice bookkeeping (see doCAS).
	noteFloor(rec floorRec) *floorRec
	// freshDecision reports whether the next decision would open a fresh
	// node, past any replayed prefix. The reduction layer (reduce.go)
	// checks and counts only at fresh nodes: a replayed branch point was
	// registered by its own first visit and must not re-check (it would
	// prune itself), and counting once per fresh visit keeps totals
	// identical at every worker count.
	freshDecision() bool
}

// floorRec is the visibility computation of one value-nondeterminism
// site (atomic load 'r', CAS 'c', RMW 'm'), pinned by the dfsChooser so
// frozen-prefix replay can reuse it. Everything in it is a function of
// the execution state at the site — never of the choice taken there —
// except the resolved* pair, which memoizes the store index the last
// taken choice mapped to (kind 'c' only; resolvedFor is -1 until set).
type floorRec struct {
	kind        byte
	floor       int
	published   bool
	n           int
	canSucceed  bool
	resolvedFor int
	resolvedIdx int
}

// System is the state of one simulated execution: threads, locations,
// the action trace, and the seq_cst bookkeeping. Every execution takes
// its System from its worker's execPool.
type System struct {
	cfg     *Config
	chooser chooser
	// pool supplies the execution's threads, locations, actions and
	// clocks, recycled across the executions of one worker (pool.go).
	pool *execPool

	threads []*Thread
	locs    []*location
	actions []*memmodel.Action

	// scCount is the number of seq_cst actions so far (the next SC
	// index to hand out).
	scCount int
	// storeEpoch counts state changes that can wake yielded spinners.
	storeEpoch uint64
	stepCount  int

	aborted     bool
	pruned      bool
	pruneReason pruneReason
	failure     *Failure
	mutexCount  int

	// Reduction state (reduce.go): the registry of mutexes created this
	// execution (canonical identity for fingerprints and sleep
	// signatures), the thread-symmetry classes, the incremental seq_cst
	// order stream, the running sum of the location and mutex entries
	// with the list of those touched since it was last brought up to
	// date, the sleep-signature scratch buffer, and the per-run
	// reduction counters runOne folds into Stats (counted at fresh
	// decisions only, so any worker count agrees).
	mutexes       []*Mutex
	symClasses    []symClass
	fpSC          fpPair
	fpObjs        fpKey
	fpDirty       []*fpObj
	fpSleepBuf    []uint64
	redSpinBounds int
	redSymPrunes  int

	// schedDone is how the baton-passing scheduler returns control to
	// runExecution: scheduling decisions run inline in whichever thread
	// goroutine holds the baton (see Thread.park), and the holder whose
	// decision finds the execution over signals here exactly once. reap
	// receives each poisoned thread's ack here, and execPool.close each
	// goroutine's exit.
	schedDone chan struct{}
	// draining tells a thread that reap poisoned it: unwind without a
	// handoff (park) and ack on schedDone.
	draining bool

	// enabledBuf backs enabledThreads, reused across scheduling steps.
	enabledBuf []*Thread

	// Fast-mode state (Config.FastMode). Fast mode retains no action
	// trace: only actions alive in some store buffer are kept, recycled
	// through freeActs/freeClks when evicted, so a run's memory is O(live
	// state) instead of O(operations). scratchAct backs every non-retained
	// record() so loads/fences/locks allocate nothing per step.
	freeActs   []*memmodel.Action
	freeClks   []*memmodel.ClockVector
	scratchAct memmodel.Action
	// actionCount numbers actions in fast mode (the trace that would have
	// been); lastActID is the most recent ID for failure reports.
	actionCount int
	lastActID   int
	// evictions counts store-buffer evictions (Stats.StoreBufferEvictions).
	evictions int

	// Spec-checking statistics reported by the core layer through
	// ReportSpecStats; runOne folds them into Result.Stats.
	specReport SpecReport

	// sleep is the sleep set of the current exploration subtree.
	sleep sleepSet

	// Aux carries per-execution state for higher layers (the CDSSpec
	// monitor installs itself here from the OnRunStart hook). A System
	// keeps Aux from one of its worker's executions to the next, so the
	// hook can reset and reuse what it finds there; only one execution
	// at a time sees a given Aux value. Under the tests' disablePooling
	// reference every execution gets a new System, with Aux nil.
	Aux any
	// Scratch carries per-shard state created by Config.NewScratch (the
	// CDSSpec layer keeps its spec-check memoization cache here): every
	// execution of one exploration shard sees the same value. Several
	// workers may explore one shard concurrently, so the value must be
	// safe for concurrent use (see Config.NewScratch).
	Scratch any
}

// Actions returns the action trace of the execution so far.
func (s *System) Actions() []*memmodel.Action { return s.actions }

// Failure returns the failure that aborted the execution, if any.
func (s *System) Failure() *Failure { return s.failure }

// SpecReport carries the per-execution checking statistics the
// specification layer (which sits above this package and cannot be
// imported from it) reports from the OnExecution hook: sequential
// histories enumerated, whether the enumeration hit the history cap,
// admissibility rule pairs evaluated, justifying-subhistory searches
// run, and the spec-check memoization outcome (at most one of CacheHits/
// CacheMisses is set per check; CacheEntries counts insertions).
type SpecReport struct {
	Histories           int
	HistoriesCapped     bool
	AdmissibilityChecks int
	JustifySearches     int
	CacheHits           int
	CacheMisses         int
	CacheEntries        int
}

// ReportSpecStats accumulates one SpecReport into the execution; runOne
// folds the total into Result.Stats.
func (s *System) ReportSpecStats(r SpecReport) {
	s.specReport.Histories += r.Histories
	s.specReport.HistoriesCapped = s.specReport.HistoriesCapped || r.HistoriesCapped
	s.specReport.AdmissibilityChecks += r.AdmissibilityChecks
	s.specReport.JustifySearches += r.JustifySearches
	s.specReport.CacheHits += r.CacheHits
	s.specReport.CacheMisses += r.CacheMisses
	s.specReport.CacheEntries += r.CacheEntries
}

// pruneReason records why an execution was abandoned without a report,
// feeding the Stats.Pruned* split.
type pruneReason uint8

const (
	pruneNone      pruneReason = iota
	pruneSleepSet              // every enabled thread asleep: redundant interleaving
	pruneFairness              // spinner ignored a newer store: unfair execution
	pruneStepBound             // Config.MaxSteps exceeded
	pruneRFEquiv               // prefix re-derives a witnessed equivalence class
)

// failf records a failure and abandons the current execution by
// unwinding the calling simulated thread.
func (s *System) failf(kind FailureKind, format string, args ...any) {
	if s.failure == nil {
		s.failure = &Failure{
			Kind:     kind,
			Msg:      fmt.Sprintf(format, args...),
			ActionID: s.lastActionID(),
			Trace:    s.TraceString(traceLimit),
		}
	}
	s.aborted = true
	panic(abortRun{})
}

// prune abandons the current execution without reporting a bug.
func (s *System) prune() {
	s.pruned = true
	s.aborted = true
	panic(abortRun{})
}

// lastActionID returns the trace ID of the most recent action, or 0 when
// the trace is empty (action 0 is always the root thread's thread-start,
// never itself a failure site, so 0 doubles as "unknown").
func (s *System) lastActionID() int {
	if s.cfg != nil && s.cfg.FastMode {
		return s.lastActID
	}
	if len(s.actions) == 0 {
		return 0
	}
	return s.actions[len(s.actions)-1].ID
}

// TraceString renders up to limit trailing actions of the trace.
func (s *System) TraceString(limit int) string {
	if s.cfg != nil && s.cfg.FastMode {
		return "(fast mode: action trace not retained)\n"
	}
	acts := s.actions
	var b strings.Builder
	start := 0
	if limit > 0 && len(acts) > limit {
		start = len(acts) - limit
		fmt.Fprintf(&b, "... (%d earlier actions)\n", start)
	}
	for _, a := range acts[start:] {
		b.WriteString(a.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// newThread registers a thread running fn whose clock starts as a copy
// of src (empty when src is nil; Spawn passes the parent's clock).
func (s *System) newThread(name string, fn func(*Thread), src *memmodel.ClockVector) *Thread {
	if len(s.threads) >= maxThreads {
		s.failf(FailAPIMisuse, "too many threads (max %d)", maxThreads)
	}
	t := s.pool.getThread(s, len(s.threads), name, fn, src)
	// The child starts parked at its start point; its goroutine waits on
	// resume until a scheduling decision picks it, so no startup
	// handshake is needed.
	t.state = tsParked
	s.threads = append(s.threads, t)
	return t
}

// newAtomic and newPlain return the handle embedded in the new location,
// so a pooled location hands out its handle without allocating.
func (s *System) newAtomic(name string) *Atomic {
	l := s.newLocation(name, true)
	l.atomicH.loc = l
	return &l.atomicH
}

func (s *System) newPlain(name string) *Plain {
	l := s.newLocation(name, false)
	l.plainH.loc = l
	return &l.plainH
}

// newLocation registers a location. Creation is ordered just before the
// creating thread's next action, so a location is published to exactly
// the threads that synchronized with anything the creator did afterwards.
func (s *System) newLocation(name string, atomic bool) *location {
	tid, tseq := 0, uint32(0)
	var canonA uint64
	var canonSeq uint32
	if len(s.threads) > 0 {
		if t := s.creatingThread(); t != nil {
			tid, tseq = t.id, t.tseq+1
			// An allocation is a side effect: a loop iteration that
			// allocates is never a pure spin iteration.
			t.spinClear()
			if s.cfg.rfSeen != nil {
				// Canonical identity: (creator's canonical id, per-creator
				// allocation index). Unlike l.id — whose assignment order
				// leaks the interleaving of allocations on different
				// threads — this pair is a function of the creating
				// thread's own history.
				t.allocSeq++
				canonA, canonSeq = s.canonOf(t.id), t.allocSeq
			}
		}
	}
	l := s.pool.getLocation(len(s.locs))
	l.id = len(s.locs)
	l.name = name
	l.atomic = atomic
	l.creatorTid = tid
	l.creatorTSeq = tseq
	l.fpObj = fpObj{tag: fpTagLoc, canonA: canonA, canonSeq: canonSeq}
	if s.cfg.rfSeen != nil {
		s.fpTouch(&l.fpObj)
	}
	s.locs = append(s.locs, l)
	return l
}

// creatingThread returns the thread currently holding the baton.
func (s *System) creatingThread() *Thread {
	for _, t := range s.threads {
		if t.state == tsRunning {
			return t
		}
	}
	return nil
}

// checkLifetime enforces that the location's creation happened-before the
// access (the other half of CDSChecker's uninitialized-memory checking).
func (s *System) checkLifetime(t *Thread, loc *location, what string) {
	if s.cfg.DisableLifetimeCheck {
		return
	}
	if t.id == loc.creatorTid || t.clock.Contains(loc.creatorTid, loc.creatorTSeq) {
		return
	}
	t.tseq++
	t.clock.Set(t.id, t.tseq)
	s.record(t, memmodel.KindAtomicLoad, memmodel.Relaxed, 0, loc, 0)
	s.failf(FailUninitLoad, "%s of %s: the location's creation does not happen-before the access (unpublished memory)", what, loc.name)
}

// record appends an action to the trace and snapshots the thread's clock.
// The caller must already have bumped t.tseq and applied any clock merges
// the action performs. ord is plain; site is the site it came from.
func (s *System) record(t *Thread, kind memmodel.Kind, ord memmodel.MemOrder, site memmodel.SiteID, loc *location, v memmodel.Value) *memmodel.Action {
	if s.cfg.rfSeen != nil && t.canon == 0 {
		// First action of this thread: assign its canonical id (symmetry-
		// class members draw slots in first-action order).
		s.assignCanon(t)
	}
	if s.cfg.FastMode {
		return s.recordFast(t, kind, ord, site, loc, v)
	}
	act := s.pool.getAction()
	fillAction(act, len(s.actions), t, kind, ord, site, loc, v)
	act.Clock = s.snap(t.clock)
	s.actions = append(s.actions, act)
	t.lastAction = act
	return act
}

// fillAction writes every field of a recycled action but Clock, one by
// one: pooled actions carry an earlier action's values in every field,
// and assigning a composite literal would build it on the stack and copy
// all of it.
func fillAction(act *memmodel.Action, id int, t *Thread, kind memmodel.Kind, ord memmodel.MemOrder, site memmodel.SiteID, loc *location, v memmodel.Value) {
	act.ID = id
	act.Thread = t.id
	act.TSeq = t.tseq
	act.Kind = kind
	act.Site = site
	act.Order = ord
	if loc != nil {
		act.LocID = loc.id
		act.LocName = loc.name
	} else {
		act.LocID = -1
		act.LocName = ""
	}
	act.Value = v
	act.RF = nil
	act.MOIndex = 0
	act.SCIndex = -1
}

// recordFast is record() without trace retention: only actions that end
// up in a store buffer (stores, RMWs) get a real allocation — from the
// free list the evictor feeds — and everything else reuses one scratch
// action. No per-action clock snapshot is taken: fast-mode race checks
// use the per-location seq vectors, not action clocks.
func (s *System) recordFast(t *Thread, kind memmodel.Kind, ord memmodel.MemOrder, site memmodel.SiteID, loc *location, v memmodel.Value) *memmodel.Action {
	var act *memmodel.Action
	switch kind {
	case memmodel.KindAtomicStore, memmodel.KindAtomicRMW, memmodel.KindPlainStore:
		act = s.takeAction()
	default:
		act = &s.scratchAct
	}
	fillAction(act, s.actionCount, t, kind, ord, site, loc, v)
	act.Clock = nil
	s.lastActID = s.actionCount
	s.actionCount++
	t.lastAction = act
	return act
}

// takeAction pops a recycled action (fast mode only). The free list is
// deliberately separate from the pool's action arena: arena slots are
// rewound wholesale between executions, which would alias actions still
// alive in store buffers.
func (s *System) takeAction() *memmodel.Action {
	if n := len(s.freeActs); n > 0 {
		act := s.freeActs[n-1]
		s.freeActs = s.freeActs[:n-1]
		return act
	}
	return &memmodel.Action{}
}

func (s *System) freeAction(act *memmodel.Action) {
	act.RF = nil
	act.Clock = nil
	s.freeActs = append(s.freeActs, act)
}

// takeClock pops a recycled clock (fast mode only); the caller overwrites
// its contents via CopyFrom/Reset.
func (s *System) takeClock() *memmodel.ClockVector {
	if n := len(s.freeClks); n > 0 {
		cv := s.freeClks[n-1]
		s.freeClks = s.freeClks[:n-1]
		return cv
	}
	return memmodel.NewClockVector()
}

func (s *System) freeClock(cv *memmodel.ClockVector) {
	s.freeClks = append(s.freeClks, cv)
}

// sweepFast returns every action and clock still alive in a store buffer
// to the free lists — called between fast-mode runs so the next
// run starts with warm free lists instead of allocating.
func (s *System) sweepFast() {
	for _, loc := range s.locs {
		for i := range loc.stores {
			st := &loc.stores[i]
			if st.act != nil {
				s.freeAction(st.act)
			}
			if st.sync != nil {
				s.freeClock(st.sync)
			}
			st.act, st.sync = nil, nil
		}
	}
	for _, t := range s.threads {
		if t.relFence != nil {
			s.freeClock(t.relFence)
			t.relFence = nil
		}
	}
}

// snap captures the current value of cv for retention in per-execution
// state (action clocks, release clocks, mutex clocks): a copy into a
// clock from the pool's arena, which the next execution rewinds.
func (s *System) snap(cv *memmodel.ClockVector) *memmodel.ClockVector {
	if s.cfg.FastMode {
		// A copy from the free list, never the pool arena: fast-mode
		// clocks are recycled individually when their store is evicted,
		// which is unsound for arena-rewound storage.
		c := s.takeClock()
		c.CopyFrom(cv)
		return c
	}
	return s.pool.getClock(cv)
}

// blank returns an empty clock for per-execution state.
func (s *System) blank() *memmodel.ClockVector {
	if s.cfg.FastMode {
		c := s.takeClock()
		c.Reset()
		return c
	}
	return s.pool.getClock(nil)
}

// bumpStep advances the per-run step counter and prunes runaway runs.
// A run over the step bound is pruned, never reported: it must count
// exactly once, as Pruned (with Stats.PrunedStepBound), and never leak a
// FailTooManySteps into FailureCount or the Figure 8 detection channels.
// (An earlier version also populated s.failure here, relying on runOne
// checking s.pruned first to keep the failure invisible — a fragile
// ordering dependence this accounting no longer has.)
func (s *System) bumpStep() {
	s.stepCount++
	if s.cfg.MaxSteps > 0 && s.stepCount > s.cfg.MaxSteps {
		s.pruneReason = pruneStepBound
		s.prune()
	}
}

// visibleFloor computes the lowest modification-order index of loc that a
// load by thread t with order ord may read, applying:
//
//   - write-read coherence: a store that happens-before the load hides all
//     mo-earlier stores;
//   - read-read coherence: a load that happens-before this one pins the
//     floor at the store it read;
//   - the seq_cst rules: the load may not read mo-before the floor implied
//     by SC stores and SC fences that precede its effective SC position.
//
// The result is memoized per (thread, location) under the exact key
// (t.clockEpoch, s.storeEpoch, scIdx); see the invalidation argument on
// each epoch. Runs of loads with no intervening synchronization — the
// common case in spin loops and traversals — hit the cache and skip the
// scans entirely.
func (s *System) visibleFloor(t *Thread, loc *location, ord memmodel.MemOrder) (floor int, published bool) {
	scIdx := s.effectiveSCIdx(t, ord)
	if s.cfg.disableFloorCache {
		return s.visibleFloorScan(t, loc, scIdx)
	}
	e := loc.cacheFor(t.id)
	// Exact-match validity: a new store anywhere bumps storeEpoch (so new
	// stores and new scFloors-from-SC-stores miss); anything raising
	// t.clock from outside bumps clockEpoch (so stores/loads by other
	// threads that became visible through a merge miss — without a merge
	// they are not covered by t.clock and cannot contribute); the
	// thread's own loads of loc raise e.floor in place below; scFloors
	// from SC fences change scIdx (an SC fence advances scCount, and the
	// thread's own fence moves t.lastSCFence).
	if e.valid && e.clockEpoch == t.clockEpoch && e.storeEpoch == s.storeEpoch && e.scIdx == scIdx {
		return e.floor, e.published
	}
	floor, published = s.visibleFloorScan(t, loc, scIdx)
	*e = floorEntry{
		clockEpoch: t.clockEpoch,
		storeEpoch: s.storeEpoch,
		scIdx:      scIdx,
		floor:      floor,
		published:  published,
		valid:      true,
	}
	return floor, published
}

// effectiveSCIdx is the reader's position in the seq_cst order S for
// floor purposes. For an SC load it is s.scCount (all existing SC actions
// precede it), which moves with every SC action anywhere; for a load
// after an SC fence it is the fence's fixed index, and scFloors entries
// appended later carry strictly larger scIdx (SC indices are handed out
// in increasing order), so the contributing set {f : f.scIdx < scIdx} is
// frozen — an exact match on scIdx keeps a cached floor sound in both
// cases.
func (s *System) effectiveSCIdx(t *Thread, ord memmodel.MemOrder) int {
	if ord.IsSeqCst() {
		return s.scCount
	}
	if t.lastSCFence >= 0 {
		return t.lastSCFence
	}
	return -1
}

// noteOwnLoad raises t's cached floor for loc to idx after t read the
// store at mo index idx: the thread's own loads are always covered by
// its own clock, so the read-read floor tightens without any epoch
// moving. A stale-keyed entry is updated harmlessly (it cannot match).
func (s *System) noteOwnLoad(t *Thread, loc *location, idx int) {
	if s.cfg.disableFloorCache {
		return
	}
	if e := loc.cacheFor(t.id); e.valid && idx > e.floor {
		e.floor = idx
	}
}

// visibleFloorScan is the uncached visibility computation. Floors are
// absolute modification-order indices; stores below loc.moBase were
// evicted by fast mode and are treated as happened-before everything
// (they initialize the floor, and their existence publishes the
// location) — the documented plausibility approximation.
func (s *System) visibleFloorScan(t *Thread, loc *location, scIdx int) (floor int, published bool) {
	floor = loc.moBase
	published = loc.moBase > 0
	if mo := loc.newestCovered(t.clock); mo >= 0 {
		floor, published = mo, true
	}
	if loc.maxLoadRF > floor {
		for _, lr := range loc.loads {
			if lr.rfMO > floor && t.clock.Contains(lr.tid, lr.tseq) {
				floor = lr.rfMO
			}
		}
	}
	if scIdx >= 0 {
		if mo := loc.scFloorBefore(scIdx); mo > floor {
			floor = mo
		}
	}
	return floor, published
}

// addLoad appends a read-read coherence record and maintains the scan
// bound and compaction schedule.
func (s *System) addLoad(t *Thread, loc *location, idx int) {
	if s.cfg.FastMode {
		// Plain locations need no load records: fast-mode races are
		// detected through the seq vectors. Atomic locations keep a
		// bounded window for read-read coherence; overflow drops the
		// oldest half, which can only lower future floors (another
		// plausibility under-approximation, never a crash).
		if !loc.atomic {
			return
		}
		loc.loads = append(loc.loads, loadRec{tid: t.id, tseq: t.tseq, rfMO: idx})
		if idx > loc.maxLoadRF {
			loc.maxLoadRF = idx
		}
		if cap := 2 * s.cfg.storeBound; len(loc.loads) > cap {
			keep := cap / 2
			n := copy(loc.loads, loc.loads[len(loc.loads)-keep:])
			loc.loads = loc.loads[:n]
			maxRF := -1
			for _, lr := range loc.loads {
				if lr.rfMO > maxRF {
					maxRF = lr.rfMO
				}
			}
			loc.maxLoadRF = maxRF
		}
		return
	}
	loc.loads = append(loc.loads, loadRec{tid: t.id, tseq: t.tseq, rfMO: idx})
	if idx > loc.maxLoadRF {
		loc.maxLoadRF = idx
	}
	if loc.atomic {
		s.maybeCompactLoads(loc)
	}
}

// maybeCompactLoads discards loadRec entries that can never again raise a
// visibility floor. A record with rfMO <= glb is dead, where glb is the
// minimum over all unfinished threads of the thread's store-derived floor
// for loc: any future load's floor starts at its thread's store floor,
// store floors only grow over time (clocks only gain entries, the
// modification order only appends), and a future thread inherits its
// spawner's clock, hence a store floor >= the spawner's. So every floor
// any future load can compute is >= glb, and records at or below it are
// dominated forever. Plain locations are never compacted — their load
// records feed the data-race check, not just coherence.
func (s *System) maybeCompactLoads(loc *location) {
	if loc.nextCompact == 0 {
		loc.nextCompact = s.cfg.compactThreshold
	}
	if len(loc.loads) < loc.nextCompact {
		return
	}
	glb := -1
	live := false
	for _, t := range s.threads {
		if t.state == tsFinished {
			continue
		}
		f := loc.newestCovered(t.clock)
		if !live || f < glb {
			glb = f
		}
		live = true
	}
	if live && glb >= 0 {
		kept := loc.loads[:0]
		maxRF := -1
		for _, lr := range loc.loads {
			if lr.rfMO > glb {
				kept = append(kept, lr)
				if lr.rfMO > maxRF {
					maxRF = lr.rfMO
				}
			}
		}
		loc.loads = kept
		loc.maxLoadRF = maxRF
	}
	// Re-arm after another threshold's worth of growth, so a location
	// whose records are all live is not rescanned on every load.
	loc.nextCompact = len(loc.loads) + s.cfg.compactThreshold
}

// maybeEvict bounds a location's store buffer in fast mode: when the
// window exceeds Config.storeBound, the older half is evicted and its
// actions/clocks recycled. The caller appended a store (and bumped
// storeEpoch) immediately before, so every floor-cache entry already
// misses on its storeEpoch key — no invalidation pass is needed. Evicted
// stores become unreachable as reads-from candidates (visibleFloorScan
// starts the floor at moBase); the newest evicted value is kept for
// plain loads whose visibility fell below the window.
func (s *System) maybeEvict(loc *location) {
	bound := s.cfg.storeBound
	if !s.cfg.FastMode || bound < 2 || len(loc.stores) <= bound {
		return
	}
	e := len(loc.stores) / 2
	loc.evictedVal = loc.stores[e-1].act.Value
	for i := 0; i < e; i++ {
		st := &loc.stores[i]
		s.freeAction(st.act)
		if st.sync != nil {
			s.freeClock(st.sync)
		}
	}
	n := copy(loc.stores, loc.stores[e:])
	for i := n; i < len(loc.stores); i++ {
		loc.stores[i] = storeRec{}
	}
	loc.stores = loc.stores[:n]
	loc.moBase += e
	s.evictions++

	// Constraints and coherence records below the new base are vacuous
	// (floors start at moBase); dropping them is what keeps the auxiliary
	// slices bounded too. The kept SC floors are re-added in order, which
	// recomputes their running maxima over the entries that remain.
	oldSC := loc.scFloors
	loc.scFloors = oldSC[:0]
	for _, f := range oldSC {
		if f.moIdx >= loc.moBase {
			loc.addSCFloor(f.scIdx, f.moIdx)
		}
	}
	keptL := loc.loads[:0]
	maxRF := -1
	for _, lr := range loc.loads {
		if lr.rfMO >= loc.moBase {
			keptL = append(keptL, lr)
			if lr.rfMO > maxRF {
				maxRF = lr.rfMO
			}
		}
	}
	loc.loads = keptL
	loc.maxLoadRF = maxRF
}

// checkMixed reports a FailMixedRace when any thread in seqs has an
// access not covered by t's clock — the C11Tester mixed atomic/
// non-atomic race check. seqs holds per-thread latest-access tseqs
// (covering a thread's latest access covers all its earlier ones, so one
// entry per thread is exact). kind is the action kind recorded for the
// failure report; what/other phrase the message.
func (s *System) checkMixed(t *Thread, loc *location, seqs []uint32, kind memmodel.Kind, what, other string) {
	rules := s.rules()
	for tid, seq := range seqs {
		if seq != 0 && tid != t.id && rules.races(t, tid, seq) {
			t.tseq++
			t.clock.Set(t.id, t.tseq)
			s.record(t, kind, memmodel.Relaxed, 0, loc, 0)
			s.failf(FailMixedRace, "mixed atomic/non-atomic race on %s: T%d %s races with T%d %s",
				loc.name, t.id, what, tid, other)
		}
	}
}

// checkPublished enforces CDSChecker's uninitialized-load check in its
// full form: a load of a location none of whose stores happens-before the
// load is reading memory whose initialization was never made visible to
// this thread (e.g. a node reached through an unsynchronized pointer).
func (s *System) checkPublished(t *Thread, loc *location, published bool, what string) {
	if published || s.cfg.DisableLifetimeCheck {
		return
	}
	t.tseq++
	t.clock.Set(t.id, t.tseq)
	s.record(t, memmodel.KindAtomicLoad, memmodel.Relaxed, 0, loc, 0)
	s.failf(FailUninitLoad, "%s of %s: no initializing store happens-before the access (reads unpublished memory)", what, loc.name)
}

// validatePin recomputes the visibility record the chooser pinned and
// panics on any mismatch — the debugReplayCheck guard that frozen-prefix
// replay really is deterministic. A mismatch is an internal invariant
// violation, never a property of the checked program.
func (s *System) validatePin(t *Thread, loc *location, ord memmodel.MemOrder, rec *floorRec, spinPrev int) {
	floor, published := s.rules().scanFloor(s, t, loc, ord)
	switch rec.kind {
	case 'r':
		if spinPrev >= 0 {
			floor = s.spinBound(t, loc, spinPrev, floor)
		}
		n := loc.moNext() - floor
		if floor != rec.floor || published != rec.published || n != rec.n {
			panic(fmt.Sprintf("checker: replay pin mismatch at load of %s: pinned floor=%d published=%v n=%d, recomputed floor=%d published=%v n=%d",
				loc.name, rec.floor, rec.published, rec.n, floor, published, n))
		}
	case 'm':
		if published != rec.published {
			panic(fmt.Sprintf("checker: replay pin mismatch at RMW of %s: pinned published=%v, recomputed %v",
				loc.name, rec.published, published))
		}
	}
}

// releaseClockFor computes the release clock ("sync clock") carried by a
// new store: the clock an acquire load will merge when it reads the store.
//   - A release-or-stronger store releases the thread's current clock.
//   - A relaxed store after a release fence releases the fence's clock.
//   - An RMW additionally continues the release sequence of the store it
//     read from.
func (s *System) releaseClockFor(t *Thread, ord memmodel.MemOrder, rfSync *memmodel.ClockVector) *memmodel.ClockVector {
	var cv *memmodel.ClockVector
	switch {
	case ord.IsRelease():
		cv = s.snap(t.clock)
	case t.relFence != nil:
		cv = s.snap(t.relFence)
	}
	if rfSync != nil {
		if cv == nil {
			cv = s.blank()
		}
		cv.Merge(rfSync)
	}
	return cv
}

// applyReadSync applies the acquire side of reading store st.
func (s *System) applyReadSync(t *Thread, ord memmodel.MemOrder, st storeRec) {
	if st.sync == nil {
		return
	}
	if ord.IsAcquire() {
		if t.clock.Merge(st.sync) {
			t.clockEpoch++
		}
	} else {
		// A later acquire fence can still pick this up.
		t.acqPending.Merge(st.sync)
	}
}

// assignSCIndex is the C/C++11 SC-assignment rule: seq_cst-ordered
// actions join the total order S in execution order. Backends call it
// through consistency.assignSC.
func (s *System) assignSCIndex(act *memmodel.Action, ord memmodel.MemOrder) {
	if ord.IsSeqCst() {
		act.SCIndex = s.scCount
		s.scCount++
		if s.cfg.rfSeen != nil {
			s.fpSCOp(s.threads[act.Thread], act.Kind)
		}
	}
}

// doLoad implements an atomic load: compute the visible stores, branch on
// the choice, apply synchronization, and record the action. During
// frozen-prefix replay the candidate set is pinned by the chooser and the
// lifetime/visibility checks are skipped — they passed when the prefix
// was first executed, and replay re-creates the identical state.
func (s *System) doLoad(t *Thread, loc *location, ord memmodel.MemOrder, site memmodel.SiteID) memmodel.Value {
	s.bumpStep()
	// Resolve the armed spin re-read bound up front, identically on the
	// fresh and the replayed path: replay must evolve the spin state the
	// same way the original run did.
	spinPrev := -1
	if s.cfg.Reduce.Spinloop && t.spinLoc == loc {
		spinPrev = t.spinRF
		t.spinLoc = nil
	}
	var floor, n int
	if rec, ok := s.chooser.pinnedFloor(); ok {
		if rec.kind != 'r' {
			panic(fmt.Sprintf("checker: replay pin desync: load of %s got record kind %q", loc.name, rec.kind))
		}
		if s.cfg.debugReplayCheck {
			s.validatePin(t, loc, ord, rec, spinPrev)
		}
		floor, n = rec.floor, rec.n
	} else {
		s.checkLifetime(t, loc, "atomic load")
		s.checkMixed(t, loc, loc.rawWriteSeq, memmodel.KindAtomicLoad, "atomic load", "non-atomic store")
		if loc.moNext() == 0 {
			t.tseq++
			t.clock.Set(t.id, t.tseq)
			s.record(t, memmodel.KindAtomicLoad, ord, site, loc, 0)
			s.failf(FailUninitLoad, "atomic load of %s before any store", loc.name)
		}
		var published bool
		floor, published = s.rules().loadFloor(s, t, loc, ord)
		s.checkPublished(t, loc, published, "atomic load")
		if spinPrev >= 0 {
			if b := s.spinBound(t, loc, spinPrev, floor); b != floor {
				floor = b
				s.countSpinBound()
			}
		}
		n = loc.moNext() - floor
		s.rfCheck('r', t, loc, n)
		s.chooser.noteFloor(floorRec{kind: 'r', floor: floor, published: published, n: n})
	}
	var idx int
	if s.cfg.FastMode && t.lastResortEpoch == s.storeEpoch {
		// The thread is a spinner woken as a last resort: on real
		// hardware a spin loop eventually observes the newest value
		// (the fairness assumption the exhaustive engine enforces by
		// pruning). Sampling a stale store here would strand the whole
		// run in the fairness prune, so the retry reads the newest
		// store unconditionally — which is always readable.
		idx = loc.lastStoreIdx()
	} else {
		idx = floor + s.chooser.choose(n, 'r')
	}
	st := *loc.store(idx)

	t.tseq++
	t.clock.Set(t.id, t.tseq)
	s.rules().readSync(s, t, ord, st)
	act := s.record(t, memmodel.KindAtomicLoad, ord, site, loc, st.act.Value)
	act.RF = st.act
	s.rules().assignSC(s, act, ord)
	s.addLoad(t, loc, idx)
	s.noteOwnLoad(t, loc, idx)
	setSeq(&loc.readSeq, t.id, t.tseq)
	s.noteRecentRead(t, loc, idx)
	s.fpThreadOp(t, fpOpLoad, loc, uint64(idx)|uint64(ord)<<32, uint64(st.act.Value))
	s.sleep.wake(pendSig{class: sigMem, loc: loc.id, sc: ord.IsSeqCst()})
	return st.act.Value
}

// noteRecentRead appends to the spin-loop fairness window; fast mode
// bounds it (a thread that never yields would otherwise accumulate one
// entry per load forever).
func (s *System) noteRecentRead(t *Thread, loc *location, idx int) {
	if s.cfg.FastMode && len(t.recentReads) >= fastRecentReadsCap {
		n := copy(t.recentReads, t.recentReads[len(t.recentReads)-fastRecentReadsCap/2:])
		t.recentReads = t.recentReads[:n]
	}
	t.recentReads = append(t.recentReads, readRef{loc: loc, rfMO: idx})
}

// fastRecentReadsCap bounds Thread.recentReads in fast mode.
const fastRecentReadsCap = 64

// doStore implements an atomic store. rfSync is non-nil only when called
// from doRMW (release-sequence continuation).
func (s *System) doStore(t *Thread, loc *location, ord memmodel.MemOrder, site memmodel.SiteID, v memmodel.Value, rfSync *memmodel.ClockVector) *memmodel.Action {
	s.bumpStep()
	t.spinClear()
	s.checkLifetime(t, loc, "atomic store")
	s.checkMixed(t, loc, loc.rawWriteSeq, memmodel.KindAtomicStore, "atomic store", "non-atomic store")
	s.checkMixed(t, loc, loc.rawReadSeq, memmodel.KindAtomicStore, "atomic store", "non-atomic load")
	t.tseq++
	t.clock.Set(t.id, t.tseq)
	sync := s.rules().storeSync(s, t, ord, rfSync)
	act := s.record(t, memmodel.KindAtomicStore, ord, site, loc, v)
	moIdx := loc.moNext()
	act.MOIndex = moIdx
	loc.stores = append(loc.stores, storeRec{act: act, sync: sync})
	loc.setLastStoreByThread(t.id, moIdx)
	setSeq(&loc.writeSeq, t.id, t.tseq)
	s.rules().assignSC(s, act, ord)
	if act.SCIndex >= 0 {
		loc.addSCFloor(act.SCIndex, moIdx)
	}
	s.storeEpoch++
	s.maybeEvict(loc)
	s.fpMoOp(loc, fpOpStore, t, uint64(v))
	s.fpThreadOp(t, fpOpStore, loc, uint64(act.MOIndex)|uint64(ord)<<32, uint64(v))
	s.sleep.wake(pendSig{class: sigMem, loc: loc.id, write: true, sc: ord.IsSeqCst()})
	return act
}

// doRMW implements an atomic read-modify-write. Per C/C++11 atomicity the
// read half observes the mo-latest store; the write half is mo-adjacent.
func (s *System) doRMW(t *Thread, loc *location, ord memmodel.MemOrder, site memmodel.SiteID, f func(memmodel.Value) memmodel.Value) memmodel.Value {
	s.bumpStep()
	t.spinClear()
	if rec, ok := s.chooser.pinnedFloor(); ok {
		if rec.kind != 'm' {
			panic(fmt.Sprintf("checker: replay pin desync: RMW of %s got record kind %q", loc.name, rec.kind))
		}
		if s.cfg.debugReplayCheck {
			s.validatePin(t, loc, ord, rec, -1)
		}
	} else {
		s.checkLifetime(t, loc, "atomic RMW")
		s.checkMixed(t, loc, loc.rawWriteSeq, memmodel.KindAtomicRMW, "atomic RMW", "non-atomic store")
		s.checkMixed(t, loc, loc.rawReadSeq, memmodel.KindAtomicRMW, "atomic RMW", "non-atomic load")
		if loc.moNext() == 0 {
			t.tseq++
			t.clock.Set(t.id, t.tseq)
			s.record(t, memmodel.KindAtomicRMW, ord, site, loc, 0)
			s.failf(FailUninitLoad, "atomic RMW of %s before any store", loc.name)
		}
		_, published := s.rules().loadFloor(s, t, loc, ord)
		s.checkPublished(t, loc, published, "atomic RMW")
		s.chooser.noteFloor(floorRec{kind: 'm', published: published})
	}
	lastIdx := loc.lastStoreIdx()
	last := *loc.store(lastIdx)
	old := last.act.Value

	t.tseq++
	t.clock.Set(t.id, t.tseq)
	s.rules().readSync(s, t, ord, last)
	s.addLoad(t, loc, lastIdx)
	setSeq(&loc.readSeq, t.id, t.tseq)

	sync := s.rules().storeSync(s, t, ord, last.sync)
	act := s.record(t, memmodel.KindAtomicRMW, ord, site, loc, f(old))
	act.RF = last.act
	moIdx := loc.moNext()
	act.MOIndex = moIdx
	loc.stores = append(loc.stores, storeRec{act: act, sync: sync})
	loc.setLastStoreByThread(t.id, moIdx)
	setSeq(&loc.writeSeq, t.id, t.tseq)
	s.rules().assignSC(s, act, ord)
	if act.SCIndex >= 0 {
		loc.addSCFloor(act.SCIndex, moIdx)
	}
	s.storeEpoch++
	s.maybeEvict(loc)
	s.fpMoOp(loc, fpOpRMW, t, uint64(act.Value))
	s.fpThreadOp(t, fpOpRMW, loc, uint64(lastIdx)|uint64(ord)<<32, uint64(old))
	s.sleep.wake(pendSig{class: sigMem, loc: loc.id, write: true, sc: ord.IsSeqCst()})
	return old
}

// doCAS implements compare_exchange_strong. The outcome set is:
//   - success (when the mo-latest value equals expected), plus
//   - one failure alternative per visible store whose value differs from
//     expected (a failing CAS is just a load with failOrd).
//
// Failure alternatives are counted, not materialized: the chosen one is
// resolved by rank afterwards (and the resolution memoized on the pinned
// record, so replays of the same branch skip even that scan).
func (s *System) doCAS(t *Thread, loc *location, expected, desired memmodel.Value, succOrd memmodel.MemOrder, succSite memmodel.SiteID, failOrd memmodel.MemOrder, failSite memmodel.SiteID) (memmodel.Value, bool) {
	s.bumpStep()
	var rec *floorRec
	if r, ok := s.chooser.pinnedFloor(); ok {
		if r.kind != 'c' {
			panic(fmt.Sprintf("checker: replay pin desync: CAS of %s got record kind %q", loc.name, r.kind))
		}
		if s.cfg.debugReplayCheck {
			s.validateCASPin(t, loc, expected, failOrd, r)
		}
		rec = r
	} else {
		s.checkLifetime(t, loc, "CAS")
		s.checkMixed(t, loc, loc.rawWriteSeq, memmodel.KindAtomicRMW, "CAS", "non-atomic store")
		if loc.moNext() == 0 {
			t.tseq++
			t.clock.Set(t.id, t.tseq)
			s.record(t, memmodel.KindAtomicRMW, succOrd, succSite, loc, 0)
			s.failf(FailUninitLoad, "CAS of %s before any store", loc.name)
		}
		canSucceed := loc.store(loc.lastStoreIdx()).act.Value == expected
		floor, published := s.rules().loadFloor(s, t, loc, failOrd)
		s.checkPublished(t, loc, published, "CAS")
		n := 0
		for i := floor; i < loc.moNext(); i++ {
			if loc.store(i).act.Value != expected {
				n++
			}
		}
		if canSucceed {
			n++
		}
		if n == 0 {
			// Every visible store holds the expected value but the latest
			// is not it — impossible since the latest is always visible;
			// so n == 0 implies canSucceed was the only branch.
			s.failf(FailAPIMisuse, "CAS on %s with no outcome", loc.name)
		}
		s.rfCheck('c', t, loc, n)
		rec = s.chooser.noteFloor(floorRec{
			kind: 'c', floor: floor, published: published, n: n,
			canSucceed: canSucceed, resolvedFor: -1,
		})
	}
	choice := s.chooser.choose(rec.n, 'c')

	if rec.canSucceed && choice == 0 {
		// Success: behave exactly like doRMW writing desired. The write
		// side's mixed check runs here (not on the shared fresh path): a
		// failing CAS performs only a load and must not race with
		// non-atomic reads. Replay re-creates identical state, so running
		// it unconditionally cannot fail a prefix that passed before.
		s.checkMixed(t, loc, loc.rawReadSeq, memmodel.KindAtomicRMW, "CAS", "non-atomic load")
		t.spinClear()
		lastIdx := loc.lastStoreIdx()
		last := *loc.store(lastIdx)
		t.tseq++
		t.clock.Set(t.id, t.tseq)
		s.rules().readSync(s, t, succOrd, last)
		s.addLoad(t, loc, lastIdx)
		setSeq(&loc.readSeq, t.id, t.tseq)
		sync := s.rules().storeSync(s, t, succOrd, last.sync)
		act := s.record(t, memmodel.KindAtomicRMW, succOrd, succSite, loc, desired)
		act.RF = last.act
		moIdx := loc.moNext()
		act.MOIndex = moIdx
		loc.stores = append(loc.stores, storeRec{act: act, sync: sync})
		loc.setLastStoreByThread(t.id, moIdx)
		setSeq(&loc.writeSeq, t.id, t.tseq)
		s.rules().assignSC(s, act, succOrd)
		if act.SCIndex >= 0 {
			loc.addSCFloor(act.SCIndex, moIdx)
		}
		s.storeEpoch++
		s.maybeEvict(loc)
		s.fpMoOp(loc, fpOpRMW, t, uint64(desired))
		s.fpThreadOp(t, fpOpRMW, loc, uint64(lastIdx)|uint64(succOrd)<<32, uint64(expected))
		s.sleep.wake(pendSig{class: sigMem, loc: loc.id, write: true, sc: succOrd.IsSeqCst()})
		return expected, true
	}
	idx := rec.resolvedIdx
	if rec.resolvedFor != choice {
		// Resolve the choice-th failure alternative: the rank-th store at
		// or above the floor whose value differs from expected.
		rank := choice
		if rec.canSucceed {
			rank--
		}
		idx = -1
		for i := rec.floor; i < loc.moNext(); i++ {
			if loc.store(i).act.Value != expected {
				if rank == 0 {
					idx = i
					break
				}
				rank--
			}
		}
		if idx < 0 {
			panic(fmt.Sprintf("checker: CAS of %s: failure alternative %d out of range", loc.name, choice))
		}
		rec.resolvedFor = choice
		rec.resolvedIdx = idx
	}
	st := *loc.store(idx)
	t.tseq++
	t.clock.Set(t.id, t.tseq)
	s.rules().readSync(s, t, failOrd, st)
	act := s.record(t, memmodel.KindAtomicLoad, failOrd, failSite, loc, st.act.Value)
	act.RF = st.act
	s.rules().assignSC(s, act, failOrd)
	s.addLoad(t, loc, idx)
	s.noteOwnLoad(t, loc, idx)
	setSeq(&loc.readSeq, t.id, t.tseq)
	s.noteRecentRead(t, loc, idx)
	s.fpThreadOp(t, fpOpCASFail, loc, uint64(idx)|uint64(failOrd)<<32, uint64(st.act.Value))
	s.sleep.wake(pendSig{class: sigMem, loc: loc.id, sc: failOrd.IsSeqCst()})
	return st.act.Value, false
}

// validateCASPin is validatePin for kind 'c'.
func (s *System) validateCASPin(t *Thread, loc *location, expected memmodel.Value, failOrd memmodel.MemOrder, rec *floorRec) {
	floor, published := s.rules().scanFloor(s, t, loc, failOrd)
	canSucceed := loc.moNext() > 0 && loc.store(loc.lastStoreIdx()).act.Value == expected
	n := 0
	for i := floor; i < loc.moNext(); i++ {
		if loc.store(i).act.Value != expected {
			n++
		}
	}
	if canSucceed {
		n++
	}
	if floor != rec.floor || published != rec.published || n != rec.n || canSucceed != rec.canSucceed {
		panic(fmt.Sprintf("checker: replay pin mismatch at CAS of %s: pinned floor=%d published=%v n=%d canSucceed=%v, recomputed floor=%d published=%v n=%d canSucceed=%v",
			loc.name, rec.floor, rec.published, rec.n, rec.canSucceed, floor, published, n, canSucceed))
	}
}

// doFence implements a stand-alone fence.
func (s *System) doFence(t *Thread, ord memmodel.MemOrder, site memmodel.SiteID) {
	s.bumpStep()
	t.spinClear()
	t.tseq++
	t.clock.Set(t.id, t.tseq)
	if ord.IsAcquire() {
		if t.clock.Merge(t.acqPending) {
			t.clockEpoch++
		}
	}
	if ord.IsRelease() {
		if s.cfg.FastMode && t.relFence != nil {
			// Fast-mode snapshots are owned copies, so the replaced fence
			// clock can be recycled immediately.
			s.freeClock(t.relFence)
		}
		t.relFence = s.snap(t.clock)
	}
	act := s.record(t, memmodel.KindFence, ord, site, nil, 0)
	s.rules().assignSC(s, act, ord)
	s.fpThreadOp(t, fpOpFence, nil, uint64(ord), 0)
	s.sleep.wake(pendSig{class: sigFence, loc: -1, sc: ord.IsSeqCst()})
	if act.SCIndex >= 0 {
		t.lastSCFence = act.SCIndex
		// An SC load (or a load after an SC fence) that follows this
		// fence in S must not read anything older than the last store
		// each thread issued before the fence — but only stores by
		// *this* thread are sequenced before it, so only they
		// contribute floors.
		for _, loc := range s.locs {
			if !loc.atomic {
				continue
			}
			if mo := loc.lastStoreByThread(t.id); mo >= 0 {
				loc.addSCFloor(act.SCIndex, mo)
			}
		}
	}
}

// doPlainLoad implements a non-atomic load with race detection. It does
// not schedule: plain accesses run under the baton of the surrounding
// visible operation, which keeps the state space small without losing
// race detection (races are a property of happens-before, not of the
// interleaving).
func (s *System) doPlainLoad(t *Thread, loc *location) memmodel.Value {
	s.bumpStep()
	s.checkLifetime(t, loc, "plain load")
	t.tseq++
	t.clock.Set(t.id, t.tseq)
	if loc.moNext() == 0 {
		s.record(t, memmodel.KindPlainLoad, memmodel.Relaxed, 0, loc, 0)
		s.failf(FailUninitLoad, "load of plain location %s before any store", loc.name)
	}
	if s.cfg.FastMode {
		return s.fastPlainLoad(t, loc)
	}
	// Race: any store by another thread not ordered with this load.
	best := -1
	for i, st := range loc.stores {
		if t.clock.Contains(st.act.Thread, st.act.TSeq) {
			best = loc.moBase + i
		} else if st.act.Thread != t.id {
			s.record(t, memmodel.KindPlainLoad, memmodel.Relaxed, 0, loc, 0)
			s.failf(FailDataRace, "data race on %s: T%d load races with T%d store (#%d)",
				loc.name, t.id, st.act.Thread, st.act.ID)
		}
	}
	if best < 0 {
		s.record(t, memmodel.KindPlainLoad, memmodel.Relaxed, 0, loc, 0)
		s.failf(FailUninitLoad, "load of plain location %s sees no ordered store", loc.name)
	}
	st := *loc.store(best)
	act := s.record(t, memmodel.KindPlainLoad, memmodel.Relaxed, 0, loc, st.act.Value)
	act.RF = st.act
	s.addLoad(t, loc, best)
	setSeq(&loc.readSeq, t.id, t.tseq)
	s.noteRecentRead(t, loc, best)
	return st.act.Value
}

// fastPlainLoad is the fast-mode plain load: races are detected against
// the per-thread writeSeq vector (exact and never evicted, unlike the
// store window), and the value is the newest visible store in the window
// — or the remembered evicted value when visibility fell below it.
func (s *System) fastPlainLoad(t *Thread, loc *location) memmodel.Value {
	for tid, seq := range loc.writeSeq {
		if seq != 0 && tid != t.id && !t.clock.Contains(tid, seq) {
			s.record(t, memmodel.KindPlainLoad, memmodel.Relaxed, 0, loc, 0)
			s.failf(FailDataRace, "data race on %s: T%d load races with T%d store",
				loc.name, t.id, tid)
		}
	}
	best := loc.newestCovered(t.clock)
	var v memmodel.Value
	switch {
	case best >= 0:
		v = loc.store(best).act.Value
	case loc.moBase > 0:
		v = loc.evictedVal
		best = loc.moBase - 1
	default:
		s.record(t, memmodel.KindPlainLoad, memmodel.Relaxed, 0, loc, 0)
		s.failf(FailUninitLoad, "load of plain location %s sees no ordered store", loc.name)
	}
	s.record(t, memmodel.KindPlainLoad, memmodel.Relaxed, 0, loc, v)
	setSeq(&loc.readSeq, t.id, t.tseq)
	s.noteRecentRead(t, loc, best)
	return v
}

// doPlainStore implements a non-atomic store with race detection.
func (s *System) doPlainStore(t *Thread, loc *location, v memmodel.Value) {
	s.bumpStep()
	t.spinClear()
	s.checkLifetime(t, loc, "plain store")
	t.tseq++
	t.clock.Set(t.id, t.tseq)
	if s.cfg.FastMode {
		// Exact vector checks instead of the store/load record scans.
		for tid, seq := range loc.writeSeq {
			if seq != 0 && tid != t.id && !t.clock.Contains(tid, seq) {
				s.record(t, memmodel.KindPlainStore, memmodel.Relaxed, 0, loc, v)
				s.failf(FailDataRace, "data race on %s: T%d store races with T%d store",
					loc.name, t.id, tid)
			}
		}
		for tid, seq := range loc.readSeq {
			if seq != 0 && tid != t.id && !t.clock.Contains(tid, seq) {
				s.record(t, memmodel.KindPlainStore, memmodel.Relaxed, 0, loc, v)
				s.failf(FailDataRace, "data race on %s: T%d store races with T%d load",
					loc.name, t.id, tid)
			}
		}
	} else {
		for _, st := range loc.stores {
			if st.act.Thread != t.id && !t.clock.Contains(st.act.Thread, st.act.TSeq) {
				s.record(t, memmodel.KindPlainStore, memmodel.Relaxed, 0, loc, v)
				s.failf(FailDataRace, "data race on %s: T%d store races with T%d store (#%d)",
					loc.name, t.id, st.act.Thread, st.act.ID)
			}
		}
		for _, lr := range loc.loads {
			if lr.tid != t.id && !t.clock.Contains(lr.tid, lr.tseq) {
				s.record(t, memmodel.KindPlainStore, memmodel.Relaxed, 0, loc, v)
				s.failf(FailDataRace, "data race on %s: T%d store races with T%d load",
					loc.name, t.id, lr.tid)
			}
		}
	}
	act := s.record(t, memmodel.KindPlainStore, memmodel.Relaxed, 0, loc, v)
	moIdx := loc.moNext()
	act.MOIndex = moIdx
	loc.stores = append(loc.stores, storeRec{act: act})
	loc.setLastStoreByThread(t.id, moIdx)
	setSeq(&loc.writeSeq, t.id, t.tseq)
	s.maybeEvict(loc)
	s.fpMoOp(loc, fpOpPlainStore, t, uint64(v))
	s.fpThreadOp(t, fpOpPlainStore, loc, uint64(moIdx), uint64(v))
}

// doRawLoad implements Atomic.RawLoad: a non-atomic load of an atomic
// location (C11Tester's signature mixed-access scenario — e.g. reading an
// atomic counter outside the critical section). Any write by another
// thread not ordered with the load — atomic or not — is a mixed race.
// Like plain accesses it is not a scheduling point.
func (s *System) doRawLoad(t *Thread, loc *location) memmodel.Value {
	s.bumpStep()
	// A raw load is not tracked in recentReads, so an iteration
	// containing one cannot be proven pure.
	t.spinClear()
	s.checkLifetime(t, loc, "non-atomic load")
	t.tseq++
	t.clock.Set(t.id, t.tseq)
	if loc.moNext() == 0 {
		s.record(t, memmodel.KindPlainLoad, memmodel.Relaxed, 0, loc, 0)
		s.failf(FailUninitLoad, "non-atomic load of atomic %s before any store", loc.name)
	}
	s.checkMixed(t, loc, loc.writeSeq, memmodel.KindPlainLoad, "non-atomic load", "atomic store")
	s.checkMixed(t, loc, loc.rawWriteSeq, memmodel.KindPlainLoad, "non-atomic load", "non-atomic store")
	// Race-free means every store is ordered before this load, so the
	// newest one is the unique coherent value.
	idx := loc.lastStoreIdx()
	st := *loc.store(idx)
	act := s.record(t, memmodel.KindPlainLoad, memmodel.Relaxed, 0, loc, st.act.Value)
	act.RF = st.act
	s.addLoad(t, loc, idx)
	setSeq(&loc.rawReadSeq, t.id, t.tseq)
	return st.act.Value
}

// doRawStore implements Atomic.RawStore: a non-atomic store to an atomic
// location. It conflicts with every other-thread access, atomic or not.
// The stored value joins the modification order (relaxed-like, carrying
// no release clock) so subsequent atomic loads observe it.
func (s *System) doRawStore(t *Thread, loc *location, v memmodel.Value) {
	s.bumpStep()
	t.spinClear()
	s.checkLifetime(t, loc, "non-atomic store")
	t.tseq++
	t.clock.Set(t.id, t.tseq)
	s.checkMixed(t, loc, loc.writeSeq, memmodel.KindPlainStore, "non-atomic store", "atomic store")
	s.checkMixed(t, loc, loc.readSeq, memmodel.KindPlainStore, "non-atomic store", "atomic load")
	s.checkMixed(t, loc, loc.rawWriteSeq, memmodel.KindPlainStore, "non-atomic store", "non-atomic store")
	s.checkMixed(t, loc, loc.rawReadSeq, memmodel.KindPlainStore, "non-atomic store", "non-atomic load")
	act := s.record(t, memmodel.KindPlainStore, memmodel.Relaxed, 0, loc, v)
	moIdx := loc.moNext()
	act.MOIndex = moIdx
	loc.stores = append(loc.stores, storeRec{act: act})
	loc.setLastStoreByThread(t.id, moIdx)
	setSeq(&loc.rawWriteSeq, t.id, t.tseq)
	// Atomic readers use the visibility cache; the new store must miss it.
	s.storeEpoch++
	s.maybeEvict(loc)
	s.fpMoOp(loc, fpOpRawStore, t, uint64(v))
	s.fpThreadOp(t, fpOpRawStore, loc, uint64(moIdx), uint64(v))
}
