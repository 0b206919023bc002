package checker

import (
	"repro/internal/checker/model"
	"repro/internal/memmodel"
)

// consistency is the per-model rule seam carved out of the execution
// kernel: everything that decides which stores a load may observe, which
// synchronization edges an access creates, which actions join the seq_cst
// total order, and when two accesses race. The kernel (scheduling, the
// decision tree, replay, pooling, statistics) is model-independent and
// calls through this interface at every atomic access.
//
// Plain and raw accesses are deliberately outside the seam: in a
// race-free program they read the unique newest ordered store under every
// model the checker supports, and in a racy one the race itself is the
// reported outcome.
//
// Implementations must satisfy the contract documented in package
// internal/checker/model: floors are deterministic functions of the
// execution state (replay pinning), monotone as the execution extends
// (load compaction), and either O(1) without the floor cache or
// invalidated exactly by the (clockEpoch, storeEpoch, scIdx) key.
type consistency interface {
	id() model.ID

	// loadFloor computes the lowest modification-order index a load by t
	// at loc with order ord may read, and whether any readable store is
	// published to t. This is the hot path and may consult the floor
	// cache.
	loadFloor(s *System, t *Thread, loc *location, ord memmodel.MemOrder) (floor int, published bool)

	// scanFloor is loadFloor without the cache — the recomputation used
	// by debugReplayCheck pin validation and the soundness tests.
	scanFloor(s *System, t *Thread, loc *location, ord memmodel.MemOrder) (floor int, published bool)

	// storeSync computes the release clock a new store by t with order
	// ord carries (nil when the store synchronizes nothing). rfSync is
	// the read-from store's clock for RMW release-sequence continuation.
	storeSync(s *System, t *Thread, ord memmodel.MemOrder, rfSync *memmodel.ClockVector) *memmodel.ClockVector

	// readSync applies the acquire side of t reading store st with order
	// ord.
	readSync(s *System, t *Thread, ord memmodel.MemOrder, st storeRec)

	// assignSC decides membership in the seq_cst total order S, stamping
	// act.SCIndex and advancing s.scCount for members.
	assignSC(s *System, act *memmodel.Action, ord memmodel.MemOrder)

	// races reports whether a recorded access (tid, tseq) of another
	// thread is unordered with thread t's current point — the race
	// predicate behind the mixed-access and plain-access checks.
	races(t *Thread, tid int, tseq uint32) bool
}

// backendFor resolves a model ID to its backend singleton. All backends
// are stateless; per-execution state stays on System/Thread/location.
func backendFor(id model.ID) consistency {
	switch id.OrDefault() {
	case model.SC:
		return scB
	case model.SCAtomics:
		return scAtomicsB
	default:
		return c11B
	}
}

var (
	c11B       = c11Backend{}
	scB        = scBackend{}
	scAtomicsB = scAtomicsBackend{}
)

// rules returns the active consistency backend. A nil backend (a System
// built outside Explore, e.g. directly in a test) means the default
// C/C++11 rules.
func (s *System) rules() consistency {
	if s.cfg.backend == nil {
		return c11B
	}
	return s.cfg.backend
}

// hbOrdered is the shared race predicate: an access (tid, tseq) by
// another thread races with t unless t's clock covers it. All three
// models define races through happens-before — they differ only in which
// synchronization edges build the clock, which the storeSync/readSync
// rules already encode.
func hbOrdered(t *Thread, tid int, tseq uint32) bool {
	return t.clock.Contains(tid, tseq)
}

// forcedLatest is the interleaving-semantics visibility rule: the only
// readable store is the modification-order-newest one, and a location
// with any store at all is considered published (visibility is global
// under SC, not gated on happens-before publication). O(1), so the floor
// cache is bypassed entirely — nothing to invalidate.
func forcedLatest(loc *location) (floor int, published bool) {
	return loc.lastStoreIdx(), loc.moNext() > 0
}

// c11Backend is the C/C++11 model exactly as before the seam existed:
// per-location coherence, release/acquire synchronization, release
// sequences, fences, and the seq_cst order S, with the floor cache and
// load compaction in their original form. Every method delegates to the
// pre-existing System rule to keep the output bit-identical.
type c11Backend struct{}

func (c11Backend) id() model.ID { return model.C11 }

func (c11Backend) loadFloor(s *System, t *Thread, loc *location, ord memmodel.MemOrder) (int, bool) {
	return s.visibleFloor(t, loc, ord)
}

func (c11Backend) scanFloor(s *System, t *Thread, loc *location, ord memmodel.MemOrder) (int, bool) {
	return s.visibleFloorScan(t, loc, s.effectiveSCIdx(t, ord))
}

func (c11Backend) storeSync(s *System, t *Thread, ord memmodel.MemOrder, rfSync *memmodel.ClockVector) *memmodel.ClockVector {
	return s.releaseClockFor(t, ord, rfSync)
}

func (c11Backend) readSync(s *System, t *Thread, ord memmodel.MemOrder, st storeRec) {
	s.applyReadSync(t, ord, st)
}

func (c11Backend) assignSC(s *System, act *memmodel.Action, ord memmodel.MemOrder) {
	s.assignSCIndex(act, ord)
}

func (c11Backend) races(t *Thread, tid int, tseq uint32) bool {
	return !hbOrdered(t, tid, tseq)
}

// scBackend is plain sequential consistency (interleaving semantics):
// every load reads the newest store, every store carries the writer's
// full clock, and every read merges it — so there is no stale-read
// branching and the exploration space collapses to thread interleavings.
// Membership in S is left as in C11 (only seq_cst-ordered actions):
// stamping every action with a global index would make operations on
// different locations observably order-dependent, which both defeats the
// sleep-set reduction and is invisible to interleaving semantics anyway —
// ordering between communicating operations is already in the clocks.
type scBackend struct{}

func (scBackend) id() model.ID { return model.SC }

func (scBackend) loadFloor(s *System, t *Thread, loc *location, ord memmodel.MemOrder) (int, bool) {
	return forcedLatest(loc)
}

func (scBackend) scanFloor(s *System, t *Thread, loc *location, ord memmodel.MemOrder) (int, bool) {
	return forcedLatest(loc)
}

func (scBackend) storeSync(s *System, t *Thread, ord memmodel.MemOrder, rfSync *memmodel.ClockVector) *memmodel.ClockVector {
	return s.releaseClockFor(t, memmodel.SeqCst, rfSync)
}

func (scBackend) readSync(s *System, t *Thread, ord memmodel.MemOrder, st storeRec) {
	s.applyReadSync(t, memmodel.SeqCst, st)
}

func (scBackend) assignSC(s *System, act *memmodel.Action, ord memmodel.MemOrder) {
	s.assignSCIndex(act, ord)
}

func (scBackend) races(t *Thread, tid int, tseq uint32) bool {
	return !hbOrdered(t, tid, tseq)
}

// scAtomicsBackend is the strengthened-SC-atomics model (Batty et al.,
// "Overhauling SC Atomics in C11 and OpenCL"): seq_cst accesses get
// interleaving semantics — a seq_cst load (or the failure load of a CAS
// with a seq_cst failure order) reads the newest store — layered over the
// unmodified C/C++11 rules for relaxed/acquire/release accesses and for
// synchronization. The forced-latest path is O(1) and bypasses the floor
// cache; the non-seq_cst path is exactly the cached C11 computation, so
// it inherits C11's invalidation argument unchanged.
type scAtomicsBackend struct{}

func (scAtomicsBackend) id() model.ID { return model.SCAtomics }

func (scAtomicsBackend) loadFloor(s *System, t *Thread, loc *location, ord memmodel.MemOrder) (int, bool) {
	if ord.IsSeqCst() {
		return forcedLatest(loc)
	}
	return s.visibleFloor(t, loc, ord)
}

func (scAtomicsBackend) scanFloor(s *System, t *Thread, loc *location, ord memmodel.MemOrder) (int, bool) {
	if ord.IsSeqCst() {
		return forcedLatest(loc)
	}
	return s.visibleFloorScan(t, loc, s.effectiveSCIdx(t, ord))
}

func (scAtomicsBackend) storeSync(s *System, t *Thread, ord memmodel.MemOrder, rfSync *memmodel.ClockVector) *memmodel.ClockVector {
	return s.releaseClockFor(t, ord, rfSync)
}

func (scAtomicsBackend) readSync(s *System, t *Thread, ord memmodel.MemOrder, st storeRec) {
	s.applyReadSync(t, ord, st)
}

func (scAtomicsBackend) assignSC(s *System, act *memmodel.Action, ord memmodel.MemOrder) {
	s.assignSCIndex(act, ord)
}

func (scAtomicsBackend) races(t *Thread, tid int, tseq uint32) bool {
	return !hbOrdered(t, tid, tseq)
}
