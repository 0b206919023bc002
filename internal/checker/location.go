package checker

import (
	"repro/internal/memmodel"
)

// storeRec is one entry in a location's modification order.
type storeRec struct {
	act *memmodel.Action
	// sync is the release clock an acquire load synchronizes with when
	// it reads this store: the clock of the head(s) of the release
	// sequence(s) this store belongs to, nil if none.
	sync *memmodel.ClockVector
}

// loadRec records a past load for read-read coherence.
type loadRec struct {
	tid  int
	tseq uint32
	// rfMO is the modification-order index of the store the load read.
	rfMO int
}

// readRef identifies which store a thread read from a location, for the
// spin-loop fairness check.
type readRef struct {
	loc  *location
	rfMO int
}

// scFloor records a seq_cst visibility constraint: any load whose
// effective SC position is after scIdx must read the store at
// modification-order index moIdx or a later one. maxMO is the largest
// moIdx of this entry and every earlier one in location.scFloors.
type scFloor struct {
	scIdx int
	moIdx int
	maxMO int
}

// floorEntry caches one thread's visibleFloor result for a location.
// The entry is valid while the triple (clockEpoch, storeEpoch, scIdx)
// matches the current state exactly — see visibleFloor for the
// invalidation argument. floor may additionally be raised in place when
// the owning thread performs a load of the location (its own loads are
// always covered by its own clock, so they tighten the read-read floor
// without any epoch moving).
type floorEntry struct {
	clockEpoch uint64
	storeEpoch uint64
	scIdx      int
	floor      int
	published  bool
	valid      bool
}

// location is the checker-internal state of one memory location.
type location struct {
	id     int
	name   string
	atomic bool
	// creator identifies the creating thread and the per-thread sequence
	// number its creation is ordered at: an access by another thread
	// whose clock does not cover it touches memory whose construction
	// never happened-before the access (C/C++ object-lifetime UB).
	creatorTid  int
	creatorTSeq uint32

	// stores holds the tail of the modification order starting at
	// absolute mo index moBase: stores[i] is mo index moBase+i. Exhaustive
	// exploration never evicts, so moBase stays 0 and stores is the whole
	// modification order; fast mode bounds the window (Config.storeBound)
	// and evicts the oldest half when it overflows, keeping memory O(live
	// state) on programs with millions of stores.
	stores []storeRec
	// moBase is the absolute mo index of stores[0] (0 unless fast mode
	// evicted a prefix).
	moBase int
	// evictedVal is the value of the newest evicted store — what a plain
	// load whose visibility floor fell below the window reads.
	evictedVal memmodel.Value
	// loads is every load of this location still relevant for read-read
	// coherence; compactLoads discards entries provably dominated for
	// every possible future reader.
	loads []loadRec
	// maxLoadRF is the largest rfMO over the retained loads (-1 if none):
	// when the store-derived floor already reaches it, the loads scan is
	// skipped entirely.
	maxLoadRF int
	// nextCompact is the loads length at which the next compaction pass
	// runs (0 = not yet armed; maybeCompactLoads arms it lazily from the
	// configured threshold).
	nextCompact int
	// lastStoreBy[tid] is the latest mo index thread tid stored (-1 none).
	lastStoreBy []int
	// scFloors are seq_cst visibility constraints in the order they were
	// added. Every append carries the SC index just assigned, so scIdx
	// never decreases along the slice and the entries that bind a reader
	// at SC position p (scIdx < p) form a prefix. moIdx is not monotone:
	// an SC fence adds its thread's last store, which may be older than
	// the entries before it. Hence the running maximum maxMO, which makes
	// the prefix's floor its last entry's maxMO (scFloorBefore).
	scFloors []scFloor

	// floorCache[tid] memoizes visibleFloor per thread.
	floorCache []floorEntry

	// Canonical identity, modification-order stream and cached entry for
	// the reduction fingerprint (reduce.go).
	fpObj

	// Per-thread latest-access vectors for exact O(threads) race checks
	// (C11Tester-style): readSeq[tid]/writeSeq[tid] is the tseq of thread
	// tid's newest read/write of this location, 0 if none (real accesses
	// always have tseq >= 1 — Thread.run burns tseq 1 on ThreadStart).
	// Covering a thread's latest access implies covering all its earlier
	// ones, so one vector entry per thread suffices. Maintained in every
	// mode; fast mode uses them as its only race detector.
	readSeq  []uint32
	writeSeq []uint32
	// rawReadSeq/rawWriteSeq track *non-atomic* accesses to an atomic
	// location (Atomic.RawLoad/RawStore). Allocated lazily — nil until
	// the first raw access — so the mixed-access race checks cost nothing
	// for programs that never mix.
	rawReadSeq  []uint32
	rawWriteSeq []uint32

	// atomicH and plainH are the handles newAtomic and newPlain return
	// for this location. Like the location, a handle is valid only within
	// the execution that created it.
	atomicH Atomic
	plainH  Plain
}

// moNext returns the absolute mo index the next store will get (one past
// the newest store), i.e. the store count over the location's lifetime.
func (l *location) moNext() int { return l.moBase + len(l.stores) }

// store returns the record at absolute mo index mo, which must be inside
// the retained window [moBase, moNext).
func (l *location) store(mo int) *storeRec { return &l.stores[mo-l.moBase] }

// setSeq grows v to cover tid and records seq as its latest access.
func setSeq(v *[]uint32, tid int, seq uint32) {
	for len(*v) <= tid {
		*v = append(*v, 0)
	}
	(*v)[tid] = seq
}

// lastStoreIdx returns the absolute mo index of the newest store, or -1.
func (l *location) lastStoreIdx() int { return l.moNext() - 1 }

// lastStoreByThread returns the mo index of the newest store by tid, or
// -1 when the thread has not stored to the location.
func (l *location) lastStoreByThread(tid int) int {
	if tid >= len(l.lastStoreBy) {
		return -1
	}
	return l.lastStoreBy[tid]
}

// setLastStoreByThread records mo index mo as thread tid's newest store.
func (l *location) setLastStoreByThread(tid, mo int) {
	for len(l.lastStoreBy) <= tid {
		l.lastStoreBy = append(l.lastStoreBy, -1)
	}
	l.lastStoreBy[tid] = mo
}

// newestCovered returns the absolute mo index of the newest retained
// store that clock c covers, or -1 when it covers none. Coverage is not
// monotone along the modification order, but the newest covered store is
// the largest covered index, so the scan stops at the first hit from the
// newest end.
func (l *location) newestCovered(c *memmodel.ClockVector) int {
	for i := len(l.stores) - 1; i >= 0; i-- {
		if a := l.stores[i].act; c.Contains(a.Thread, a.TSeq) {
			return l.moBase + i
		}
	}
	return -1
}

// addSCFloor appends a seq_cst floor; scIdx must be at least that of
// every existing entry.
func (l *location) addSCFloor(scIdx, moIdx int) {
	maxMO := moIdx
	if n := len(l.scFloors); n > 0 && l.scFloors[n-1].maxMO > maxMO {
		maxMO = l.scFloors[n-1].maxMO
	}
	l.scFloors = append(l.scFloors, scFloor{scIdx: scIdx, moIdx: moIdx, maxMO: maxMO})
}

// scFloorBefore returns the largest moIdx over the seq_cst floors whose
// scIdx is below scIdx, or -1 when there are none: the running maximum
// of the newest such entry. For a seq_cst load, whose scIdx is the SC
// count, that is the last entry.
func (l *location) scFloorBefore(scIdx int) int {
	for i := len(l.scFloors) - 1; i >= 0; i-- {
		if l.scFloors[i].scIdx < scIdx {
			return l.scFloors[i].maxMO
		}
	}
	return -1
}

// cacheFor returns the floor-cache slot for thread tid, growing the
// cache on demand.
func (l *location) cacheFor(tid int) *floorEntry {
	for len(l.floorCache) <= tid {
		l.floorCache = append(l.floorCache, floorEntry{})
	}
	return &l.floorCache[tid]
}

// reset returns the location to its freshly created state while keeping
// every slice's capacity, so a pooled execution repopulates it without
// allocating. The caller overwrites the identity fields (name, atomic,
// creator) afterwards.
func (l *location) reset() {
	l.stores = l.stores[:0]
	l.moBase = 0
	l.evictedVal = 0
	l.loads = l.loads[:0]
	l.maxLoadRF = -1
	l.nextCompact = 0
	l.lastStoreBy = l.lastStoreBy[:0]
	l.scFloors = l.scFloors[:0]
	for i := range l.floorCache {
		l.floorCache[i].valid = false
	}
	l.readSeq = l.readSeq[:0]
	l.writeSeq = l.writeSeq[:0]
	l.rawReadSeq = nil
	l.rawWriteSeq = nil
}

// Atomic is a simulated C/C++11 atomic location. All accesses must go
// through a *Thread so the checker can schedule and record them.
type Atomic struct {
	loc *location
}

// Name returns the debug name of the location.
func (a *Atomic) Name() string { return a.loc.name }

// Plain is a simulated non-atomic location, subject to data-race
// detection.
type Plain struct {
	loc *location
}

// Name returns the debug name of the location.
func (p *Plain) Name() string { return p.loc.name }
