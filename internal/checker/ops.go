package checker

import (
	"repro/internal/memmodel"
)

// The orders the atomic operations and Fence take are either bare
// orders (memmodel.Acquire, ...) or the value a structure reads from its
// order table (memmodel.OrderTable.Order), which carries the site it
// came from. Each entry point splits that value first: the kernel
// computes with the plain order, and the recorded action keeps the site
// in Action.Site (0 for a bare order).

// Load performs an atomic load with the given memory order. The set of
// stores the load may read from is computed from the C/C++11 visibility
// rules (coherence floors, seq_cst floors); when more than one store is
// readable the exploration branches.
func (a *Atomic) Load(t *Thread, ord memmodel.MemOrder) memmodel.Value {
	ord, site := ord.Split()
	t.schedulePoint(pendSig{class: sigMem, loc: a.loc.id, sc: ord.IsSeqCst()})
	return t.sys.doLoad(t, a.loc, ord, site)
}

// Store performs an atomic store with the given memory order.
func (a *Atomic) Store(t *Thread, ord memmodel.MemOrder, v memmodel.Value) {
	ord, site := ord.Split()
	t.schedulePoint(pendSig{class: sigMem, loc: a.loc.id, write: true, sc: ord.IsSeqCst()})
	t.sys.doStore(t, a.loc, ord, site, v, nil)
}

// Exchange atomically replaces the value and returns the previous one.
func (a *Atomic) Exchange(t *Thread, ord memmodel.MemOrder, v memmodel.Value) memmodel.Value {
	ord, site := ord.Split()
	t.schedulePoint(pendSig{class: sigMem, loc: a.loc.id, write: true, sc: ord.IsSeqCst()})
	return t.sys.doRMW(t, a.loc, ord, site, func(memmodel.Value) memmodel.Value { return v })
}

// FetchAdd atomically adds delta and returns the previous value.
func (a *Atomic) FetchAdd(t *Thread, ord memmodel.MemOrder, delta memmodel.Value) memmodel.Value {
	ord, site := ord.Split()
	t.schedulePoint(pendSig{class: sigMem, loc: a.loc.id, write: true, sc: ord.IsSeqCst()})
	return t.sys.doRMW(t, a.loc, ord, site, func(old memmodel.Value) memmodel.Value { return old + delta })
}

// FetchSub atomically subtracts delta and returns the previous value.
func (a *Atomic) FetchSub(t *Thread, ord memmodel.MemOrder, delta memmodel.Value) memmodel.Value {
	ord, site := ord.Split()
	t.schedulePoint(pendSig{class: sigMem, loc: a.loc.id, write: true, sc: ord.IsSeqCst()})
	return t.sys.doRMW(t, a.loc, ord, site, func(old memmodel.Value) memmodel.Value { return old - delta })
}

// CAS is compare_exchange_strong: it atomically replaces the value with
// desired if the current value equals expected. On failure it returns the
// value read with failOrd; a failing CAS behaves as a load and may read
// any visible store whose value differs from expected (C/C++11 allows a
// strong CAS to fail on a stale read even when the newest value matches).
// A success records succOrd's site, a failure failOrd's.
func (a *Atomic) CAS(t *Thread, expected, desired memmodel.Value, succOrd, failOrd memmodel.MemOrder) (memmodel.Value, bool) {
	succOrd, succSite := succOrd.Split()
	failOrd, failSite := failOrd.Split()
	t.schedulePoint(pendSig{class: sigMem, loc: a.loc.id, write: true, sc: succOrd.IsSeqCst() || failOrd.IsSeqCst()})
	return t.sys.doCAS(t, a.loc, expected, desired, succOrd, succSite, failOrd, failSite)
}

// RawLoad performs a *non-atomic* load of an atomic location — the mixed
// atomic/non-atomic access pattern C11Tester's race detector targets
// (e.g. reading a counter outside its critical section). It conflicts
// with every concurrent write by another thread, atomic or not; such a
// pair is reported as a FailMixedRace. Like Plain accesses it is not a
// scheduling point.
func (a *Atomic) RawLoad(t *Thread) memmodel.Value {
	return t.sys.doRawLoad(t, a.loc)
}

// RawStore performs a *non-atomic* store to an atomic location. It
// conflicts with every concurrent access by another thread (atomic or
// not, read or write); the value joins the modification order so later
// atomic loads observe it.
func (a *Atomic) RawStore(t *Thread, v memmodel.Value) {
	t.sys.doRawStore(t, a.loc, v)
}

// Fence issues a stand-alone memory fence with the given order on behalf
// of the calling thread.
func Fence(t *Thread, ord memmodel.MemOrder) {
	ord, site := ord.Split()
	t.schedulePoint(pendSig{class: sigFence, loc: -1, sc: ord.IsSeqCst()})
	t.sys.doFence(t, ord, site)
}

// Load performs a non-atomic load. It returns the value of the
// happens-before-latest store; a concurrent conflicting access is
// reported as a data race (built-in check).
func (p *Plain) Load(t *Thread) memmodel.Value {
	return t.sys.doPlainLoad(t, p.loc)
}

// Store performs a non-atomic store (race-detected).
func (p *Plain) Store(t *Thread, v memmodel.Value) {
	t.sys.doPlainStore(t, p.loc, v)
}

// Mutex is a simulated mutex with C/C++11 acquire/release semantics:
// Unlock releases the thread's clock, Lock acquires the last unlocker's.
type Mutex struct {
	sys   *System
	id    int
	name  string
	owner int
	clock *memmodel.ClockVector

	// Canonical identity, acquisition-order stream and cached entry for
	// the reduction fingerprint (reduce.go).
	fpObj
}

// Name returns the mutex's debug name.
func (m *Mutex) Name() string { return m.name }

// Lock blocks until the mutex is free, then acquires it.
func (m *Mutex) Lock(t *Thread) {
	t.pendSig = pendSig{class: sigMutex, loc: m.id, write: true}
	if t.skipNextPark && m.owner == -1 {
		t.skipNextPark = false
	} else {
		t.skipNextPark = false
		t.state = tsLock
		t.waitMutex = m
		t.park()
		t.waitMutex = nil
	}
	if m.owner != -1 {
		t.sys.failf(FailAPIMisuse, "mutex %s granted while held by T%d", m.name, m.owner)
	}
	m.owner = t.id
	t.sys.stepCount++
	t.tseq++
	t.clock.Set(t.id, t.tseq)
	if t.clock.Merge(m.clock) {
		t.clockEpoch++
	}
	t.sys.record(t, memmodel.KindLock, memmodel.Acquire, 0, nil, 0)
	t.sys.fpMutexOp(m, fpOpLock, t, 1)
	t.spinClear()
	t.sys.sleep.wake(pendSig{class: sigMutex, loc: m.id, write: true})
}

// TryLock acquires the mutex if it is free and reports whether it did.
func (m *Mutex) TryLock(t *Thread) bool {
	t.schedulePoint(pendSig{class: sigMutex, loc: m.id, write: true})
	if m.owner != -1 {
		t.sys.stepCount++
		t.tseq++
		t.clock.Set(t.id, t.tseq)
		t.sys.record(t, memmodel.KindLock, memmodel.Relaxed, 0, nil, 0)
		t.sys.fpMutexOp(m, fpOpTryLock, t, 0)
		t.spinClear()
		return false
	}
	m.owner = t.id
	t.sys.stepCount++
	t.tseq++
	t.clock.Set(t.id, t.tseq)
	if t.clock.Merge(m.clock) {
		t.clockEpoch++
	}
	t.sys.record(t, memmodel.KindLock, memmodel.Acquire, 0, nil, 0)
	t.sys.fpMutexOp(m, fpOpTryLock, t, 1)
	t.spinClear()
	t.sys.sleep.wake(pendSig{class: sigMutex, loc: m.id, write: true})
	return true
}

// Unlock releases the mutex. Unlocking a mutex the thread does not hold is
// an API-misuse failure.
func (m *Mutex) Unlock(t *Thread) {
	t.schedulePoint(pendSig{class: sigMutex, loc: m.id, write: true})
	if m.owner != t.id {
		t.sys.failf(FailAPIMisuse, "T%d unlocks mutex %s held by T%d", t.id, m.name, m.owner)
	}
	t.sys.stepCount++
	t.tseq++
	t.clock.Set(t.id, t.tseq)
	if t.sys.cfg.FastMode && m.clock != nil {
		t.sys.freeClock(m.clock) // fast-mode snapshots are owned copies
	}
	m.clock = t.sys.snap(t.clock)
	m.owner = -1
	t.sys.storeEpoch++ // an unlock can unblock spinners and lock-waiters
	t.sys.record(t, memmodel.KindUnlock, memmodel.Release, 0, nil, 0)
	t.sys.fpMutexOp(m, fpOpUnlock, t, 0)
	t.spinClear()
	t.sys.sleep.wake(pendSig{class: sigMutex, loc: m.id, write: true})
}
