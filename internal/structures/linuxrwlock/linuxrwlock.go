// Package linuxrwlock is the port of the Linux kernel's reader-writer
// spinlock from the CDSChecker benchmark suite: a single atomic counter
// starts at Bias; readers subtract 1, writers subtract the whole Bias,
// and an unsuccessful attempt undoes its subtraction and spins.
//
// write_trylock has the transient side effect the paper discusses in
// §6.1: it subtracts Bias before knowing whether it can keep it, so two
// racing trylocks can both fail even though the lock was free. The
// specification therefore allows write_trylock to spuriously fail, justified
// by the existence of concurrent calls — the exact refinement step the
// paper reports making after CDSSpec flagged the first version of the
// spec.
package linuxrwlock

import (
	"repro/internal/checker"
	"repro/internal/core"
	"repro/internal/memmodel"
	"repro/internal/seqds"
)

// Bias is the write-lock bias (small stand-in for Linux's 0x01000000;
// anything larger than the maximum number of simultaneous readers works).
const Bias memmodel.Value = 64

// Memory-order site names.
const (
	SiteReadLockFSub    = "read_lock_fsub"
	SiteReadUndoFAdd    = "read_lock_undo"
	SiteReadSpinLoad    = "read_lock_spin"
	SiteReadUnlockFAdd  = "read_unlock_fadd"
	SiteWriteLockFSub   = "write_lock_fsub"
	SiteWriteUndoFAdd   = "write_lock_undo"
	SiteWriteSpinLoad   = "write_lock_spin"
	SiteWriteUnlockFAdd = "write_unlock_fadd"
	SiteReadTryFSub     = "read_trylock_fsub"
	SiteWriteTryFSub    = "write_trylock_fsub"
)

// Site handles: each site's index in sites.
const (
	siteReadLockFSub memmodel.SiteID = iota + 1
	siteReadUndoFAdd
	siteReadSpinLoad
	siteReadUnlockFAdd
	siteWriteLockFSub
	siteWriteUndoFAdd
	siteWriteSpinLoad
	siteWriteUnlockFAdd
	siteReadTryFSub
	siteWriteTryFSub
)

// sites declares the memory-order sites; DefaultOrders documents their
// default orders.
var sites = memmodel.NewSiteList("linuxrwlock", []memmodel.Site{
	siteReadLockFSub:    {Name: SiteReadLockFSub, Class: memmodel.OpRMW, Default: memmodel.Acquire},
	siteReadUndoFAdd:    {Name: SiteReadUndoFAdd, Class: memmodel.OpRMW, Default: memmodel.Relaxed},
	siteReadSpinLoad:    {Name: SiteReadSpinLoad, Class: memmodel.OpLoad, Default: memmodel.Relaxed},
	siteReadUnlockFAdd:  {Name: SiteReadUnlockFAdd, Class: memmodel.OpRMW, Default: memmodel.Release},
	siteWriteLockFSub:   {Name: SiteWriteLockFSub, Class: memmodel.OpRMW, Default: memmodel.Acquire},
	siteWriteUndoFAdd:   {Name: SiteWriteUndoFAdd, Class: memmodel.OpRMW, Default: memmodel.Relaxed},
	siteWriteSpinLoad:   {Name: SiteWriteSpinLoad, Class: memmodel.OpLoad, Default: memmodel.Relaxed},
	siteWriteUnlockFAdd: {Name: SiteWriteUnlockFAdd, Class: memmodel.OpRMW, Default: memmodel.Release},
	siteReadTryFSub:     {Name: SiteReadTryFSub, Class: memmodel.OpRMW, Default: memmodel.Acquire},
	siteWriteTryFSub:    {Name: SiteWriteTryFSub, Class: memmodel.OpRMW, Default: memmodel.Acquire},
})

// DefaultOrders returns the correct orders from the CDSChecker benchmark:
// acquire on the lock-taking RMWs, release on the unlocks, relaxed on the
// undo adds and the spin reads.
func DefaultOrders() *memmodel.OrderTable { return sites.Table() }

// RWLock is the simulated Linux reader-writer spinlock.
type RWLock struct {
	ord  *memmodel.OrderTable
	mon  *core.Monitor
	lock *checker.Atomic

	// Spec method names, built once in New.
	readLockName, readUnlockName, readTrylockName    string
	writeLockName, writeUnlockName, writeTrylockName string
}

// New builds a free lock (counter at Bias).
func New(t *checker.Thread, name string, ord *memmodel.OrderTable) *RWLock {
	return &RWLock{
		readLockName:     name + ".read_lock",
		readUnlockName:   name + ".read_unlock",
		writeLockName:    name + ".write_lock",
		writeUnlockName:  name + ".write_unlock",
		readTrylockName:  name + ".read_trylock",
		writeTrylockName: name + ".write_trylock",
		ord:              sites.Resolve(ord),
		mon:              core.Of(t),
		lock:             t.NewAtomicInit(name+".lock", Bias),
	}
}

// ReadLock blocks until a read lock is held.
func (l *RWLock) ReadLock(t *checker.Thread) {
	c := l.mon.Begin(t, l.readLockName)
	for {
		prior := l.lock.FetchSub(t, l.ord.Order(siteReadLockFSub), 1)
		c.OPClearDefine(t, true) // the successful subtract
		if int64(prior) > 0 {
			c.EndVoid(t)
			return
		}
		// Undo and wait for the writer to leave.
		l.lock.FetchAdd(t, l.ord.Order(siteReadUndoFAdd), 1)
		for {
			v := l.lock.Load(t, l.ord.Order(siteReadSpinLoad))
			if int64(v) > 0 {
				break
			}
			t.Yield()
		}
	}
}

// ReadUnlock releases a read lock.
func (l *RWLock) ReadUnlock(t *checker.Thread) {
	c := l.mon.Begin(t, l.readUnlockName)
	l.lock.FetchAdd(t, l.ord.Order(siteReadUnlockFAdd), 1)
	c.OPDefine(t, true)
	c.EndVoid(t)
}

// WriteLock blocks until the exclusive lock is held.
func (l *RWLock) WriteLock(t *checker.Thread) {
	c := l.mon.Begin(t, l.writeLockName)
	for {
		prior := l.lock.FetchSub(t, l.ord.Order(siteWriteLockFSub), Bias)
		c.OPClearDefine(t, true)
		if prior == Bias {
			c.EndVoid(t)
			return
		}
		l.lock.FetchAdd(t, l.ord.Order(siteWriteUndoFAdd), Bias)
		for {
			v := l.lock.Load(t, l.ord.Order(siteWriteSpinLoad))
			if v == Bias {
				break
			}
			t.Yield()
		}
	}
}

// WriteUnlock releases the exclusive lock.
func (l *RWLock) WriteUnlock(t *checker.Thread) {
	c := l.mon.Begin(t, l.writeUnlockName)
	l.lock.FetchAdd(t, l.ord.Order(siteWriteUnlockFAdd), Bias)
	c.OPDefine(t, true)
	c.EndVoid(t)
}

// ReadTryLock attempts a read lock without blocking; 1 = acquired.
func (l *RWLock) ReadTryLock(t *checker.Thread) memmodel.Value {
	c := l.mon.Begin(t, l.readTrylockName)
	prior := l.lock.FetchSub(t, l.ord.Order(siteReadTryFSub), 1)
	c.OPDefine(t, true)
	if int64(prior) > 0 {
		c.End(t, 1)
		return 1
	}
	l.lock.FetchAdd(t, l.ord.Order(siteReadUndoFAdd), 1)
	c.End(t, 0)
	return 0
}

// WriteTryLock attempts the exclusive lock without blocking; 1 = acquired.
// It has the §6.1 transient side effect: the bias is subtracted and
// restored on failure, so concurrent attempts can make each other fail.
func (l *RWLock) WriteTryLock(t *checker.Thread) memmodel.Value {
	c := l.mon.Begin(t, l.writeTrylockName)
	prior := l.lock.FetchSub(t, l.ord.Order(siteWriteTryFSub), Bias)
	c.OPDefine(t, true)
	if prior == Bias {
		c.End(t, 1)
		return 1
	}
	l.lock.FetchAdd(t, l.ord.Order(siteWriteUndoFAdd), Bias)
	c.End(t, 0)
	return 0
}

// Spec maps the lock to a sequential reader-writer lock state. Trylocks
// may spuriously fail; the failure is justified by concurrent calls on
// the same lock (their transient side effects can make a free lock look
// busy) or by a justifying prefix in which the lock really is busy.
func Spec(name string) *core.Spec {
	return &core.Spec{
		Name:     name,
		NewState: func() core.State { return seqds.NewRWLockState() },
		Methods: map[string]*core.MethodSpec{
			name + ".read_lock": {
				Pre: func(st core.State, c *core.Call) bool {
					return !st.(*seqds.RWLockState).Writer()
				},
				SideEffect: func(st core.State, c *core.Call) {
					st.(*seqds.RWLockState).AcquireRead()
				},
			},
			name + ".read_unlock": {
				Pre: func(st core.State, c *core.Call) bool {
					return st.(*seqds.RWLockState).Readers() > 0
				},
				SideEffect: func(st core.State, c *core.Call) {
					st.(*seqds.RWLockState).ReleaseRead()
				},
			},
			name + ".write_lock": {
				Pre: func(st core.State, c *core.Call) bool {
					s := st.(*seqds.RWLockState)
					return !s.Writer() && s.Readers() == 0
				},
				SideEffect: func(st core.State, c *core.Call) {
					st.(*seqds.RWLockState).AcquireWrite()
				},
			},
			name + ".write_unlock": {
				Pre: func(st core.State, c *core.Call) bool {
					return st.(*seqds.RWLockState).Writer()
				},
				SideEffect: func(st core.State, c *core.Call) {
					st.(*seqds.RWLockState).ReleaseWrite()
				},
			},
			name + ".read_trylock": {
				SideEffect: func(st core.State, c *core.Call) {
					if c.Ret == 1 {
						st.(*seqds.RWLockState).AcquireRead()
					}
				},
				Post: func(st core.State, c *core.Call) bool {
					if c.Ret == 1 {
						// The acquire must have been legal.
						return st.(*seqds.RWLockState).Readers() > 0
					}
					return true // failures may be spurious
				},
				Pre: func(st core.State, c *core.Call) bool {
					return c.Ret == 0 || !st.(*seqds.RWLockState).Writer()
				},
				NeedsJustify: func(c *core.Call) bool { return c.Ret == 0 },
				JustifyPost: func(st core.State, c *core.Call, conc []*core.Call) bool {
					return st.(*seqds.RWLockState).Writer()
				},
				JustifyConcurrent: func(c *core.Call, conc []*core.Call) bool {
					return len(conc) > 0 // a racing call's transient bias
				},
			},
			name + ".write_trylock": {
				SideEffect: func(st core.State, c *core.Call) {
					if c.Ret == 1 {
						st.(*seqds.RWLockState).AcquireWrite()
					}
				},
				Pre: func(st core.State, c *core.Call) bool {
					if c.Ret != 1 {
						return true
					}
					s := st.(*seqds.RWLockState)
					return !s.Writer() && s.Readers() == 0
				},
				NeedsJustify: func(c *core.Call) bool { return c.Ret == 0 },
				JustifyPost: func(st core.State, c *core.Call, conc []*core.Call) bool {
					s := st.(*seqds.RWLockState)
					return s.Writer() || s.Readers() > 0
				},
				JustifyConcurrent: func(c *core.Call, conc []*core.Call) bool {
					return len(conc) > 0
				},
			},
		},
	}
}
