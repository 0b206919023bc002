// Package ticketlock is the ticket lock [42] ported from the AUTO MO
// benchmarks (paper §6.1): lock grabs a ticket with a *relaxed* fetch_add
// on curTicket and spins until nowServing equals it; unlock advances
// nowServing.
//
// As the paper highlights, the relaxed RMW on curTicket provides no
// synchronization — the lock synchronizes on the update/read of
// nowServing, so the ordering points are the successful nowServing load
// (lock) and the nowServing store (unlock).
package ticketlock

import (
	"repro/internal/checker"
	"repro/internal/core"
	"repro/internal/memmodel"
	"repro/internal/seqds"
)

// Memory-order site names.
const (
	SiteTakeTicket   = "lock_fadd_ticket"
	SiteLoadServing  = "lock_load_serving"
	SiteStoreServing = "unlock_store_serving"
)

// Site handles: each site's index in sites.
const (
	siteTakeTicket memmodel.SiteID = iota + 1
	siteLoadServing
	siteStoreServing
)

// sites declares the memory-order sites; DefaultOrders documents their
// default orders.
var sites = memmodel.NewSiteList("ticketlock", []memmodel.Site{
	siteTakeTicket:   {Name: SiteTakeTicket, Class: memmodel.OpRMW, Default: memmodel.Relaxed},
	siteLoadServing:  {Name: SiteLoadServing, Class: memmodel.OpLoad, Default: memmodel.Acquire},
	siteStoreServing: {Name: SiteStoreServing, Class: memmodel.OpStore, Default: memmodel.Release},
})

// DefaultOrders returns the correct orders. The ticket fetch_add is
// relaxed by design (terminal, not weakenable), leaving two injectable
// sites — matching the two injections Figure 8 reports for this
// benchmark.
func DefaultOrders() *memmodel.OrderTable { return sites.Table() }

// Lock is the simulated ticket lock.
type Lock struct {
	ord *memmodel.OrderTable
	mon *core.Monitor

	// Spec method names, built once in New.
	lockName, unlockName string

	curTicket  *checker.Atomic
	nowServing *checker.Atomic

	// ticket is the per-thread ticket held between Lock and Unlock
	// (index by thread id; a thread holds at most one ticket).
	ticket map[int]memmodel.Value
}

// New builds an unlocked ticket lock.
func New(t *checker.Thread, name string, ord *memmodel.OrderTable) *Lock {
	return &Lock{
		lockName:   name + ".lock",
		unlockName: name + ".unlock",
		ord:        sites.Resolve(ord),
		mon:        core.Of(t),
		curTicket:  t.NewAtomicInit(name+".curTicket", 0),
		nowServing: t.NewAtomicInit(name+".nowServing", 0),
		ticket:     map[int]memmodel.Value{},
	}
}

// Lock takes a ticket and spins until it is served.
func (l *Lock) Lock(t *checker.Thread) {
	c := l.mon.Begin(t, l.lockName)
	ticket := l.curTicket.FetchAdd(t, l.ord.Order(siteTakeTicket), 1)
	l.ticket[t.ID()] = ticket
	for {
		serving := l.nowServing.Load(t, l.ord.Order(siteLoadServing))
		c.OPClearDefine(t, true) // the successful nowServing read
		if serving == ticket {
			c.EndVoid(t)
			return
		}
		t.Yield()
	}
}

// Unlock serves the next ticket.
func (l *Lock) Unlock(t *checker.Thread) {
	c := l.mon.Begin(t, l.unlockName)
	l.nowServing.Store(t, l.ord.Order(siteStoreServing), l.ticket[t.ID()]+1)
	c.OPDefine(t, true) // the nowServing store
	c.EndVoid(t)
}

// Spec maps the ticket lock to a sequential lock: lock requires the lock
// to be free, unlock requires the caller to hold it. Any execution in
// which the happens-before chain through nowServing is broken yields a
// history with two overlapping critical sections, failing the lock
// precondition.
func Spec(name string) *core.Spec {
	return &core.Spec{
		Name:     name,
		NewState: func() core.State { return seqds.NewLockState() },
		Methods: map[string]*core.MethodSpec{
			name + ".lock": {
				Pre: func(st core.State, c *core.Call) bool {
					return !st.(*seqds.LockState).Locked()
				},
				SideEffect: func(st core.State, c *core.Call) {
					st.(*seqds.LockState).Acquire(memmodel.Value(c.Thread))
				},
			},
			name + ".unlock": {
				Pre: func(st core.State, c *core.Call) bool {
					l := st.(*seqds.LockState)
					return l.Locked() && l.Owner() == memmodel.Value(c.Thread)
				},
				SideEffect: func(st core.State, c *core.Call) {
					st.(*seqds.LockState).Release(memmodel.Value(c.Thread))
				},
			},
		},
	}
}
