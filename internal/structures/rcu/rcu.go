// Package rcu is a user-level read-copy-update implementation in the
// style of Desnoyers et al. [24], ported from the AUTO MO benchmarks.
//
// Readers bump a reader counter, fence, and read the current generation
// through the generation pointer; writers publish a new generation, fence,
// and wait for the reader counter to drain before *reclaiming* the old
// generation (poisoning its plain payload). The seq_cst fences implement
// the grace-period handshake: either the writer's fence observes the
// reader (and waits for it), or the reader is guaranteed to see the new
// generation. Weakening any link lets the reclamation write race with a
// reader still inside the old generation — the data-race detections the
// paper reports for all three of its RCU injections.
package rcu

import (
	"repro/internal/checker"
	"repro/internal/core"
	"repro/internal/memmodel"
	"repro/internal/seqds"
)

// Poison is the value written into a reclaimed generation.
const Poison = ^memmodel.Value(0)

// Memory-order site names.
const (
	SiteLockFAdd    = "read_lock_fadd"
	SiteLockFence   = "read_lock_fence"
	SiteLoadPtr     = "read_load_ptr"
	SiteUnlockFSub  = "read_unlock_fsub"
	SiteStorePtr    = "write_store_ptr"
	SiteWriteFence  = "write_fence"
	SiteSyncLoadCnt = "sync_load_readers"
)

// Site handles: each site's index in sites.
const (
	siteLockFAdd memmodel.SiteID = iota + 1
	siteLockFence
	siteLoadPtr
	siteUnlockFSub
	siteStorePtr
	siteWriteFence
	siteSyncLoadCnt
)

// sites declares the memory-order sites; DefaultOrders documents their
// default orders.
var sites = memmodel.NewSiteList("rcu", []memmodel.Site{
	siteLockFAdd:    {Name: SiteLockFAdd, Class: memmodel.OpRMW, Default: memmodel.Relaxed},
	siteLockFence:   {Name: SiteLockFence, Class: memmodel.OpFence, Default: memmodel.SeqCst},
	siteLoadPtr:     {Name: SiteLoadPtr, Class: memmodel.OpLoad, Default: memmodel.Acquire},
	siteUnlockFSub:  {Name: SiteUnlockFSub, Class: memmodel.OpRMW, Default: memmodel.Release},
	siteStorePtr:    {Name: SiteStorePtr, Class: memmodel.OpStore, Default: memmodel.Release},
	siteWriteFence:  {Name: SiteWriteFence, Class: memmodel.OpFence, Default: memmodel.SeqCst},
	siteSyncLoadCnt: {Name: SiteSyncLoadCnt, Class: memmodel.OpLoad, Default: memmodel.Acquire},
})

// DefaultOrders returns the correct orders: relaxed counter RMWs ordered
// by seq_cst fences, acquire/release on the generation pointer, and an
// acquire on the grace-period counter poll.
func DefaultOrders() *memmodel.OrderTable { return sites.Table() }

// RCU is the simulated RCU-protected single-pointer structure.
type RCU struct {
	ord *memmodel.OrderTable
	mon *core.Monitor

	// Names built once in New: spec methods, and locations allocated
	// after New.
	readName, updateName, genName string

	ptr     *checker.Atomic
	readers *checker.Atomic
	gens    []*checker.Plain
}

// New builds an RCU cell whose generation 0 holds initial.
func New(t *checker.Thread, name string, ord *memmodel.OrderTable, initial memmodel.Value) *RCU {
	r := &RCU{
		readName:   name + ".read",
		updateName: name + ".update",
		genName:    name + ".gen",
		ord:        sites.Resolve(ord),
		mon:        core.Of(t),
		readers:    t.NewAtomicInit(name+".readers", 0),
	}
	r.gens = append(r.gens, t.NewPlainInit(name+".gen", initial))
	r.ptr = t.NewAtomicInit(name+".ptr", 0)
	return r
}

// Read is one full read-side critical section: rcu_read_lock, a
// dereference of the current generation, and rcu_read_unlock.
func (r *RCU) Read(t *checker.Thread) memmodel.Value {
	c := r.mon.Begin(t, r.readName)
	r.readers.FetchAdd(t, r.ord.Order(siteLockFAdd), 1)
	checker.Fence(t, r.ord.Order(siteLockFence))
	g := r.ptr.Load(t, r.ord.Order(siteLoadPtr))
	c.OPDefine(t, true) // the generation-pointer load
	v := r.gens[g].Load(t)
	r.readers.FetchSub(t, r.ord.Order(siteUnlockFSub), 1)
	c.End(t, v)
	return v
}

// Update publishes a new generation holding v, waits for a grace period,
// and reclaims the previous generation (the synchronize_rcu + free of the
// C original).
func (r *RCU) Update(t *checker.Thread, v memmodel.Value) {
	c := r.mon.Begin(t, r.updateName, v)
	old := memmodel.Value(len(r.gens) - 1)
	r.gens = append(r.gens, t.NewPlainInit(r.genName, v))
	r.ptr.Store(t, r.ord.Order(siteStorePtr), old+1)
	c.OPDefine(t, true) // the generation-pointer store
	checker.Fence(t, r.ord.Order(siteWriteFence))
	for r.readers.Load(t, r.ord.Order(siteSyncLoadCnt)) != 0 {
		t.Yield()
	}
	// Grace period over: reclaim the old generation. If a reader can
	// still be inside it, this is a data race (built-in check).
	r.gens[old].Store(t, Poison)
	c.EndVoid(t)
}

// Spec maps RCU to the paper's §2.2 non-deterministic register: a read
// may return the value of any write in some justifying prefix or of a
// concurrent write — but never a reclaimed (poisoned) or never-written
// value. initial must match the value passed to New.
func Spec(name string, initial memmodel.Value) *core.Spec {
	return &core.Spec{
		Name:     name,
		NewState: func() core.State { return seqds.NewRegister(initial) },
		Methods: map[string]*core.MethodSpec{
			name + ".update": {
				SideEffect: func(st core.State, c *core.Call) {
					st.(*seqds.Register).Write(c.Arg(0))
				},
			},
			name + ".read": {
				SideEffect: func(st core.State, c *core.Call) {
					c.SRet = st.(*seqds.Register).Read()
				},
				NeedsJustify: func(c *core.Call) bool { return true },
				JustifyPost: func(st core.State, c *core.Call, conc []*core.Call) bool {
					return c.SRet == c.Ret
				},
				JustifyConcurrent: func(c *core.Call, conc []*core.Call) bool {
					for _, w := range conc {
						if !w.HasRet && len(w.Args) == 1 && w.Arg(0) == c.Ret {
							return true
						}
					}
					return false
				},
			},
		},
	}
}
