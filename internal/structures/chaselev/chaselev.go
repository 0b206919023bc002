// Package chaselev is the bug-fixed C11 adaptation of the Chase-Lev
// work-stealing deque of Lê, Pop, Cohen and Zappa Nardelli [34], the
// paper's headline benchmark:
//
//   - the owner pushes and takes at the bottom,
//   - thieves steal from the top,
//   - seq_cst fences arbitrate the owner/thief race on the last element,
//   - push grows the circular array when full, publishing the new buffer
//     with a release store on the array pointer.
//
// Two findings of the paper live here. KnownBugOrders reproduces the bug
// CDSChecker found in the published version (the array publication was
// too weak, letting a concurrent steal read an uninitialized buffer
// slot). OverlyStrongOrders reproduces §6.4.3: the take-side seq_cst CAS
// on top can be relaxed without any specification violation — confirmed
// by the original authors.
package chaselev

import (
	"repro/internal/checker"
	"repro/internal/core"
	"repro/internal/memmodel"
	"repro/internal/seqds"
)

// Empty is returned by Take and Steal when nothing is available.
const Empty = ^memmodel.Value(0)

// Memory-order site names.
const (
	SitePushLoadTop  = "push_load_top"
	SitePushPublish  = "push_publish_array"
	SitePushFence    = "push_fence"
	SiteTakeFence    = "take_fence"
	SiteTakeCASTop   = "take_cas_top"
	SiteStealLoadTop = "steal_load_top"
	SiteStealFence   = "steal_fence"
	SiteStealLoadBot = "steal_load_bottom"
	SiteStealLoadArr = "steal_load_array"
	SiteStealCASTop  = "steal_cas_top"
)

// Site handles: each site's index in sites.
const (
	sitePushLoadTop memmodel.SiteID = iota + 1
	sitePushPublish
	sitePushFence
	siteTakeFence
	siteTakeCASTop
	siteStealLoadTop
	siteStealFence
	siteStealLoadBot
	siteStealLoadArr
	siteStealCASTop
)

// sites declares the memory-order sites; DefaultOrders documents their
// default orders.
var sites = memmodel.NewSiteList("chaselev", []memmodel.Site{
	sitePushLoadTop:  {Name: SitePushLoadTop, Class: memmodel.OpLoad, Default: memmodel.Acquire},
	sitePushPublish:  {Name: SitePushPublish, Class: memmodel.OpStore, Default: memmodel.Release},
	sitePushFence:    {Name: SitePushFence, Class: memmodel.OpFence, Default: memmodel.Release},
	siteTakeFence:    {Name: SiteTakeFence, Class: memmodel.OpFence, Default: memmodel.SeqCst},
	siteTakeCASTop:   {Name: SiteTakeCASTop, Class: memmodel.OpRMW, Default: memmodel.SeqCst},
	siteStealLoadTop: {Name: SiteStealLoadTop, Class: memmodel.OpLoad, Default: memmodel.Acquire},
	siteStealFence:   {Name: SiteStealFence, Class: memmodel.OpFence, Default: memmodel.SeqCst},
	siteStealLoadBot: {Name: SiteStealLoadBot, Class: memmodel.OpLoad, Default: memmodel.Acquire},
	siteStealLoadArr: {Name: SiteStealLoadArr, Class: memmodel.OpLoad, Default: memmodel.Acquire},
	siteStealCASTop:  {Name: SiteStealCASTop, Class: memmodel.OpRMW, Default: memmodel.SeqCst},
})

// DefaultOrders returns the bug-fixed orders of [34].
func DefaultOrders() *memmodel.OrderTable { return sites.Table() }

// KnownBugOrders reproduces the published bug CDSChecker found (§6.4.1):
// the resize publication is relaxed, so a racing steal can reach buffer
// slots whose contents were never made visible to it.
func KnownBugOrders() *memmodel.OrderTable {
	t := DefaultOrders()
	t.Set(SitePushPublish, memmodel.Relaxed)
	return t
}

// OverlyStrongOrders is the §6.4.3 configuration: the take-side CAS on
// top weakened all the way to relaxed, which the paper's authors and the
// deque's authors agree is still correct.
func OverlyStrongOrders() *memmodel.OrderTable {
	t := DefaultOrders()
	t.Set(SiteTakeCASTop, memmodel.Relaxed)
	return t
}

// array is one circular buffer generation.
type array struct {
	size  int
	cells []*checker.Atomic
}

// Deque is the simulated work-stealing deque.
type Deque struct {
	ord *memmodel.OrderTable
	mon *core.Monitor

	// Names built once in New: spec methods, and locations allocated
	// after New.
	pushName, takeName, stealName, cellName string
	// initCells pre-initializes fresh buffer slots (used by the known-bug
	// experiment to disable the uninitialized-load report, as the paper
	// does to surface the wrong-value specification violation instead).
	initCells bool

	top, bottom, arr *checker.Atomic
	arrays           []*array
}

// Option configures a Deque.
type Option func(*Deque)

// WithInitializedCells pre-initializes every buffer slot with zero, the
// paper's trick for turning the known bug's uninitialized load into a
// specification violation.
func WithInitializedCells() Option {
	return func(d *Deque) { d.initCells = true }
}

// New builds a deque with the given initial capacity.
func New(t *checker.Thread, name string, ord *memmodel.OrderTable, capacity int, opts ...Option) *Deque {
	d := &Deque{
		pushName:  name + ".push",
		takeName:  name + ".take",
		stealName: name + ".steal",
		cellName:  name + ".cell",
		ord:       sites.Resolve(ord),
		mon:       core.Of(t),
	}
	for _, o := range opts {
		o(d)
	}
	d.newArray(t, capacity, nil, 0, 0)
	d.top = t.NewAtomicInit(name+".top", 0)
	d.bottom = t.NewAtomicInit(name+".bottom", 0)
	d.arr = t.NewAtomicInit(name+".array", 0)
	return d
}

// newArray allocates a buffer generation, copying [top, bottom) from old.
func (d *Deque) newArray(t *checker.Thread, size int, old *array, top, bottom memmodel.Value) memmodel.Value {
	h := memmodel.Value(len(d.arrays))
	a := &array{size: size}
	d.arrays = append(d.arrays, a)
	for i := 0; i < size; i++ {
		if d.initCells {
			a.cells = append(a.cells, t.NewAtomicInit(d.cellName, 0))
		} else {
			a.cells = append(a.cells, t.NewAtomic(d.cellName))
		}
	}
	for i := top; i != bottom; i++ {
		v := old.cells[int(i)%old.size].Load(t, memmodel.Relaxed)
		a.cells[int(i)%size].Store(t, memmodel.Relaxed, v)
	}
	return h
}

// Push adds x at the bottom (owner only).
func (d *Deque) Push(t *checker.Thread, x memmodel.Value) {
	c := d.mon.Begin(t, d.pushName, x)
	b := d.bottom.Load(t, memmodel.Relaxed)
	top := d.top.Load(t, d.ord.Order(sitePushLoadTop))
	ai := d.arr.Load(t, memmodel.Relaxed)
	a := d.arrays[ai]
	if int(b-top) > a.size-1 {
		// Full: grow and publish the new buffer.
		ai = d.newArray(t, a.size*2, a, top, b)
		a = d.arrays[ai]
		d.arr.Store(t, d.ord.Order(sitePushPublish), ai)
	}
	a.cells[int(b)%a.size].Store(t, memmodel.Relaxed, x)
	c.OPDefine(t, true) // the cell store (per §6.1)
	checker.Fence(t, d.ord.Order(sitePushFence))
	d.bottom.Store(t, memmodel.Relaxed, b+1)
	c.EndVoid(t)
}

// Take removes and returns the bottom element (owner only), or Empty.
func (d *Deque) Take(t *checker.Thread) memmodel.Value {
	c := d.mon.Begin(t, d.takeName)
	b := d.bottom.Load(t, memmodel.Relaxed) - 1
	ai := d.arr.Load(t, memmodel.Relaxed)
	a := d.arrays[ai]
	d.bottom.Store(t, memmodel.Relaxed, b)
	checker.Fence(t, d.ord.Order(siteTakeFence))
	top := d.top.Load(t, memmodel.Relaxed)
	var x memmodel.Value
	if int64(top) <= int64(b) {
		x = a.cells[int(b)%a.size].Load(t, memmodel.Relaxed)
		if top == b {
			// Last element: race the thieves.
			if _, ok := d.top.CAS(t, top, top+1, d.ord.Order(siteTakeCASTop), memmodel.Relaxed); !ok {
				x = Empty
			}
			d.bottom.Store(t, memmodel.Relaxed, b+1)
		}
	} else {
		x = Empty
		d.bottom.Store(t, memmodel.Relaxed, b+1)
	}
	c.OPClearDefine(t, true) // the last operation (per §6.1)
	c.End(t, x)
	return x
}

// Steal removes and returns the top element (any thread), or Empty.
func (d *Deque) Steal(t *checker.Thread) memmodel.Value {
	c := d.mon.Begin(t, d.stealName)
	top := d.top.Load(t, d.ord.Order(siteStealLoadTop))
	checker.Fence(t, d.ord.Order(siteStealFence))
	b := d.bottom.Load(t, d.ord.Order(siteStealLoadBot))
	if int64(top) < int64(b) {
		ai := d.arr.Load(t, d.ord.Order(siteStealLoadArr))
		a := d.arrays[ai]
		x := a.cells[int(top)%a.size].Load(t, memmodel.Relaxed)
		c.OPClearDefine(t, true) // the cell load (per §6.1)
		if _, ok := d.top.CAS(t, top, top+1, d.ord.Order(siteStealCASTop), memmodel.Relaxed); !ok {
			c.End(t, Empty)
			return Empty
		}
		c.End(t, x)
		return x
	}
	c.OPClearDefine(t, true) // the bottom load that saw emptiness
	c.End(t, Empty)
	return Empty
}

// Spec maps the deque to an ordered list (paper §6.1): push appends at
// the back, take pops the back, steal pops the front; both pops may
// spuriously return Empty. A failed take whose justifying prefixes all
// leave the list non-empty is justified only by concurrent steals
// covering every remaining element — the tightening the paper describes.
func Spec(name string) *core.Spec {
	popCheck := func(back bool) func(st core.State, c *core.Call) {
		return func(st core.State, c *core.Call) {
			l := st.(*seqds.IntList)
			var v memmodel.Value
			var ok bool
			if back {
				v, ok = l.Back()
			} else {
				v, ok = l.Front()
			}
			if !ok {
				c.SRet = Empty
			} else {
				c.SRet = v
			}
			if ok && c.Ret != Empty {
				if back {
					l.PopBack()
				} else {
					l.PopFront()
				}
			}
		}
	}
	stealsCover := func(st core.State, conc []*core.Call) bool {
		l := st.(*seqds.IntList)
		for _, item := range l.Items() {
			covered := false
			for _, m := range conc {
				if m.HasRet && m.Ret == item {
					covered = true
					break
				}
			}
			if !covered {
				return false
			}
		}
		return true
	}
	return &core.Spec{
		Name:     name,
		NewState: func() core.State { return seqds.NewIntList() },
		Methods: map[string]*core.MethodSpec{
			name + ".push": {
				SideEffect: func(st core.State, c *core.Call) {
					st.(*seqds.IntList).PushBack(c.Arg(0))
				},
			},
			name + ".take": {
				SideEffect: popCheck(true),
				Post: func(st core.State, c *core.Call) bool {
					return c.Ret == Empty || c.Ret == c.SRet
				},
				NeedsJustify: func(c *core.Call) bool { return c.Ret == Empty },
				JustifyPost: func(st core.State, c *core.Call, conc []*core.Call) bool {
					return c.SRet == Empty || stealsCover(st, conc)
				},
			},
			name + ".steal": {
				SideEffect: popCheck(false),
				Post: func(st core.State, c *core.Call) bool {
					return c.Ret == Empty || c.Ret == c.SRet
				},
				NeedsJustify: func(c *core.Call) bool { return c.Ret == Empty },
				JustifyPost: func(st core.State, c *core.Call, conc []*core.Call) bool {
					return c.SRet == Empty || stealsCover(st, conc)
				},
			},
		},
		Admissibility: []core.AdmitRule{
			// take and push must come from the owner thread, hence
			// always ordered (§6.1).
			{M1: name + ".take", M2: name + ".push",
				MustOrder: func(a, b *core.Call) bool { return true }},
		},
	}
}
