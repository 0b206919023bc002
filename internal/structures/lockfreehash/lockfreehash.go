// Package lockfreehash is the concurrent hashtable ported from Doug Lea's
// Java ConcurrentHashMap (paper §6.1): an open-addressed array of atomic
// key/value slots divided into segments protected by locks. put always
// takes its segment's lock; get first probes lock-free with seq_cst loads
// — a hit forms an sc edge with the put's seq_cst value store — and only
// falls back to the lock when the first search misses.
//
// The ordering points are exactly the ones the paper describes: the
// seq_cst value store/load when get hits lock-free, and the segment
// lock/unlock otherwise.
package lockfreehash

import (
	"repro/internal/checker"
	"repro/internal/core"
	"repro/internal/memmodel"
	"repro/internal/seqds"
)

// NotFound is returned by Get for absent keys (keys and values must be
// nonzero).
const NotFound = memmodel.Value(0)

// Memory-order site names.
const (
	SitePutStoreKey = "put_store_key"
	SitePutStoreVal = "put_store_value"
	SiteGetLoadKey  = "get_load_key"
	SiteGetLoadVal  = "get_load_value"
	SiteGet2LoadKey = "get2_load_key"
	SiteGet2LoadVal = "get2_load_value"
)

// Site handles: each site's index in sites.
const (
	sitePutStoreKey memmodel.SiteID = iota + 1
	sitePutStoreVal
	siteGetLoadKey
	siteGetLoadVal
	siteGet2LoadKey
	siteGet2LoadVal
)

// sites declares the memory-order sites; DefaultOrders documents their
// default orders.
var sites = memmodel.NewSiteList("lockfreehash", []memmodel.Site{
	sitePutStoreKey: {Name: SitePutStoreKey, Class: memmodel.OpStore, Default: memmodel.SeqCst},
	sitePutStoreVal: {Name: SitePutStoreVal, Class: memmodel.OpStore, Default: memmodel.SeqCst},
	siteGetLoadKey:  {Name: SiteGetLoadKey, Class: memmodel.OpLoad, Default: memmodel.SeqCst},
	siteGetLoadVal:  {Name: SiteGetLoadVal, Class: memmodel.OpLoad, Default: memmodel.SeqCst},
	siteGet2LoadKey: {Name: SiteGet2LoadKey, Class: memmodel.OpLoad, Default: memmodel.Relaxed},
	siteGet2LoadVal: {Name: SiteGet2LoadVal, Class: memmodel.OpLoad, Default: memmodel.Relaxed},
})

// DefaultOrders returns the correct orders: seq_cst on the lock-free
// fast path (put's stores and get's first search); the under-lock second
// search is relaxed because the segment mutex already orders it.
func DefaultOrders() *memmodel.OrderTable { return sites.Table() }

type slot struct {
	key, val *checker.Atomic
}

// Table is the simulated hashtable with one segment per bucket pair.
type Table struct {
	ord *memmodel.OrderTable
	mon *core.Monitor

	// Spec method names, built once in New.
	putName, getName string

	slots []slot
	locks []*checker.Mutex
}

// New builds a table with n slots (n per segment lock of 2).
func New(t *checker.Thread, name string, ord *memmodel.OrderTable, n int) *Table {
	tbl := &Table{
		putName: name + ".put",
		getName: name + ".get",
		ord:     sites.Resolve(ord),
		mon:     core.Of(t),
	}
	keyName, valName, segName := name+".key", name+".val", name+".seg"
	for i := 0; i < n; i++ {
		tbl.slots = append(tbl.slots, slot{
			key: t.NewAtomicInit(keyName, 0),
			val: t.NewAtomicInit(valName, 0),
		})
	}
	nseg := (n + 1) / 2
	for i := 0; i < nseg; i++ {
		tbl.locks = append(tbl.locks, t.NewMutex(segName))
	}
	return tbl
}

func (tbl *Table) segment(key memmodel.Value) *checker.Mutex {
	return tbl.locks[int(key)%len(tbl.slots)/2]
}

// Put inserts or updates key (nonzero) with val under the segment lock.
func (tbl *Table) Put(t *checker.Thread, key, val memmodel.Value) {
	c := tbl.mon.Begin(t, tbl.putName, key, val)
	m := tbl.segment(key)
	m.Lock(t)
	start := int(key) % len(tbl.slots)
	for i := 0; i < len(tbl.slots); i++ {
		s := tbl.slots[(start+i)%len(tbl.slots)]
		k := s.key.Load(t, memmodel.Acquire)
		if k == 0 {
			s.key.Store(t, tbl.ord.Order(sitePutStoreKey), key)
			k = key
		}
		if k == key {
			s.val.Store(t, tbl.ord.Order(sitePutStoreVal), val)
			c.OPDefine(t, true) // the seq_cst value store
			m.Unlock(t)
			c.OPDefine(t, true) // the segment unlock (lock-path ordering)
			c.EndVoid(t)
			return
		}
	}
	m.Unlock(t)
	t.Assert(false, "hashtable full")
}

// Get returns the value for key, or NotFound. It probes lock-free first;
// on a miss it takes the segment lock and searches again.
func (tbl *Table) Get(t *checker.Thread, key memmodel.Value) memmodel.Value {
	c := tbl.mon.Begin(t, tbl.getName, key)
	start := int(key) % len(tbl.slots)
	for i := 0; i < len(tbl.slots); i++ {
		s := tbl.slots[(start+i)%len(tbl.slots)]
		k := s.key.Load(t, tbl.ord.Order(siteGetLoadKey))
		if k == key {
			v := s.val.Load(t, tbl.ord.Order(siteGetLoadVal))
			if v != 0 {
				c.OPDefine(t, true) // the seq_cst value load (sc edge to put)
				c.End(t, v)
				return v
			}
		}
		if k == 0 {
			break
		}
	}
	// First search missed: lock and search again.
	m := tbl.segment(key)
	m.Lock(t)
	c.OPDefine(t, true) // the segment lock (lock-path ordering)
	var v memmodel.Value
	for i := 0; i < len(tbl.slots); i++ {
		s := tbl.slots[(start+i)%len(tbl.slots)]
		k := s.key.Load(t, tbl.ord.Order(siteGet2LoadKey))
		if k == key {
			v = s.val.Load(t, tbl.ord.Order(siteGet2LoadVal))
			break
		}
		if k == 0 {
			break
		}
	}
	m.Unlock(t)
	c.End(t, v)
	return v
}

// Spec maps the table to a deterministic sequential hashmap — the paper
// notes the seq_cst fast path makes the deterministic map spec apply
// directly.
func Spec(name string) *core.Spec {
	return &core.Spec{
		Name:     name,
		NewState: func() core.State { return seqds.NewIntMap() },
		Methods: map[string]*core.MethodSpec{
			name + ".put": {
				SideEffect: func(st core.State, c *core.Call) {
					st.(*seqds.IntMap).Put(c.Arg(0), c.Arg(1))
				},
			},
			name + ".get": {
				SideEffect: func(st core.State, c *core.Call) {
					v, ok := st.(*seqds.IntMap).Get(c.Arg(0))
					if !ok {
						v = NotFound
					}
					c.SRet = v
				},
				Post: func(st core.State, c *core.Call) bool {
					return c.Ret == c.SRet
				},
			},
		},
	}
}
