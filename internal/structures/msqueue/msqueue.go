// Package msqueue is the Michael & Scott non-blocking queue [38] from the
// CDSChecker benchmark suite, ported to the simulated C/C++11 atomics.
//
// Nodes are allocated dynamically by enqueuers and reached by other
// threads only through the head/tail/next atomics, so the memory-order
// parameters are load-bearing exactly as in the C original: losing an
// acquire or a release breaks the publication of node memory, which the
// checker surfaces as an unpublished read (CDSChecker's uninitialized
// load) or as a specification violation (wrong or spuriously-empty
// dequeue).
//
// The two known bugs of §6.4.1 — found by AutoMO, one in enqueue and one
// in dequeue, both weaker-than-necessary orders — are reproduced by the
// KnownBugEnqueue and KnownBugDequeue order tables.
package msqueue

import (
	"repro/internal/checker"
	"repro/internal/core"
	"repro/internal/memmodel"
	"repro/internal/seqds"
)

// Empty is the sentinel Deq returns for an empty queue.
const Empty = ^memmodel.Value(0)

// Memory-order site names.
const (
	SiteEnqLoadTail    = "enq_load_tail"
	SiteEnqLoadNext    = "enq_load_next"
	SiteEnqCASNext     = "enq_cas_next"
	SiteEnqCASTail     = "enq_cas_tail"
	SiteEnqHelpCASTail = "enq_help_cas_tail"
	SiteDeqLoadHead    = "deq_load_head"
	SiteDeqLoadTail    = "deq_load_tail"
	SiteDeqLoadNext    = "deq_load_next"
	SiteDeqCASHead     = "deq_cas_head"
	SiteDeqHelpCASTail = "deq_help_cas_tail"
)

// Site handles: each site's index in sites.
const (
	siteEnqLoadTail memmodel.SiteID = iota + 1
	siteEnqLoadNext
	siteEnqCASNext
	siteEnqCASTail
	siteEnqHelpCASTail
	siteDeqLoadHead
	siteDeqLoadTail
	siteDeqLoadNext
	siteDeqCASHead
	siteDeqHelpCASTail
)

// sites declares the memory-order sites; DefaultOrders documents their
// default orders.
var sites = memmodel.NewSiteList("msqueue", []memmodel.Site{
	siteEnqLoadTail:    {Name: SiteEnqLoadTail, Class: memmodel.OpLoad, Default: memmodel.Acquire},
	siteEnqLoadNext:    {Name: SiteEnqLoadNext, Class: memmodel.OpLoad, Default: memmodel.Acquire},
	siteEnqCASNext:     {Name: SiteEnqCASNext, Class: memmodel.OpRMW, Default: memmodel.Release},
	siteEnqCASTail:     {Name: SiteEnqCASTail, Class: memmodel.OpRMW, Default: memmodel.Release},
	siteEnqHelpCASTail: {Name: SiteEnqHelpCASTail, Class: memmodel.OpRMW, Default: memmodel.Relaxed},
	siteDeqLoadHead:    {Name: SiteDeqLoadHead, Class: memmodel.OpLoad, Default: memmodel.Acquire},
	siteDeqLoadTail:    {Name: SiteDeqLoadTail, Class: memmodel.OpLoad, Default: memmodel.Relaxed},
	siteDeqLoadNext:    {Name: SiteDeqLoadNext, Class: memmodel.OpLoad, Default: memmodel.Acquire},
	siteDeqCASHead:     {Name: SiteDeqCASHead, Class: memmodel.OpRMW, Default: memmodel.Release},
	siteDeqHelpCASTail: {Name: SiteDeqHelpCASTail, Class: memmodel.OpRMW, Default: memmodel.Relaxed},
})

// DefaultOrders returns the correct minimal memory orders: acquire on
// every pointer load that dereferences a node, release on every CAS that
// publishes one, and relaxed where the value is only a hint (the deq-side
// tail load, which is never dereferenced, and the lagging-tail helping
// CASes — the next-CAS is the real publication). Relaxed sites cannot be
// weakened further, so the injection set is the seven load-bearing sites.
func DefaultOrders() *memmodel.OrderTable { return sites.Table() }

// KnownBugEnqueue is the first §6.4.1 bug: the enqueue-side publication
// CAS is too weak, so a dequeuer can reach a node whose contents were
// never made visible to it.
func KnownBugEnqueue() *memmodel.OrderTable {
	t := DefaultOrders()
	t.Set(SiteEnqCASNext, memmodel.Relaxed)
	return t
}

// KnownBugDequeue is the second §6.4.1 bug: the dequeue-side head load is
// too weak, so a dequeuer can traverse into a node another dequeuer
// published without ever synchronizing with its contents.
func KnownBugDequeue() *memmodel.OrderTable {
	t := DefaultOrders()
	t.Set(SiteDeqLoadHead, memmodel.Relaxed)
	return t
}

type node struct {
	next *checker.Atomic
	data *checker.Plain
}

// Queue is the simulated Michael & Scott queue.
type Queue struct {
	ord *memmodel.OrderTable
	mon *core.Monitor

	// Names built once in New: spec methods, and locations allocated
	// after New.
	enqName, deqName, nextName, dataName string

	head, tail *checker.Atomic
	nodes      []*node
}

// New builds an empty queue with a dummy node.
func New(t *checker.Thread, name string, ord *memmodel.OrderTable) *Queue {
	q := &Queue{
		enqName:  name + ".enq",
		deqName:  name + ".deq",
		nextName: name + ".next",
		dataName: name + ".data",
		ord:      sites.Resolve(ord),
		mon:      core.Of(t),
	}
	q.nodes = append(q.nodes, nil) // handle 0 = NULL
	dummy := q.newNode(t, 0)
	q.head = t.NewAtomicInit(name+".head", dummy)
	q.tail = t.NewAtomicInit(name+".tail", dummy)
	return q
}

func (q *Queue) newNode(t *checker.Thread, val memmodel.Value) memmodel.Value {
	// Reserve the handle before creating the locations: creating them
	// parks the thread, and a concurrent allocator must not observe a
	// stale length and reuse the handle.
	h := memmodel.Value(len(q.nodes))
	n := &node{}
	q.nodes = append(q.nodes, n)
	n.next = t.NewAtomicInit(q.nextName, 0)
	n.data = t.NewPlainInit(q.dataName, val)
	return h
}

func (q *Queue) node(h memmodel.Value) *node { return q.nodes[h] }

// Enq appends val.
func (q *Queue) Enq(t *checker.Thread, val memmodel.Value) {
	c := q.mon.Begin(t, q.enqName, val)
	n := q.newNode(t, val)
	for {
		tl := q.tail.Load(t, q.ord.Order(siteEnqLoadTail))
		next := q.node(tl).next.Load(t, q.ord.Order(siteEnqLoadNext))
		if next == 0 {
			if _, ok := q.node(tl).next.CAS(t, 0, n, q.ord.Order(siteEnqCASNext), memmodel.Relaxed); ok {
				c.OPDefine(t, true) // the successful publication CAS
				q.tail.CAS(t, tl, n, q.ord.Order(siteEnqCASTail), memmodel.Relaxed)
				c.EndVoid(t)
				return
			}
		} else {
			// Help the lagging enqueuer swing the tail.
			q.tail.CAS(t, tl, next, q.ord.Order(siteEnqHelpCASTail), memmodel.Relaxed)
		}
		t.Yield()
	}
}

// Deq removes and returns the oldest element, or Empty.
func (q *Queue) Deq(t *checker.Thread) memmodel.Value {
	c := q.mon.Begin(t, q.deqName)
	for {
		h := q.head.Load(t, q.ord.Order(siteDeqLoadHead))
		tl := q.tail.Load(t, q.ord.Order(siteDeqLoadTail))
		next := q.node(h).next.Load(t, q.ord.Order(siteDeqLoadNext))
		c.OPClearDefine(t, true) // the last iteration's next load
		if h == tl {
			if next == 0 {
				c.End(t, Empty)
				return Empty
			}
			// Tail is lagging: help.
			q.tail.CAS(t, tl, next, q.ord.Order(siteDeqHelpCASTail), memmodel.Relaxed)
		} else if next != 0 {
			v := q.node(next).data.Load(t)
			if _, ok := q.head.CAS(t, h, next, q.ord.Order(siteDeqCASHead), memmodel.Relaxed); ok {
				c.End(t, v)
				return v
			}
		}
		t.Yield()
	}
}

// Spec returns the CDSSpec specification: the same sequential FIFO with
// spurious-empty justification as the blocking queue — the paper notes in
// §6.2 that the M&S dequeue has the same justifying condition.
func Spec(name string) *core.Spec {
	return &core.Spec{
		Name:     name,
		NewState: func() core.State { return seqds.NewIntList() },
		Methods: map[string]*core.MethodSpec{
			name + ".enq": {
				SideEffect: func(st core.State, c *core.Call) {
					st.(*seqds.IntList).PushBack(c.Arg(0))
				},
			},
			name + ".deq": {
				SideEffect: func(st core.State, c *core.Call) {
					l := st.(*seqds.IntList)
					if v, ok := l.Front(); ok {
						c.SRet = v
					} else {
						c.SRet = Empty
					}
					if c.SRet != Empty && c.Ret != Empty {
						l.PopFront()
					}
				},
				Post: func(st core.State, c *core.Call) bool {
					return c.Ret == Empty || c.Ret == c.SRet
				},
				NeedsJustify: func(c *core.Call) bool { return c.Ret == Empty },
				JustifyPost: func(st core.State, c *core.Call, conc []*core.Call) bool {
					return c.SRet == Empty
				},
			},
		},
	}
}
