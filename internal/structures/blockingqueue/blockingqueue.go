// Package blockingqueue is the paper's running example (Figure 2): a
// simple blocking queue whose enqueuers race with a CAS on the next field
// of the tail node and whose dequeuers race with a CAS on the head
// pointer, using release/acquire synchronization. Its CDSSpec
// specification is the paper's Figure 6: a sequential FIFO list where deq
// may spuriously return empty, justified by a justifying prefix in which
// the queue is also empty.
package blockingqueue

import (
	"repro/internal/checker"
	"repro/internal/core"
	"repro/internal/memmodel"
	"repro/internal/seqds"
)

// Empty is the sentinel deq returns for an empty queue (the paper's -1).
const Empty = ^memmodel.Value(0)

// Memory-order site names.
const (
	SiteEnqLoadTail  = "enq_load_tail"
	SiteEnqCASNext   = "enq_cas_next"
	SiteEnqStoreTail = "enq_store_tail"
	SiteDeqLoadHead  = "deq_load_head"
	SiteDeqLoadNext  = "deq_load_next"
	SiteDeqCASHead   = "deq_cas_head"
)

// Site handles: each site's index in sites.
const (
	siteEnqLoadTail memmodel.SiteID = iota + 1
	siteEnqCASNext
	siteEnqStoreTail
	siteDeqLoadHead
	siteDeqLoadNext
	siteDeqCASHead
)

// sites declares the memory-order sites; DefaultOrders documents their
// default orders.
var sites = memmodel.NewSiteList("blockingqueue", []memmodel.Site{
	siteEnqLoadTail:  {Name: SiteEnqLoadTail, Class: memmodel.OpLoad, Default: memmodel.Acquire},
	siteEnqCASNext:   {Name: SiteEnqCASNext, Class: memmodel.OpRMW, Default: memmodel.Release},
	siteEnqStoreTail: {Name: SiteEnqStoreTail, Class: memmodel.OpStore, Default: memmodel.Release},
	siteDeqLoadHead:  {Name: SiteDeqLoadHead, Class: memmodel.OpLoad, Default: memmodel.Acquire},
	siteDeqLoadNext:  {Name: SiteDeqLoadNext, Class: memmodel.OpLoad, Default: memmodel.Acquire},
	siteDeqCASHead:   {Name: SiteDeqCASHead, Class: memmodel.OpRMW, Default: memmodel.Release},
})

// DefaultOrders returns the memory orders of Figure 2.
func DefaultOrders() *memmodel.OrderTable { return sites.Table() }

// node is a queue node; nodes are identified by 1-based handles, 0 is
// NULL. The data field is a plain (race-detected) location, as in the
// C++ original.
type node struct {
	next *checker.Atomic
	data *checker.Plain
}

// Queue is the simulated blocking queue.
type Queue struct {
	ord *memmodel.OrderTable
	mon *core.Monitor

	// Names built once in New: spec methods, and locations allocated
	// after New.
	enqName, deqName, nextName, dataName string

	tail, head *checker.Atomic
	nodes      []*node // index 0 unused (NULL)
}

// New builds a queue with a dummy head node, as the Figure 2 constructor
// does. The instance name prefixes its method names in the spec.
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
	q.tail = t.NewAtomicInit(name+".tail", dummy)
	q.head = t.NewAtomicInit(name+".head", dummy)
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

// Enq appends val to the queue (Figure 2 lines 4–14, annotated as in
// Figure 6).
func (q *Queue) Enq(t *checker.Thread, val memmodel.Value) {
	c := q.mon.Begin(t, q.enqName, val)
	n := q.newNode(t, val)
	for {
		tl := q.tail.Load(t, q.ord.Order(siteEnqLoadTail))
		if _, ok := q.node(tl).next.CAS(t, 0, n, q.ord.Order(siteEnqCASNext), memmodel.Relaxed); ok {
			c.OPDefine(t, true) // @OPDefine: true (the successful CAS)
			q.tail.Store(t, q.ord.Order(siteEnqStoreTail), n)
			c.EndVoid(t)
			return
		}
		t.Yield() // spin: wait for the winning enqueuer to swing tail
	}
}

// Deq removes and returns the oldest element, or Empty (Figure 2 lines
// 15–23, annotated as in Figure 6).
func (q *Queue) Deq(t *checker.Thread) memmodel.Value {
	c := q.mon.Begin(t, q.deqName)
	for {
		h := q.head.Load(t, q.ord.Order(siteDeqLoadHead))
		n := q.node(h).next.Load(t, q.ord.Order(siteDeqLoadNext))
		c.OPClearDefine(t, true) // @OPClearDefine: the last iteration's load
		if n == 0 {
			c.End(t, Empty)
			return Empty
		}
		if _, ok := q.head.CAS(t, h, n, q.ord.Order(siteDeqCASHead), memmodel.Relaxed); ok {
			v := q.node(n).data.Load(t)
			c.End(t, v)
			return v
		}
		t.Yield() // lost the race for this node; retry
	}
}

// Spec returns the Figure 6 specification for an instance named name:
// an ordered list, enq pushes back, deq pops front or spuriously returns
// Empty — justified only when some justifying prefix leaves the list
// empty.
func Spec(name string) *core.Spec {
	return &core.Spec{
		Name:     name,
		NewState: func() core.State { return seqds.NewIntList() },
		Methods: map[string]*core.MethodSpec{
			name + ".enq": {
				// @SideEffect: STATE(q)->push_back(val);
				SideEffect: func(st core.State, c *core.Call) {
					st.(*seqds.IntList).PushBack(c.Arg(0))
				},
			},
			name + ".deq": {
				// @SideEffect: S_RET = empty ? -1 : front;
				//              if (S_RET != -1 && C_RET != -1) pop_front;
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
				// @PostCondition: C_RET == -1 ? true : C_RET == S_RET
				Post: func(st core.State, c *core.Call) bool {
					return c.Ret == Empty || c.Ret == c.SRet
				},
				// @JustifyingPostcondition: if (C_RET == -1)
				//     return S_RET == -1;
				NeedsJustify: func(c *core.Call) bool { return c.Ret == Empty },
				JustifyPost: func(st core.State, c *core.Call, conc []*core.Call) bool {
					return c.SRet == Empty
				},
			},
		},
	}
}
