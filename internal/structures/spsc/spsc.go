// Package spsc is the single-producer single-consumer linked queue from
// the CDSChecker benchmark suite: the producer owns the tail, the
// consumer owns the head, and the only shared state is each node's next
// pointer. Deq blocks (spins) until an element is available.
//
// Because there is exactly one producer and one consumer, the queue's
// entire synchronization is the release store / acquire load on next —
// two sites, matching the two injections Figure 8 reports.
package spsc

import (
	"repro/internal/checker"
	"repro/internal/core"
	"repro/internal/memmodel"
	"repro/internal/seqds"
)

// Memory-order site names.
const (
	SiteEnqStoreNext = "enq_store_next"
	SiteDeqLoadNext  = "deq_load_next"
)

// DefaultOrders returns the correct orders.
func DefaultOrders() *memmodel.OrderTable {
	return memmodel.NewOrderTable(
		memmodel.Site{Name: SiteEnqStoreNext, Class: memmodel.OpStore, Default: memmodel.Release},
		memmodel.Site{Name: SiteDeqLoadNext, Class: memmodel.OpLoad, Default: memmodel.Acquire},
	)
}

type node struct {
	next *checker.Atomic
	data *checker.Plain
}

// Queue is the simulated SPSC queue.
type Queue struct {
	ord *memmodel.OrderTable
	mon *core.Monitor

	// Names built once in New: spec methods, and locations allocated
	// after New.
	enqName, deqName, nextName, dataName string

	nodes []*node
	// head and tail are thread-private (consumer resp. producer), as in
	// the C original where they are plain fields.
	head, tail memmodel.Value
}

// New builds an empty queue with a dummy node.
func New(t *checker.Thread, name string, ord *memmodel.OrderTable) *Queue {
	if ord == nil {
		ord = DefaultOrders()
	}
	q := &Queue{
		enqName:  name + ".enq",
		deqName:  name + ".deq",
		nextName: name + ".next",
		dataName: name + ".data",
		ord:      ord,
		mon:      core.Of(t),
	}
	q.nodes = append(q.nodes, nil)
	dummy := q.newNode(t, 0)
	q.head, q.tail = dummy, dummy
	return q
}

func (q *Queue) newNode(t *checker.Thread, val memmodel.Value) memmodel.Value {
	// Reserve the handle before creating the locations (creating them
	// parks the thread; see the same pattern in msqueue).
	h := memmodel.Value(len(q.nodes))
	n := &node{}
	q.nodes = append(q.nodes, n)
	n.next = t.NewAtomicInit(q.nextName, 0)
	n.data = t.NewPlainInit(q.dataName, val)
	return h
}

// Enq appends val (producer only).
func (q *Queue) Enq(t *checker.Thread, val memmodel.Value) {
	c := q.mon.Begin(t, q.enqName, val)
	n := q.newNode(t, val)
	q.nodes[q.tail].next.Store(t, q.ord.Get(SiteEnqStoreNext), n)
	c.OPDefine(t, true) // the publishing next store
	q.tail = n
	c.EndVoid(t)
}

// Deq blocks until an element is available and returns it (consumer
// only).
func (q *Queue) Deq(t *checker.Thread) memmodel.Value {
	c := q.mon.Begin(t, q.deqName)
	for {
		n := q.nodes[q.head].next.Load(t, q.ord.Get(SiteDeqLoadNext))
		c.OPClearDefine(t, true) // the successful next load
		if n != 0 {
			v := q.nodes[n].data.Load(t)
			q.head = n
			c.End(t, v)
			return v
		}
		t.Yield()
	}
}

// Spec is a deterministic sequential FIFO: deq blocks rather than
// returning empty, so there is no non-determinism to justify. The
// single-producer single-consumer usage contract is expressed as
// admissibility rules: two enqs (or two deqs) must always be ordered —
// calls from one thread always are.
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
				Pre: func(st core.State, c *core.Call) bool {
					return !st.(*seqds.IntList).Empty()
				},
				SideEffect: func(st core.State, c *core.Call) {
					v, _ := st.(*seqds.IntList).PopFront()
					c.SRet = v
				},
				Post: func(st core.State, c *core.Call) bool {
					return c.Ret == c.SRet
				},
			},
		},
		Admissibility: []core.AdmitRule{
			{M1: name + ".enq", M2: name + ".enq",
				MustOrder: func(a, b *core.Call) bool { return true }},
			{M1: name + ".deq", M2: name + ".deq",
				MustOrder: func(a, b *core.Call) bool { return true }},
		},
	}
}
