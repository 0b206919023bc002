// Package mpmc is the bounded multi-producer multi-consumer queue from
// the CDSChecker benchmark suite (Vyukov-style): an array of slots with
// per-slot sequence numbers and two ticket counters. An enqueuer takes a
// write ticket, waits for its slot's sequence to match, writes, and
// publishes the slot; dequeuers mirror the dance.
//
// As the paper discusses (§6.4.2), the implementation is "strictly
// speaking buggy" — a load can read a store from a previous counter epoch
// after ticket rollover — and several operations carry seq_cst orders
// whose only job is to make that astronomically-rare bug harder to hit.
// Unit tests small enough not to roll the counters over cannot observe
// those orders, which is exactly why half of the Figure 8 injections for
// this benchmark go undetected; the detected half are caught by the
// admissibility rule requiring a dequeue to be ordered with the enqueue
// it takes its value from.
package mpmc

import (
	"repro/internal/checker"
	"repro/internal/core"
	"repro/internal/memmodel"
	"repro/internal/seqds"
)

// Memory-order site names.
const (
	SiteEnqFAddPos   = "enq_fadd_pos"
	SiteEnqLoadSeq   = "enq_load_seq"
	SiteEnqStoreData = "enq_store_data"
	SiteEnqStoreSeq  = "enq_store_seq"
	SiteDeqFAddPos   = "deq_fadd_pos"
	SiteDeqLoadSeq   = "deq_load_seq"
	SiteDeqLoadData  = "deq_load_data"
	SiteDeqStoreSeq  = "deq_store_seq"
)

// DefaultOrders returns the benchmark's orders. The seq_cst ticket
// counters and the release/acquire data accesses are stronger than the
// unit tests can observe (rollover protection and redundancy with the
// sequence handoff, respectively); the sequence loads and stores carry
// the synchronization clients actually rely on.
func DefaultOrders() *memmodel.OrderTable {
	return memmodel.NewOrderTable(
		memmodel.Site{Name: SiteEnqFAddPos, Class: memmodel.OpRMW, Default: memmodel.SeqCst},
		memmodel.Site{Name: SiteEnqLoadSeq, Class: memmodel.OpLoad, Default: memmodel.Acquire},
		memmodel.Site{Name: SiteEnqStoreData, Class: memmodel.OpStore, Default: memmodel.Release},
		memmodel.Site{Name: SiteEnqStoreSeq, Class: memmodel.OpStore, Default: memmodel.Release},
		memmodel.Site{Name: SiteDeqFAddPos, Class: memmodel.OpRMW, Default: memmodel.SeqCst},
		memmodel.Site{Name: SiteDeqLoadSeq, Class: memmodel.OpLoad, Default: memmodel.Acquire},
		memmodel.Site{Name: SiteDeqLoadData, Class: memmodel.OpLoad, Default: memmodel.Acquire},
		memmodel.Site{Name: SiteDeqStoreSeq, Class: memmodel.OpStore, Default: memmodel.Release},
	)
}

type slot struct {
	seq  *checker.Atomic
	data *checker.Atomic
}

// Queue is the simulated bounded MPMC queue.
type Queue struct {
	ord *memmodel.OrderTable
	mon *core.Monitor

	// Spec method names, built once in New.
	enqName, deqName string

	slots  []slot
	enqPos *checker.Atomic
	deqPos *checker.Atomic
}

// New builds a queue with the given capacity.
func New(t *checker.Thread, name string, ord *memmodel.OrderTable, capacity int) *Queue {
	if ord == nil {
		ord = DefaultOrders()
	}
	q := &Queue{
		enqName: name + ".enq",
		deqName: name + ".deq",
		ord:     ord,
		mon:     core.Of(t),
		enqPos:  t.NewAtomicInit(name+".enqPos", 0),
		deqPos:  t.NewAtomicInit(name+".deqPos", 0),
	}
	seqName, dataName := name+".seq", name+".data"
	for i := 0; i < capacity; i++ {
		q.slots = append(q.slots, slot{
			seq:  t.NewAtomicInit(seqName, memmodel.Value(i)),
			data: t.NewAtomicInit(dataName, 0),
		})
	}
	return q
}

// Enq appends val, blocking while the queue is full.
func (q *Queue) Enq(t *checker.Thread, val memmodel.Value) {
	c := q.mon.Begin(t, q.enqName, val)
	pos := q.enqPos.FetchAdd(t, q.ord.Get(SiteEnqFAddPos), 1)
	c.SetAux("pos", pos)
	s := q.slots[int(pos)%len(q.slots)]
	for {
		if s.seq.Load(t, q.ord.Get(SiteEnqLoadSeq)) == pos {
			break
		}
		t.Yield() // slot still owned by an earlier epoch
	}
	c.OPDefine(t, true) // the slot-acquisition sequence load
	s.data.Store(t, q.ord.Get(SiteEnqStoreData), val)
	s.seq.Store(t, q.ord.Get(SiteEnqStoreSeq), pos+1)
	c.OPDefine(t, true) // the publishing sequence store
	c.EndVoid(t)
}

// Deq removes and returns the oldest element, blocking while empty.
func (q *Queue) Deq(t *checker.Thread) memmodel.Value {
	c := q.mon.Begin(t, q.deqName)
	pos := q.deqPos.FetchAdd(t, q.ord.Get(SiteDeqFAddPos), 1)
	c.SetAux("pos", pos)
	s := q.slots[int(pos)%len(q.slots)]
	for {
		if s.seq.Load(t, q.ord.Get(SiteDeqLoadSeq)) == pos+1 {
			break
		}
		t.Yield() // the producer has not published yet
	}
	c.OPDefine(t, true) // the successful sequence load
	v := s.data.Load(t, q.ord.Get(SiteDeqLoadData))
	s.seq.Store(t, q.ord.Get(SiteDeqStoreSeq), pos+memmodel.Value(len(q.slots)))
	c.OPDefine(t, true) // the slot-release sequence store
	c.End(t, v)
	return v
}

// Spec is a sequential FIFO with admissibility rules capturing the
// structure's design intent: a dequeue must be ordered (through the slot
// sequence handoff) with the enqueue whose value it takes, and operations
// that share a slot across epochs must be ordered by the reuse handoff.
// Executions where a weakened handoff breaks those orderings are
// inadmissible — the detection channel Figure 8 reports for this
// benchmark. capacity must match the value passed to New.
func Spec(name string, capacity int) *core.Spec {
	cap64 := memmodel.Value(capacity)
	sameSlot := func(a, b *core.Call) bool {
		return a.GetAux("pos")%cap64 == b.GetAux("pos")%cap64
	}
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
					// Blocking deq: with unordered producers the FIFO
					// order of distinct values is not fixed; remove the
					// dequeued value wherever it sits and remember
					// whether it was present.
					if l.Remove(c.Ret) {
						c.SRet = c.Ret
					} else {
						c.SRet = 0
					}
				},
				Post: func(st core.State, c *core.Call) bool {
					return c.Ret == c.SRet
				},
			},
		},
		Admissibility: []core.AdmitRule{
			{
				// The consumer handoff: a deq takes its value from the
				// enq at the same position. Matching on the recorded
				// position (not the value) keeps the rule precise when
				// distinct enqs carry duplicate values — a deq returning
				// such a value is unrelated to the other same-value enqs.
				M1: name + ".deq", M2: name + ".enq",
				MustOrder: func(d, e *core.Call) bool { return d.GetAux("pos") == e.GetAux("pos") },
			},
			{
				// The reuse handoff: an enq reoccupies a slot only after
				// the deq of the previous epoch released it.
				M1: name + ".enq", M2: name + ".deq",
				MustOrder: func(e, d *core.Call) bool {
					return sameSlot(e, d) && e.GetAux("pos") == d.GetAux("pos")+cap64
				},
			},
			{
				// Two enqs to the same slot are epochs apart and must be
				// ordered through the full handoff chain.
				M1: name + ".enq", M2: name + ".enq",
				MustOrder: sameSlot,
			},
		},
	}
}
