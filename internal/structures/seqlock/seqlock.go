// Package seqlock is the sequence lock from the AUTO MO benchmarks: a
// version counter protects a two-word data payload; writers make the
// counter odd, write both words, and bump the counter even again; readers
// retry until they observe the same even sequence number before and after
// reading.
//
// The payload words are atomics accessed with acquire/release (not plain
// locations): readers run concurrently with writers by design, so plain
// accesses would race even in the correct implementation — the C11 ports
// make the same choice. The seqlock's correctness property is that the
// two words are mutually consistent (they always come from the same
// write), which is exactly what the specification checks.
package seqlock

import (
	"repro/internal/checker"
	"repro/internal/core"
	"repro/internal/memmodel"
	"repro/internal/seqds"
)

// Memory-order site names.
const (
	SiteWriteLoadSeq  = "write_load_seq"
	SiteWriteCASSeq   = "write_cas_seq"
	SiteWriteStoreDat = "write_store_data"
	SiteWriteStoreSeq = "write_store_seq"
	SiteReadLoadSeq1  = "read_load_seq1"
	SiteReadLoadData  = "read_load_data"
	SiteReadLoadSeq2  = "read_load_seq2"
)

// Site handles: each site's index in sites.
const (
	siteWriteLoadSeq memmodel.SiteID = iota + 1
	siteWriteCASSeq
	siteWriteStoreDat
	siteWriteStoreSeq
	siteReadLoadSeq1
	siteReadLoadData
	siteReadLoadSeq2
)

// sites declares the memory-order sites; DefaultOrders documents their
// default orders.
var sites = memmodel.NewSiteList("seqlock", []memmodel.Site{
	siteWriteLoadSeq:  {Name: SiteWriteLoadSeq, Class: memmodel.OpLoad, Default: memmodel.Relaxed},
	siteWriteCASSeq:   {Name: SiteWriteCASSeq, Class: memmodel.OpRMW, Default: memmodel.AcqRel},
	siteWriteStoreDat: {Name: SiteWriteStoreDat, Class: memmodel.OpStore, Default: memmodel.Release},
	siteWriteStoreSeq: {Name: SiteWriteStoreSeq, Class: memmodel.OpStore, Default: memmodel.Release},
	siteReadLoadSeq1:  {Name: SiteReadLoadSeq1, Class: memmodel.OpLoad, Default: memmodel.Acquire},
	siteReadLoadData:  {Name: SiteReadLoadData, Class: memmodel.OpLoad, Default: memmodel.Acquire},
	siteReadLoadSeq2:  {Name: SiteReadLoadSeq2, Class: memmodel.OpLoad, Default: memmodel.Relaxed},
})

// DefaultOrders returns the correct orders of the C11 seqlock: the
// reader's second sequence load is relaxed by design (ordered by the
// acquire on the payload loads), and the writer's initial sequence load
// is a relaxed hint (the acq_rel CAS revalidates it), leaving five
// injectable sites.
func DefaultOrders() *memmodel.OrderTable { return sites.Table() }

// Seqlock is the simulated sequence lock protecting one data word.
type Seqlock struct {
	ord *memmodel.OrderTable
	mon *core.Monitor

	// Spec method names, built once in New.
	writeName, readName string

	seq   *checker.Atomic
	data1 *checker.Atomic
	data2 *checker.Atomic
}

// New builds a seqlock holding value 0 in both words at sequence 0.
func New(t *checker.Thread, name string, ord *memmodel.OrderTable) *Seqlock {
	return &Seqlock{
		writeName: name + ".write",
		readName:  name + ".read",
		ord:       sites.Resolve(ord),
		mon:       core.Of(t),
		seq:       t.NewAtomicInit(name+".seq", 0),
		data1:     t.NewAtomicInit(name+".data1", 0),
		data2:     t.NewAtomicInit(name+".data2", 0),
	}
}

// Write stores v into both payload words.
func (s *Seqlock) Write(t *checker.Thread, v memmodel.Value) {
	c := s.mon.Begin(t, s.writeName, v)
	for {
		seq := s.seq.Load(t, s.ord.Order(siteWriteLoadSeq))
		if seq%2 == 0 {
			if _, ok := s.seq.CAS(t, seq, seq+1, s.ord.Order(siteWriteCASSeq), memmodel.Relaxed); ok {
				s.data1.Store(t, s.ord.Order(siteWriteStoreDat), v)
				s.data2.Store(t, s.ord.Order(siteWriteStoreDat), v)
				s.seq.Store(t, s.ord.Order(siteWriteStoreSeq), seq+2)
				c.OPDefine(t, true) // the committing sequence store
				c.EndVoid(t)
				return
			}
		}
		t.Yield()
	}
}

// Read returns a consistent snapshot of the payload. The second word is
// stashed on the call so the specification can check pair consistency.
func (s *Seqlock) Read(t *checker.Thread) memmodel.Value {
	c := s.mon.Begin(t, s.readName)
	for {
		seq1 := s.seq.Load(t, s.ord.Order(siteReadLoadSeq1))
		if seq1%2 == 0 {
			v1 := s.data1.Load(t, s.ord.Order(siteReadLoadData))
			v2 := s.data2.Load(t, s.ord.Order(siteReadLoadData))
			c.OPClearDefine(t, true) // the validated payload read
			seq2 := s.seq.Load(t, s.ord.Order(siteReadLoadSeq2))
			if seq1 == seq2 {
				c.SetAux("v2", v2)
				c.End(t, v1)
				return v1
			}
		}
		t.Yield()
	}
}

// Spec maps the seqlock to a sequential register. Reads are specified
// non-deterministically in the style of the paper's §2.2 atomic register:
// every read must be justified by some justifying prefix in which the
// register holds exactly the value returned — torn or never-written
// values have no such prefix, and per-thread monotonicity follows from
// the prefix including every ~r~-earlier write.
func Spec(name string) *core.Spec {
	return &core.Spec{
		Name:     name,
		NewState: func() core.State { return seqds.NewRegister(0) },
		Methods: map[string]*core.MethodSpec{
			name + ".write": {
				SideEffect: func(st core.State, c *core.Call) {
					st.(*seqds.Register).Write(c.Arg(0))
				},
			},
			name + ".read": {
				SideEffect: func(st core.State, c *core.Call) {
					c.SRet = st.(*seqds.Register).Read()
				},
				// Pair consistency is deterministic: every write stores
				// the same value in both words, so a read that returns
				// mismatched words is torn no matter how it linearizes.
				Post: func(st core.State, c *core.Call) bool {
					return c.Ret == c.GetAux("v2")
				},
				// Sequential histories cannot pin the value (a read may
				// be ordered before a concurrent write it did not see),
				// so the value check happens entirely in justification:
				// the value must come from some justifying prefix or
				// from a concurrent write (Definition 4, case 2) — the
				// paper's §2.2 register specification.
				NeedsJustify: func(c *core.Call) bool { return true },
				JustifyPost: func(st core.State, c *core.Call, conc []*core.Call) bool {
					return c.SRet == c.Ret
				},
				JustifyConcurrent: func(c *core.Call, conc []*core.Call) bool {
					for _, w := range conc {
						if w.HasRet == false && len(w.Args) == 1 && w.Arg(0) == c.Ret {
							return true
						}
					}
					return false
				},
			},
		},
	}
}
