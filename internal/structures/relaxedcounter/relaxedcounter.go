// Package relaxedcounter is the paper's §3.3 example of applying the
// correctness model to code built exclusively from relaxed atomics: a
// counter with increment and read operations, no synchronization at all.
//
// Its specification is deliberately very weak — a read may return any
// value some justifying prefix (or concurrent increments) can produce —
// but it is not vacuous: once the program reaches a synchronization point
// (thread join in the tests), a read must be consistent with the number
// of increments ordered before it. That is exactly the guarantee §3.3
// describes.
package relaxedcounter

import (
	"repro/internal/checker"
	"repro/internal/core"
	"repro/internal/memmodel"
)

// Memory-order site names. Both sites are relaxed by design; they exist
// so experiments can *strengthen* them, not weaken them.
const (
	SiteIncFAdd  = "inc_fadd"
	SiteReadLoad = "read_load"
)

// DefaultOrders returns the all-relaxed configuration.
func DefaultOrders() *memmodel.OrderTable {
	return memmodel.NewOrderTable(
		memmodel.Site{Name: SiteIncFAdd, Class: memmodel.OpRMW, Default: memmodel.Relaxed},
		memmodel.Site{Name: SiteReadLoad, Class: memmodel.OpLoad, Default: memmodel.Relaxed},
	)
}

// Counter is the simulated relaxed counter.
type Counter struct {
	ord  *memmodel.OrderTable
	mon  *core.Monitor
	cell *checker.Atomic

	// Spec method names, built once in New.
	incName, readName string
}

// New builds a counter at zero.
func New(t *checker.Thread, name string, ord *memmodel.OrderTable) *Counter {
	if ord == nil {
		ord = DefaultOrders()
	}
	return &Counter{
		incName:  name + ".inc",
		readName: name + ".read",
		ord:      ord,
		mon:      core.Of(t),
		cell:     t.NewAtomicInit(name+".cell", 0),
	}
}

// Inc increments the counter.
func (c *Counter) Inc(t *checker.Thread) {
	cc := c.mon.Begin(t, c.incName)
	c.cell.FetchAdd(t, c.ord.Get(SiteIncFAdd), 1)
	cc.OPDefine(t, true) // the RMW
	cc.EndVoid(t)
}

// Read returns the current count (possibly stale).
func (c *Counter) Read(t *checker.Thread) memmodel.Value {
	cc := c.mon.Begin(t, c.readName)
	v := c.cell.Load(t, c.ord.Get(SiteReadLoad))
	cc.OPDefine(t, true) // the load
	cc.End(t, v)
	return v
}

// counterState is the sequential counter.
type counterState struct{ n memmodel.Value }

// Spec is the §3.3 weak specification: inc bumps the sequential counter;
// a read is justified if some justifying prefix yields exactly the value
// read, possibly helped by concurrent increments (a read racing k
// increments may observe any subset of them).
func Spec(name string) *core.Spec {
	return &core.Spec{
		Name:     name,
		NewState: func() core.State { return &counterState{} },
		Methods: map[string]*core.MethodSpec{
			name + ".inc": {
				SideEffect: func(st core.State, c *core.Call) {
					st.(*counterState).n++
				},
			},
			name + ".read": {
				SideEffect: func(st core.State, c *core.Call) {
					c.SRet = st.(*counterState).n
				},
				NeedsJustify: func(c *core.Call) bool { return true },
				// The prefix count is the floor; concurrent increments
				// may add up to their number on top of it.
				JustifyPost: func(st core.State, c *core.Call, conc []*core.Call) bool {
					base := st.(*counterState).n
					extra := memmodel.Value(0)
					for _, m := range conc {
						if !m.HasRet { // an inc call
							extra++
						}
					}
					return c.Ret >= base && c.Ret <= base+extra
				},
			},
		},
	}
}
