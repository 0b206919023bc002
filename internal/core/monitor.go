package core

import (
	"repro/internal/checker"
	"repro/internal/memmodel"
)

// Monitor records the method calls of one execution and checks them
// against a Spec when the execution completes. Install puts a Monitor on
// every execution's System (typically from Config.OnRunStart); a pooled
// System keeps its Monitor, so each engine worker records every one of
// its executions into the same Monitor and the same Call records.
type Monitor struct {
	spec *Spec
	// calls are the calls recorded this execution, a prefix of arena.
	calls []*Call
	// arena holds every Call record the monitor has handed out; Begin
	// reuses arena[len(calls)], keeping its slices' capacity, and
	// allocates only past the largest call count seen so far.
	arena []*Call
	// depth is the API-call nesting depth per thread id: when an API
	// method calls another API method, only the outermost counts (paper
	// §4.3, "Nested API Method Call"). muts counts spec-layer mutations
	// per thread id, for the checker's spinloop reduction (see
	// ReduceThreadMuts in reduce.go). mut grows both to cover a thread;
	// both keep their capacity across executions.
	depth []int
	muts  []uint64
	// noScratch backs the check when no shard cache (and thus no shared
	// checkScratch) is available — direct Check() calls from unit tests.
	noScratch checkScratch
}

// Install hangs a Monitor for spec off the system so the instrumented
// data-structure code can find it. It resets and reuses the Monitor it
// finds in sys.Aux (a pooled System keeps its previous execution's), and
// allocates one only when sys.Aux holds none.
func Install(sys *checker.System, spec *Spec) *Monitor {
	m, _ := sys.Aux.(*Monitor)
	if m == nil {
		m = &Monitor{}
		sys.Aux = m
	}
	m.spec = spec
	m.calls = m.arena[:0]
	m.depth = m.depth[:0]
	m.muts = m.muts[:0]
	return m
}

// Of returns the Monitor installed on the thread's system, or nil.
func Of(t *checker.Thread) *Monitor {
	m, _ := t.Sys().Aux.(*Monitor)
	return m
}

// FromSys returns the Monitor installed on sys, or nil.
func FromSys(sys *checker.System) *Monitor {
	m, _ := sys.Aux.(*Monitor)
	return m
}

// Calls returns the method calls recorded so far. The slice and the Call
// records are valid until the next Install on the same System — under
// execution pooling, until the worker's next execution starts — so a
// caller that keeps them longer must copy what it needs.
func (m *Monitor) Calls() []*Call { return m.calls }

// Fingerprint returns the canonical 64-bit content hash of the calls
// recorded so far — the same FNV-1a hash the spec-check memoization keys
// on (see fingerprint in cache.go): call identities, arguments, return
// values, spec-visible aux values, and the closed ~r~ relation. Two
// executions with equal fingerprints are indistinguishable to the
// checking pipeline, which is what makes the hash a sound dedup key for
// fuzz-campaign failure triage. It is safe on a partially recorded
// execution (a built-in failure aborts mid-run before calls end); an
// empty record hashes to 0.
func (m *Monitor) Fingerprint() uint64 {
	if m == nil || len(m.calls) == 0 {
		return 0
	}
	r := buildOrderScratch(m.calls, &m.noScratch)
	_, h := fingerprint(&m.noScratch, m.calls, r)
	return h
}

// CallCtx is the instrumentation handle for one method call, carrying the
// ordering-point annotations of the specification language. For nested
// API calls the context is inert (the outermost call owns the record).
type CallCtx struct {
	m    *Monitor
	call *Call // nil when nested (inert)
	tid  int
}

// Begin opens an API method call (the method-begin annotation action).
// It must be paired with End/EndVoid on every return path. The call's
// Args are a copy of args, so a caller's argument slice need not escape.
func (m *Monitor) Begin(t *checker.Thread, name string, args ...memmodel.Value) *CallCtx {
	if m == nil {
		return nil
	}
	tid := t.ID()
	m.mut(tid)
	m.depth[tid]++
	if m.depth[tid] > 1 {
		return &CallCtx{m: m, tid: tid} // nested: inert
	}
	n := len(m.calls)
	if n == len(m.arena) {
		m.arena = append(m.arena, &Call{})
	}
	c := m.arena[n]
	*c = Call{
		ID:         n,
		Thread:     tid,
		Name:       name,
		Args:       append(c.Args[:0], args...),
		OPs:        c.OPs[:0],
		potentials: c.potentials[:0],
		aux:        c.aux[:0],
	}
	c.ctx = CallCtx{m: m, call: c, tid: tid}
	m.calls = m.arena[:n+1]
	return &c.ctx
}

// End closes the call with a return value (C_RET).
func (x *CallCtx) End(t *checker.Thread, ret memmodel.Value) {
	if x == nil {
		return
	}
	x.m.mut(x.tid)
	x.m.depth[x.tid]--
	if x.call != nil {
		x.call.invalidate()
		x.call.Ret = ret
		x.call.HasRet = true
		x.call.ended = true
	}
}

// EndVoid closes a void call.
func (x *CallCtx) EndVoid(t *checker.Thread) {
	if x == nil {
		return
	}
	x.m.mut(x.tid)
	x.m.depth[x.tid]--
	if x.call != nil {
		x.call.invalidate()
		x.call.ended = true
	}
}

// SetAux stores a named scratch value on the underlying call (no-op for
// nested calls). Structures use it to expose extra observed values to the
// specification.
func (x *CallCtx) SetAux(key string, v memmodel.Value) {
	if x == nil || x.call == nil {
		return
	}
	x.m.mut(x.tid)
	x.call.SetAux(key, v)
}

// OPDefine marks the thread's immediately preceding atomic operation as an
// ordering point when cond holds (@OPDefine).
func (x *CallCtx) OPDefine(t *checker.Thread, cond bool) {
	if x == nil || x.call == nil || !cond {
		return
	}
	if a := t.LastAction(); a != nil {
		x.m.mut(x.tid)
		x.call.invalidate()
		x.call.OPs = append(x.call.OPs, a)
	}
}

// OPClear removes all ordering points observed so far in this call when
// cond holds (@OPClear).
func (x *CallCtx) OPClear(t *checker.Thread, cond bool) {
	if x == nil || x.call == nil || !cond {
		return
	}
	x.m.mut(x.tid)
	x.call.invalidate()
	x.call.OPs = x.call.OPs[:0]
	x.call.potentials = x.call.potentials[:0]
}

// OPClearDefine is OPClear followed by OPDefine (@OPClearDefine), the
// idiom for "the operation from the last loop iteration is the ordering
// point".
func (x *CallCtx) OPClearDefine(t *checker.Thread, cond bool) {
	if x == nil || x.call == nil || !cond {
		return
	}
	x.OPClear(t, true)
	x.OPDefine(t, true)
}

// PotentialOP labels the preceding atomic operation as a potential
// ordering point (@PotentialOP(label)); a later OPCheck with the same
// label promotes it.
func (x *CallCtx) PotentialOP(t *checker.Thread, label string, cond bool) {
	if x == nil || x.call == nil || !cond {
		return
	}
	if a := t.LastAction(); a != nil {
		x.m.mut(x.tid)
		x.call.invalidate()
		x.call.potentials = append(x.call.potentials, potentialOP{label: label, act: a})
	}
}

// OPCheck promotes all potential ordering points with the given label to
// real ordering points when cond holds (@OPCheck(label)).
func (x *CallCtx) OPCheck(t *checker.Thread, label string, cond bool) {
	if x == nil || x.call == nil || !cond {
		return
	}
	x.m.mut(x.tid)
	x.call.invalidate()
	kept := x.call.potentials[:0]
	for _, p := range x.call.potentials {
		if p.label == label {
			x.call.OPs = append(x.call.OPs, p.act)
		} else {
			kept = append(kept, p)
		}
	}
	x.call.potentials = kept
}
