// Package fuzz turns the exhaustive checker into a test generator: it
// draws randomized unit-test programs ("scenarios") for a benchmark from
// a registry of named client operations, runs each generated program
// through the existing explorer and spec checker as a campaign, triages
// and dedups the failures, and shrinks a failing program to a minimal,
// human-readable counterexample.
//
// The paper itself flags the weakness this addresses (§6.4 "Limitation
// of Unit Tests"): hand-written ≤3-thread tests only exercise the
// scenarios their authors thought of. The fuzzer explores the scenario
// space too — while every individual generated program is still checked
// exhaustively (or up to a budget) under the C/C++11 memory model.
//
// Everything here is deterministic: the same seed against the same
// registry yields a byte-identical program batch, and campaigns produce
// identical verdicts regardless of worker count.
package fuzz

import (
	"fmt"

	"repro/internal/checker"
	"repro/internal/core"
	"repro/internal/memmodel"
)

// Role constrains which threads of a generated program may run an
// operation — the thread-role contracts of the benchmarks (Chase-Lev's
// single owner, SPSC's one producer and one consumer).
type Role struct {
	// Name identifies the role ("owner", "producer", ...).
	Name string
	// Max bounds how many threads of one program may hold the role;
	// 0 means unlimited.
	Max int
}

// Op is one named client operation of a data structure, as the fuzzer
// may generate it.
type Op struct {
	// Name identifies the operation ("push", "take", ...).
	Name string
	// Role is the thread role required to run the op ("" = any thread).
	Role string
	// Arity is the number of value arguments the op takes.
	Arity int
	// Produces/Consumes describe the op's effect on the structure's item
	// balance. They gate generation for structures with blocking ops
	// (see Registry.Blocking/Capacity): a generated program must never be
	// able to block forever, or every campaign would drown in spurious
	// deadlock reports.
	Produces, Consumes int
	// Apply runs the operation against the instance built by
	// Registry.New. args has exactly Arity elements.
	Apply func(inst any, t *checker.Thread, args []memmodel.Value)
}

// Registry describes the fuzzable client surface of one data structure.
// Each structure package exports one via its FuzzOps function; the
// harness wires it onto the corresponding Benchmark.
type Registry struct {
	// Structure is the short package-style name ("chaselev"), used in
	// rendered pseudocode.
	Structure string
	// New builds one instance on the root thread, before any program
	// thread is spawned. The instance name it registers with the monitor
	// must match the benchmark's Spec name.
	New func(root *checker.Thread, ord *memmodel.OrderTable) any
	// Roles lists the thread roles. Empty means a single anonymous role:
	// every thread may run every op.
	Roles []Role
	// Ops lists the generable operations.
	Ops []Op
	// Blocking marks structures whose consume ops block (spin) until an
	// item is available. Generated programs must then satisfy
	// total(Consumes) <= total(Produces).
	Blocking bool
	// Capacity, when positive, marks structures whose produce ops block
	// while the structure holds Capacity items. Generated programs must
	// then satisfy total(Produces) <= total(Consumes) + Capacity.
	//
	// Together with Blocking and producer/consumer role separation this
	// guarantees deadlock-freedom of every valid program: producers
	// blocked on "full" and consumers blocked on "empty" cannot coexist,
	// and the balance bounds rule out one side outliving the other.
	Capacity int
}

// Op returns the named operation, or nil.
func (r *Registry) Op(name string) *Op {
	for i := range r.Ops {
		if r.Ops[i].Name == name {
			return &r.Ops[i]
		}
	}
	return nil
}

// roleMax returns the thread cap for a role (0 = unlimited) and whether
// the role exists. The anonymous role "" exists iff Roles is empty.
func (r *Registry) roleMax(name string) (int, bool) {
	if len(r.Roles) == 0 {
		return 0, name == ""
	}
	for _, role := range r.Roles {
		if role.Name == name {
			return role.Max, true
		}
	}
	return 0, false
}

// opsForRole returns the indices into Ops runnable by a thread holding
// the role, in declaration order.
func (r *Registry) opsForRole(role string) []int {
	var out []int
	for i := range r.Ops {
		if r.Ops[i].Role == "" || r.Ops[i].Role == role {
			out = append(out, i)
		}
	}
	return out
}

// Target bundles everything needed to fuzz one benchmark: the spec and
// order table the harness already has, plus the op registry.
type Target struct {
	// Name matches the harness benchmark name.
	Name string
	// Spec builds the CDSSpec specification.
	Spec func() *core.Spec
	// Orders returns the correct memory-order table. Campaigns may run
	// against a weakened clone to hunt a seeded bug.
	Orders func() *memmodel.OrderTable
	// Registry is the op registry.
	Registry *Registry
}

// Validate checks a program against the target's registry: known ops and
// roles, role caps, arities, and the blocking-balance constraints. Every
// program the generator emits validates; the shrinker uses Validate to
// reject reductions that would leave a program able to block forever.
func (t *Target) Validate(p *Program) error {
	if p == nil {
		return fmt.Errorf("nil program")
	}
	reg := t.Registry
	roleCount := map[string]int{}
	produces, consumes := 0, 0
	for ti, ts := range p.Threads {
		max, ok := reg.roleMax(ts.Role)
		if !ok {
			return fmt.Errorf("thread %d: unknown role %q for %s", ti, ts.Role, reg.Structure)
		}
		roleCount[ts.Role]++
		if max > 0 && roleCount[ts.Role] > max {
			return fmt.Errorf("thread %d: role %q exceeds its cap of %d", ti, ts.Role, max)
		}
		for oi, oc := range ts.Ops {
			op := reg.Op(oc.Op)
			if op == nil {
				return fmt.Errorf("thread %d op %d: unknown op %q for %s", ti, oi, oc.Op, reg.Structure)
			}
			if op.Role != "" && op.Role != ts.Role {
				return fmt.Errorf("thread %d op %d: op %q requires role %q, thread has %q",
					ti, oi, oc.Op, op.Role, ts.Role)
			}
			if len(oc.Args) != op.Arity {
				return fmt.Errorf("thread %d op %d: op %q wants %d args, got %d",
					ti, oi, oc.Op, op.Arity, len(oc.Args))
			}
			produces += op.Produces
			consumes += op.Consumes
		}
	}
	if reg.Blocking && consumes > produces {
		return fmt.Errorf("program consumes %d items but produces only %d: a blocking consume could never return",
			consumes, produces)
	}
	if reg.Capacity > 0 && produces > consumes+reg.Capacity {
		return fmt.Errorf("program produces %d items against %d consumes + capacity %d: a blocked produce could never return",
			produces, consumes, reg.Capacity)
	}
	return nil
}

// Render compiles a program into the Progs-style closure the explorer
// runs: build the instance on the root thread, spawn one simulated
// thread per program thread, run its op sequence, join them all. ord nil
// means the target's default orders.
func (t *Target) Render(p *Program, ord *memmodel.OrderTable) (func(*checker.Thread), error) {
	if err := t.Validate(p); err != nil {
		return nil, fmt.Errorf("rendering %s program: %w", t.Name, err)
	}
	if ord == nil {
		ord = t.Orders()
	}
	reg := t.Registry
	// Thread names and ops are resolved here, once per program, rather
	// than in every execution the closure runs.
	type call struct {
		apply func(inst any, t *checker.Thread, args []memmodel.Value)
		args  []memmodel.Value
	}
	names := make([]string, len(p.Threads))
	calls := make([][]call, len(p.Threads))
	for i, ts := range p.Threads {
		names[i] = fmt.Sprintf("t%d", i)
		calls[i] = make([]call, len(ts.Ops))
		for j, oc := range ts.Ops {
			calls[i][j] = call{reg.Op(oc.Op).Apply, oc.Args}
		}
	}
	return func(root *checker.Thread) {
		inst := reg.New(root, ord)
		kids := make([]*checker.Thread, len(calls))
		for i, cs := range calls {
			kids[i] = root.Spawn(names[i], func(tt *checker.Thread) {
				for _, c := range cs {
					c.apply(inst, tt, c.args)
				}
			})
		}
		for _, k := range kids {
			root.Join(k)
		}
	}, nil
}
