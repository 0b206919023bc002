// Package core implements CDSSpec, the paper's contribution: a
// specification checker for concurrent data structures under the C/C++11
// memory model.
//
// A specification (Spec) relates a concurrent data structure to an
// equivalent sequential data structure. Data-structure code is
// instrumented with the annotations of the paper's specification language
// — method boundaries and ordering points — as direct calls on a Monitor
// (the output the paper's specification compiler would generate). After
// the checker completes an execution, the Monitor:
//
//  1. extracts the ordering relation ~r~ over method calls from the
//     happens-before and seq_cst ordering of their ordering points,
//  2. checks admissibility (Definition 1),
//  3. enumerates valid sequential histories (Definition 2) and replays
//     the equivalent sequential data structure over each, checking
//     preconditions, side effects, and postconditions,
//  4. checks that every non-deterministic behavior is justified by a
//     justifying subhistory or by the set of concurrent method calls
//     (Definitions 3–5).
package core

import (
	"fmt"
	"strings"

	"repro/internal/memmodel"
)

// Call records one API method call in an execution: the paper's method
// invocation/response pair plus its dynamic information and ordering
// points. A Call belongs to its Monitor's arena and is valid until the
// worker's next execution, which reuses the record (see Monitor.Calls).
type Call struct {
	// ID is the index of the call in the execution (program order of
	// invocation events).
	ID int
	// Thread is the simulated thread that made the call.
	Thread int
	// Name is the API method name.
	Name string
	// Args are the argument values at invocation.
	Args []memmodel.Value
	// Ret is the return value at response (C_RET in the paper).
	Ret memmodel.Value
	// HasRet distinguishes void methods.
	HasRet bool

	// OPs are the resolved ordering points.
	OPs []*memmodel.Action
	// potentials are PotentialOP annotations awaiting an OPCheck.
	potentials []potentialOP

	// SRet is scratch space for specs: the sequential return value
	// (S_RET in the paper), written by SideEffect, read by PostCondition.
	SRet memmodel.Value
	// aux is extra scratch space for specs that need more than SRet
	// (SetAux/GetAux), kept sorted by key so both fingerprints serialize
	// it in key order without sorting.
	aux []auxValue

	ended bool
	// ctx is the instrumentation handle Begin returns for this call.
	ctx CallCtx
	// fp caches the call's entry in the monitor's reduction fingerprint
	// (reduce.go), valid while fpOK holds. Every mutator of the fields
	// the entry hashes clears fpOK (invalidate).
	fp   reducePair
	fpOK bool
}

type potentialOP struct {
	label string
	act   *memmodel.Action
}

type auxValue struct {
	key string
	v   memmodel.Value
}

// Arg returns the i-th argument (0 if absent), a convenience for specs.
func (c *Call) Arg(i int) memmodel.Value {
	if i < 0 || i >= len(c.Args) {
		return 0
	}
	return c.Args[i]
}

// SetAux stores a named scratch value on the call.
func (c *Call) SetAux(key string, v memmodel.Value) {
	c.invalidate()
	i := 0
	for i < len(c.aux) && c.aux[i].key < key {
		i++
	}
	if i < len(c.aux) && c.aux[i].key == key {
		c.aux[i].v = v
		return
	}
	c.aux = append(c.aux, auxValue{})
	copy(c.aux[i+1:], c.aux[i:])
	c.aux[i] = auxValue{key, v}
}

// GetAux reads a named scratch value (0 if absent).
func (c *Call) GetAux(key string) memmodel.Value {
	for _, a := range c.aux {
		if a.key == key {
			return a.v
		}
	}
	return 0
}

// String renders the call for diagnostics, e.g. "deq()/-1 [T2 #5]".
func (c *Call) String() string {
	var b strings.Builder
	b.WriteString(c.Name)
	b.WriteByte('(')
	for i, a := range c.Args {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%d", int64(a))
	}
	b.WriteByte(')')
	if c.HasRet {
		fmt.Fprintf(&b, "/%d", int64(c.Ret))
	}
	fmt.Fprintf(&b, " [T%d #%d]", c.Thread, c.ID)
	return b.String()
}

// formatHistory renders a sequential history for diagnostics.
func formatHistory(h []*Call) string {
	parts := make([]string, len(h))
	for i, c := range h {
		parts[i] = c.String()
	}
	return strings.Join(parts, " ; ")
}
