package checker

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"repro/internal/memmodel"
)

// ExportDOT renders the execution's action graph in Graphviz DOT format,
// the diagnostic view CDSChecker prints for buggy executions: one column
// per thread (sequenced-before edges) plus the cross-thread relations of
// the C/C++11 model.
//
// Edge legend:
//
//	dotted black, no arrowhead — sb (sequenced-before, per-thread order)
//	red "rf"                   — reads-from (store to the load observing it)
//	blue "mo"                  — modification order (consecutive stores of
//	                             one atomic location)
//	darkgreen bold "sw"        — synchronizes-with (release store or
//	                             release sequence read by an acquire load)
//	gray dashed "sc"           — consecutive seq_cst pairs involving a
//	                             fence (the fence's position in the total
//	                             order S)
//
// When the execution failed, the action the failure was detected at is
// drawn filled red.
func ExportDOT(sys *System) string {
	var b strings.Builder
	b.WriteString("digraph execution {\n")
	b.WriteString("  // edges: sb dotted; rf red; mo blue; sw green bold; sc(fence) gray dashed\n")
	b.WriteString("  rankdir=TB;\n  node [shape=box, fontsize=10];\n")

	failAction := -1
	if f := sys.Failure(); f != nil && f.ActionID > 0 {
		failAction = f.ActionID
	}

	byThread := map[int][]*memmodel.Action{}
	maxTid := 0
	for _, a := range sys.Actions() {
		byThread[a.Thread] = append(byThread[a.Thread], a)
		if a.Thread > maxTid {
			maxTid = a.Thread
		}
	}
	for tid := 0; tid <= maxTid; tid++ {
		acts := byThread[tid]
		if len(acts) == 0 {
			continue
		}
		// The trace is appended in execution order, so each per-thread
		// slice should already be ID-sorted — but the sb chain must hold
		// even if a future refactor reorders the trace, so sort
		// defensively rather than trust slice order.
		sort.Slice(acts, func(i, j int) bool { return acts[i].ID < acts[j].ID })
		fmt.Fprintf(&b, "  subgraph cluster_t%d {\n    label=\"T%d\";\n", tid, tid)
		for _, a := range acts {
			extra := ""
			if a.ID == failAction {
				extra = ", style=filled, fillcolor=red, fontcolor=white"
			}
			fmt.Fprintf(&b, "    a%d [label=%q%s];\n", a.ID, nodeLabel(a), extra)
		}
		b.WriteString("  }\n")
		// Sequenced-before chain.
		for i := 1; i < len(acts); i++ {
			fmt.Fprintf(&b, "  a%d -> a%d [style=dotted, arrowhead=none];\n",
				acts[i-1].ID, acts[i].ID)
		}
	}

	// Reads-from edges, plus synchronizes-with where the reading side is
	// an acquire and the store carries a release clock (it heads or
	// continues a release sequence). Fence-induced synchronization is
	// thread-wide rather than per-pair, so it is not drawn as sw.
	withSync := map[int]bool{}
	for _, loc := range sys.locs {
		for _, st := range loc.stores {
			if st.sync != nil {
				withSync[st.act.ID] = true
			}
		}
	}
	for _, a := range sys.Actions() {
		if a.RF == nil {
			continue
		}
		if a.Kind.IsAtomic() && a.Order.IsAcquire() && withSync[a.RF.ID] {
			fmt.Fprintf(&b, "  a%d -> a%d [color=darkgreen, style=bold, label=\"sw\", fontsize=8];\n",
				a.RF.ID, a.ID)
		}
		fmt.Fprintf(&b, "  a%d -> a%d [color=red, label=\"rf\", fontsize=8];\n",
			a.RF.ID, a.ID)
	}

	// Modification-order edges: consecutive stores per atomic location.
	for _, loc := range sys.locs {
		if !loc.atomic {
			continue
		}
		for i := 1; i < len(loc.stores); i++ {
			fmt.Fprintf(&b, "  a%d -> a%d [color=blue, label=\"mo\", fontsize=8];\n",
				loc.stores[i-1].act.ID, loc.stores[i].act.ID)
		}
	}

	// Fence placement in the seq_cst total order S: edges between
	// consecutive SC actions where at least one endpoint is a fence
	// (drawing all of S would clutter the graph; the memory-access part
	// of S is already visible through the S<n> node labels).
	var scActs []*memmodel.Action
	for _, a := range sys.Actions() {
		if a.SCIndex >= 0 {
			scActs = append(scActs, a)
		}
	}
	sort.Slice(scActs, func(i, j int) bool { return scActs[i].SCIndex < scActs[j].SCIndex })
	for i := 1; i < len(scActs); i++ {
		prev, cur := scActs[i-1], scActs[i]
		if prev.Kind != memmodel.KindFence && cur.Kind != memmodel.KindFence {
			continue
		}
		fmt.Fprintf(&b, "  a%d -> a%d [color=gray, style=dashed, label=\"sc\", fontsize=8];\n",
			prev.ID, cur.ID)
	}

	b.WriteString("}\n")
	return b.String()
}

func nodeLabel(a *memmodel.Action) string {
	switch {
	case a.Kind.IsAtomic():
		rmw := ""
		if a.Kind == memmodel.KindAtomicRMW {
			rmw = "rmw "
		}
		op := "R"
		if a.Kind == memmodel.KindAtomicStore || a.Kind == memmodel.KindAtomicRMW {
			op = "W"
		}
		sc := ""
		if a.SCIndex >= 0 {
			sc = fmt.Sprintf(" S%d", a.SCIndex)
		}
		return fmt.Sprintf("#%d %s%s %s=%d (%s)%s", a.ID, rmw, op, a.LocName, a.Value, a.Order, sc)
	case a.Kind == memmodel.KindPlainLoad:
		return fmt.Sprintf("#%d r %s=%d", a.ID, a.LocName, a.Value)
	case a.Kind == memmodel.KindPlainStore:
		return fmt.Sprintf("#%d w %s=%d", a.ID, a.LocName, a.Value)
	case a.Kind == memmodel.KindFence:
		return fmt.Sprintf("#%d fence(%s)", a.ID, a.Order)
	default:
		return fmt.Sprintf("#%d %s", a.ID, a.Kind)
	}
}

// ActionJSON is the machine-readable form of one trace action.
type ActionJSON struct {
	ID     int    `json:"id"`
	Thread int    `json:"thread"`
	Kind   string `json:"kind"`
	// Order is set for atomic accesses and fences.
	Order string `json:"order,omitempty"`
	Loc   string `json:"loc,omitempty"`
	Value uint64 `json:"value"`
	// RF is the ID of the store a load read from.
	RF *int `json:"rf,omitempty"`
	// MO is the store's index in its location's modification order.
	MO *int `json:"mo,omitempty"`
	// SC is the action's position in the seq_cst total order.
	SC *int `json:"sc,omitempty"`
}

// TraceJSON is the machine-readable form of one execution: the trace with
// the model's relations made explicit, plus the failure it exposed, if
// any. It is the JSON counterpart of ExportDOT.
type TraceJSON struct {
	Threads int          `json:"threads"`
	Actions []ActionJSON `json:"actions"`
	Failure *Failure     `json:"failure,omitempty"`
}

// ExportJSON renders the execution as an indented JSON document.
func ExportJSON(sys *System) ([]byte, error) {
	t := TraceJSON{
		Threads: len(sys.threads),
		Failure: sys.Failure(),
	}
	for _, a := range sys.Actions() {
		ja := ActionJSON{
			ID:     a.ID,
			Thread: a.Thread,
			Kind:   a.Kind.String(),
			Loc:    a.LocName,
			Value:  a.Value,
		}
		if a.Kind.IsAtomic() || a.Kind == memmodel.KindFence {
			ja.Order = a.Order.String()
		}
		if a.RF != nil {
			rf := a.RF.ID
			ja.RF = &rf
		}
		if a.Kind.IsWrite() {
			mo := a.MOIndex
			ja.MO = &mo
		}
		if a.SCIndex >= 0 {
			sc := a.SCIndex
			ja.SC = &sc
		}
		t.Actions = append(t.Actions, ja)
	}
	return json.MarshalIndent(&t, "", "  ")
}
