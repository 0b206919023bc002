package checker

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/memmodel"
)

// KernelOptsOff returns cfg with every kernel hot-path optimization set
// to its reference setting: no visibility-floor cache, fresh state for
// every execution (the pool drops what it holds), a compaction threshold
// no location reaches, and no pinned replay records. Results must be
// identical either way; the tests here and in package checker_test
// compare against it.
func KernelOptsOff(cfg Config) Config {
	cfg.disableFloorCache = true
	cfg.disablePooling = true
	cfg.compactThreshold = math.MaxInt
	cfg.disableReplayPinning = true
	return cfg
}

// NormalizeResult exposes normalizeResult to package checker_test.
var NormalizeResult = normalizeResult

// TestExportDOT: the DOT export contains every thread cluster, the
// accessed locations, and a reads-from edge.
func TestExportDOT(t *testing.T) {
	var dot string
	cfg := Config{
		MaxExecutions: 1,
		OnExecution: func(sys *System) []*Failure {
			dot = ExportDOT(sys)
			return nil
		},
	}
	res := Explore(cfg, func(root *Thread) {
		x := root.NewAtomicInit("shared", 0)
		a := root.Spawn("a", func(tt *Thread) { x.Store(tt, memmodel.Release, 1) })
		b := root.Spawn("b", func(tt *Thread) { _ = x.Load(tt, memmodel.Acquire) })
		root.Join(a)
		root.Join(b)
	})
	if res.Feasible == 0 {
		t.Fatalf("no feasible execution: %v", res)
	}
	for _, want := range []string{
		"digraph execution",
		"cluster_t0", "cluster_t1", "cluster_t2",
		"shared",
		`label="rf"`,
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT export missing %q:\n%s", want, dot)
		}
	}
}

// TestExportDOTRelations: across an exhaustive exploration of a
// release/acquire message-passing shape with a seq_cst fence, the DOT
// export draws every cross-thread relation at least once — rf, mo, sw
// (acquire load reading a release store), and the fence's sc edges —
// and the legend comment is present.
func TestExportDOTRelations(t *testing.T) {
	var all strings.Builder
	cfg := Config{
		OnExecution: func(sys *System) []*Failure {
			all.WriteString(ExportDOT(sys))
			return nil
		},
	}
	res := Explore(cfg, func(root *Thread) {
		x := root.NewAtomicInit("x", 0)
		a := root.Spawn("a", func(tt *Thread) {
			x.Store(tt, memmodel.Release, 1)
			Fence(tt, memmodel.SeqCst)
			x.Store(tt, memmodel.SeqCst, 2)
		})
		b := root.Spawn("b", func(tt *Thread) {
			_ = x.Load(tt, memmodel.Acquire)
		})
		root.Join(a)
		root.Join(b)
	})
	if res.Feasible == 0 {
		t.Fatalf("no feasible execution: %v", res)
	}
	dot := all.String()
	for _, want := range []string{
		"// edges: sb dotted; rf red; mo blue; sw green bold; sc(fence) gray dashed",
		`label="rf"`, `label="mo"`, `label="sw"`, `label="sc"`,
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("no execution's DOT export contained %q", want)
		}
	}
}

// TestExportDOTSortedChains: with two threads interleaving several
// actions each, every sequenced-before edge runs from a lower action ID
// to a higher one — the per-thread chains are ID-sorted regardless of
// trace interleaving.
func TestExportDOTSortedChains(t *testing.T) {
	checked := 0
	cfg := Config{
		OnExecution: func(sys *System) []*Failure {
			for _, line := range strings.Split(ExportDOT(sys), "\n") {
				if !strings.Contains(line, "style=dotted") {
					continue
				}
				var from, to int
				if _, err := fmt.Sscanf(strings.TrimSpace(line), "a%d -> a%d", &from, &to); err != nil {
					t.Fatalf("unparseable sb edge %q: %v", line, err)
				}
				if from >= to {
					t.Errorf("sb edge a%d -> a%d not in ID order:\n%s", from, to, line)
				}
				checked++
			}
			return nil
		},
	}
	Explore(cfg, func(root *Thread) {
		x := root.NewAtomicInit("x", 0)
		y := root.NewAtomicInit("y", 0)
		a := root.Spawn("a", func(tt *Thread) {
			x.Store(tt, memmodel.Relaxed, 1)
			y.Store(tt, memmodel.Relaxed, 1)
			_ = x.Load(tt, memmodel.Relaxed)
		})
		b := root.Spawn("b", func(tt *Thread) {
			y.Store(tt, memmodel.Relaxed, 2)
			x.Store(tt, memmodel.Relaxed, 2)
			_ = y.Load(tt, memmodel.Relaxed)
		})
		root.Join(a)
		root.Join(b)
	})
	if checked == 0 {
		t.Fatal("no sequenced-before edges examined")
	}
}

// TestExportDOTFailureHighlight: a failing execution's failure site is
// drawn filled red.
func TestExportDOTFailureHighlight(t *testing.T) {
	var dot string
	cfg := Config{
		MaxExecutions: 1,
		OnExecution: func(sys *System) []*Failure {
			// Attach a failure at the trace's last action, as failf does,
			// and export — the in-package equivalent of dumping a real
			// failing execution.
			sys.failure = &Failure{Kind: FailAssertion, Msg: "boom", ActionID: sys.lastActionID()}
			dot = ExportDOT(sys)
			return nil
		},
	}
	Explore(cfg, func(root *Thread) {
		x := root.NewAtomicInit("x", 0)
		x.Store(root, memmodel.Relaxed, 1)
	})
	if !strings.Contains(dot, "style=filled, fillcolor=red, fontcolor=white") {
		t.Errorf("failure action not highlighted:\n%s", dot)
	}
}

// TestExportJSON: the JSON trace round-trips and carries the relations —
// rf on reading loads, mo on stores, sc on seq_cst actions, memory
// orders on atomics and fences.
func TestExportJSON(t *testing.T) {
	var blob []byte
	cfg := Config{
		MaxExecutions: 1,
		OnExecution: func(sys *System) []*Failure {
			var err error
			if blob, err = ExportJSON(sys); err != nil {
				t.Fatalf("ExportJSON: %v", err)
			}
			return nil
		},
	}
	Explore(cfg, func(root *Thread) {
		p := root.NewPlainInit("plain", 0)
		x := root.NewAtomicInit("x", 0)
		x.Store(root, memmodel.SeqCst, 7)
		_ = x.Load(root, memmodel.Acquire)
		Fence(root, memmodel.SeqCst)
		p.Store(root, 1)
	})
	var tr TraceJSON
	if err := json.Unmarshal(blob, &tr); err != nil {
		t.Fatalf("trace does not round-trip: %v\n%s", err, blob)
	}
	if tr.Threads == 0 || len(tr.Actions) == 0 {
		t.Fatalf("implausible trace header: %+v", tr)
	}
	var sawRF, sawMO, sawSC, sawOrder, sawPlain bool
	for _, a := range tr.Actions {
		if a.RF != nil {
			sawRF = true
		}
		if a.MO != nil {
			sawMO = true
		}
		if a.SC != nil {
			sawSC = true
		}
		if a.Order != "" {
			sawOrder = true
		}
		if a.Loc == "plain" && a.Order == "" {
			sawPlain = true
		}
	}
	if !sawRF || !sawMO || !sawSC || !sawOrder || !sawPlain {
		t.Errorf("trace missing relations (rf=%v mo=%v sc=%v order=%v plain=%v):\n%s",
			sawRF, sawMO, sawSC, sawOrder, sawPlain, blob)
	}
	if tr.Failure != nil {
		t.Errorf("clean execution should have no failure: %+v", tr.Failure)
	}
}

// TestExportDOTFenceAndPlain: fences and plain accesses render too.
func TestExportDOTFenceAndPlain(t *testing.T) {
	var dot string
	cfg := Config{
		MaxExecutions: 1,
		OnExecution: func(sys *System) []*Failure {
			dot = ExportDOT(sys)
			return nil
		},
	}
	Explore(cfg, func(root *Thread) {
		p := root.NewPlainInit("plainloc", 0)
		p.Store(root, 3)
		_ = p.Load(root)
		Fence(root, memmodel.SeqCst)
	})
	if !strings.Contains(dot, "plainloc") || !strings.Contains(dot, "fence(seq_cst)") {
		t.Errorf("DOT export missing plain/fence nodes:\n%s", dot)
	}
}
