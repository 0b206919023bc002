package checker

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/checker/model"
	"repro/internal/memmodel"
)

// TestConfigValidate pins the rejection of configurations that earlier
// versions silently mishandled: FastMode quietly ignored checkpoint and
// resume settings instead of refusing them.
func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string // substring of the error, "" = valid
	}{
		{"zero", Config{}, ""},
		{"model-c11", Config{Model: model.C11}, ""},
		{"model-sc", Config{Model: model.SC}, ""},
		{"model-scatomics", Config{Model: model.SCAtomics}, ""},
		{"model-unknown", Config{Model: "tso"}, "unknown memory model"},
		{"store-bound-one-clamps", Config{storeBound: 1}, ""}, // documented min-clamp, not an error
		{"fastmode-plain", Config{FastMode: true}, ""},
		{"fastmode-checkpoint", Config{FastMode: true, Checkpoint: func(*Checkpoint) {}}, "cannot checkpoint"},
		{"fastmode-checkpoint-every", Config{FastMode: true, CheckpointEvery: 1}, "cannot checkpoint"},
		{"fastmode-resume", Config{FastMode: true, ResumeFrom: &Checkpoint{}}, "cannot resume"},
		{"fastmode-progress", Config{FastMode: true, Progress: func(Progress) {}}, "cannot report Progress"},
		// Checkpoint-interval misconfigurations: a negative interval used
		// to fall through every `> 0` guard (behaving as "final snapshot
		// only" while still forcing the engine), and a positive interval
		// without a sink ticked a snapshot loop that delivered nowhere.
		{"negative-checkpoint-every", Config{CheckpointEvery: -1, Checkpoint: func(*Checkpoint) {}}, "CheckpointEvery must be >= 0"},
		{"checkpoint-every-no-sink", Config{CheckpointEvery: 1}, "no Checkpoint sink"},
		{"checkpoint-final-only", Config{Checkpoint: func(*Checkpoint) {}}, ""}, // 0 interval with a sink = final snapshot only
		{"checkpoint-periodic", Config{CheckpointEvery: 1, Checkpoint: func(*Checkpoint) {}}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.want)
			}
		})
	}
}

// TestExplorePanicsOnInvalidConfig: Explore treats an invalid Config like
// an invalid checkpoint — a caller bug, reported by panic.
func TestExplorePanicsOnInvalidConfig(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Explore accepted FastMode + ResumeFrom without panicking")
		}
		if s, ok := r.(string); !ok || !strings.Contains(s, "cannot resume") {
			t.Fatalf("unexpected panic value: %v", r)
		}
	}()
	Explore(Config{FastMode: true, ResumeFrom: &Checkpoint{}}, func(root *Thread) {})
}

// routingProg is a tiny exhaustible program (relaxed SB) for the routing
// tests: DFS exhausts it in well under 100 executions, so a
// bounded sampling engine (Executions == budget, Exhausted == false) is
// distinguishable from the DFS engine (Exhausted == true).
func routingProg(root *Thread) {
	x := root.NewAtomicInit("x", 0)
	y := root.NewAtomicInit("y", 0)
	a := root.Spawn("a", func(tt *Thread) {
		x.Store(tt, memmodel.Relaxed, 1)
		_ = y.Load(tt, memmodel.Relaxed)
	})
	b := root.Spawn("b", func(tt *Thread) {
		y.Store(tt, memmodel.Relaxed, 1)
		_ = x.Load(tt, memmodel.Relaxed)
	})
	root.Join(a)
	root.Join(b)
}

// TestEngineRoutingPrecedence pins the documented routing (FastMode >
// the work-stealing DFS engine) through observable engine behavior.
func TestEngineRoutingPrecedence(t *testing.T) {
	// The DFS engine serves every other run, at any Parallelism: it
	// exhausts, delivers the final checkpoint snapshot, and its result
	// does not depend on the worker count.
	var dfs *Result
	for _, par := range []int{0, 1, 4} {
		cpCalls := 0
		res := Explore(Config{Parallelism: par, Checkpoint: func(*Checkpoint) { cpCalls++ }}, routingProg)
		if !res.Exhausted {
			t.Fatalf("Parallelism %d: DFS did not exhaust: %v", par, res)
		}
		if cpCalls == 0 {
			t.Errorf("Parallelism %d: the DFS engine never delivered the final checkpoint snapshot", par)
		}
		if dfs == nil {
			dfs = res
		} else {
			requireIdentical(t, fmt.Sprintf("Parallelism %d", par), dfs, res)
		}
	}
	if dfs.Executions >= 100 {
		t.Fatalf("routing program too large for the routing probes: %d executions", dfs.Executions)
	}

	// FastMode outranks the DFS engine: even with Parallelism set, the run
	// is a fixed sampling budget, never an exhausting DFS.
	fast := Explore(Config{FastMode: true, MaxExecutions: 100, Parallelism: 4, Seed: 3}, routingProg)
	if fast.Exhausted || fast.Executions != 100 {
		t.Errorf("FastMode + Parallelism routed wrong: exhausted=%v executions=%d, want false/100",
			fast.Exhausted, fast.Executions)
	}
}
