package checker_test

import (
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/checker"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/memmodel"
)

// These tests drive each paper benchmark's primary unit test through the
// bare checker, which exercises the memory-model kernel alone, and
// through core.Explore, which adds the spec monitor and the spec cache.

// hotPathCap bounds the two workloads whose full trees are too large to
// explore twice per test run (159 076 and 84 435 executions). The other
// eight run exhaustively. The capped runs cover the same DFS prefix in
// both configurations, because one worker explores in a fixed order.
var hotPathCap = map[string]int{
	"MPMC Queue": 2000,
	"Seqlock":    2000,
}

// TestKernelOptsPaperBenchmarks: turning every kernel hot-path
// optimization off leaves each paper benchmark's Result unchanged:
// Executions, Feasible, Pruned, the failure list and every non-timing
// Stats counter.
//
// The spec leg does the same through core.Explore. With pooling on, each
// worker records every execution into one reused Monitor and its Call
// records; with it off, every execution gets a fresh System and so a
// fresh Monitor, the reference. The per-execution spec fingerprints and
// the Result, whose Stats carry the spec counters (histories,
// admissibility checks, justify searches, cache hits, misses and
// entries), must agree: in order at one worker, and as sorted lists at
// four, where several workers share each shard's spec cache.
func TestKernelOptsPaperBenchmarks(t *testing.T) {
	for _, b := range harness.Benchmarks() {
		t.Run(b.Name, func(t *testing.T) {
			prog := b.Progs(b.Orders())[0]
			cfg := checker.Config{MaxExecutions: hotPathCap[b.Name]}
			on := checker.NormalizeResult(checker.Explore(cfg, prog))
			off := checker.NormalizeResult(checker.Explore(checker.KernelOptsOff(cfg), prog))
			if on.Feasible == 0 {
				t.Fatalf("no feasible executions: %+v", on)
			}
			if !reflect.DeepEqual(on, off) {
				t.Errorf("Result differs with the optimizations off:\n on:  %+v\n off: %+v", on, off)
			}
			_, capped := hotPathCap[b.Name]
			checkSpecLeg(t, b.Spec, cfg, prog, !capped)
		})
	}
	// A call slot's method and aux keys differ between executions: which
	// thread begins first decides whether call 0 is "w" or "r", and "r"
	// sets an aux value only when its load reads 1. A reused Call record
	// that kept a previous execution's aux values or ordering points
	// would change the fingerprints.
	t.Run("call-slot-varies", func(t *testing.T) {
		spec := func() *core.Spec {
			return &core.Spec{
				Name:     "slots",
				NewState: func() core.State { return nil },
				Methods:  map[string]*core.MethodSpec{"w": {}, "r": {}},
			}
		}
		prog := func(root *checker.Thread) {
			mon := core.Of(root)
			x := root.NewAtomicInit("x", 0)
			w := root.Spawn("w", func(tt *checker.Thread) {
				c := mon.Begin(tt, "w", 1)
				x.Store(tt, memmodel.Release, 1)
				c.OPDefine(tt, true)
				c.EndVoid(tt)
			})
			r := root.Spawn("r", func(tt *checker.Thread) {
				c := mon.Begin(tt, "r")
				v := x.Load(tt, memmodel.Acquire)
				c.OPDefine(tt, true)
				if v == 1 {
					c.SetAux("saw", v)
				}
				c.End(tt, v)
			})
			root.Join(w)
			root.Join(r)
		}
		checkSpecLeg(t, spec, checker.Config{}, prog, true)
	})
}

// checkSpecLeg explores prog against spec with the kernel optimizations
// on and off and compares the Results and the per-execution spec
// fingerprints, at one worker and, when parallel is set, at four.
func checkSpecLeg(t *testing.T, spec func() *core.Spec, cfg checker.Config, prog func(*checker.Thread), parallel bool) {
	t.Helper()
	run := func(cfg checker.Config) (checker.Result, []uint64) {
		var mu sync.Mutex
		var fps []uint64
		cfg.OnExecution = func(sys *checker.System) []*checker.Failure {
			fp := core.FromSys(sys).Fingerprint()
			mu.Lock()
			fps = append(fps, fp)
			mu.Unlock()
			return nil
		}
		return checker.NormalizeResult(core.Explore(spec(), cfg, prog)), fps
	}
	on, onFPs := run(cfg)
	off, offFPs := run(checker.KernelOptsOff(cfg))
	if on.Feasible == 0 || len(onFPs) != on.Feasible {
		t.Fatalf("spec leg: %d fingerprints for %d feasible executions", len(onFPs), on.Feasible)
	}
	if !reflect.DeepEqual(on, off) {
		t.Errorf("spec leg: Result differs with the optimizations off:\n on:  %+v\n off: %+v", on, off)
	}
	if !slices.Equal(onFPs, offFPs) {
		t.Errorf("spec leg: fingerprint sequences differ with the optimizations off")
	}
	if !parallel {
		return
	}
	cfg.Parallelism = 4
	on4, on4FPs := run(cfg)
	off4, off4FPs := run(checker.KernelOptsOff(cfg))
	if !reflect.DeepEqual(on4, off4) {
		t.Errorf("spec leg, 4 workers: Result differs with the optimizations off:\n on:  %+v\n off: %+v", on4, off4)
	}
	slices.Sort(on4FPs)
	slices.Sort(off4FPs)
	if !slices.Equal(on4FPs, off4FPs) {
		t.Errorf("spec leg, 4 workers: fingerprint sets differ with the optimizations off")
	}
}

// TestFingerprintCacheMatchesRebuildSpec: along seeded random walks of
// each paper benchmark's primary unit test, with the spec monitor
// installed as core.Explore installs it, the incremental state
// fingerprint equals the from-scratch rebuild at every decision.
func TestFingerprintCacheMatchesRebuildSpec(t *testing.T) {
	for _, b := range harness.Benchmarks() {
		spec := b.Spec()
		cfg := checker.Config{OnRunStart: func(sys *checker.System) { core.Install(sys, spec) }}
		n, err := checker.WalkFingerprints(cfg, b.Progs(b.Orders())[0], 1, 200)
		if err != nil {
			t.Errorf("%s: %v", b.Name, err)
		}
		if n < 200 {
			t.Errorf("%s: %d checks over 200 walks", b.Name, n)
		}
	}
}

// BenchmarkExploreHotPath measures each paper benchmark's primary unit
// test explored exhaustively through the bare checker, with the kernel
// hot-path optimizations on ("opt", the defaults) and off ("base").
// Compare ns/op and allocs/op between the two modes.
func BenchmarkExploreHotPath(b *testing.B) {
	modes := []struct {
		name string
		cfg  checker.Config
	}{
		{"opt", checker.Config{}},
		{"base", checker.KernelOptsOff(checker.Config{})},
	}
	for _, bm := range harness.Benchmarks() {
		prog := bm.Progs(bm.Orders())[0]
		for _, mode := range modes {
			b.Run(bm.Name+"/"+mode.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res := checker.Explore(mode.cfg, prog)
					if res.Feasible == 0 {
						b.Fatalf("no feasible executions for %s", bm.Name)
					}
				}
			})
		}
	}
}

// BenchmarkExploreReduced measures the reduction layer as `cdsspec
// explore` runs it: each paper benchmark's primary unit test and the
// 3+3 M&S workload through core.Explore with every reduction on, at one
// worker. Each iteration is one full exploration; compare ns/op and
// allocs/op across commits.
func BenchmarkExploreReduced(b *testing.B) {
	type row struct {
		name string
		spec func() *core.Spec
		prog func(*checker.Thread)
	}
	var rows []row
	for _, bm := range harness.Benchmarks() {
		rows = append(rows, row{bm.Name, bm.Spec, bm.Progs(bm.Orders())[0]})
	}
	ms := harness.BenchmarkByName("M&S Queue")
	rows = append(rows, row{"M&S Queue 3+3", ms.Spec, harness.MSQueue3x3(ms.Orders())})
	cfg := checker.Config{Parallelism: 1, Reduce: checker.ReduceAll()}
	for _, r := range rows {
		b.Run(r.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res := core.Explore(r.spec(), cfg, r.prog)
				if res.Feasible == 0 || res.Stats.RFClasses == 0 {
					b.Fatalf("%s: no feasible executions or rf classes", r.name)
				}
			}
		})
	}
}
