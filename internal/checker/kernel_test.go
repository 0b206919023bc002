package checker

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/memmodel"
)

// This file pins down the kernel hot-path optimizations (floor caching,
// execution pooling, load compaction, replay pinning): every one of them
// is a pure performance transformation, so exploration results must be
// bit-identical with each of them on or off, sequentially and in
// parallel.

// kernelProg is a litmus program that reports per-execution outcomes.
type kernelProg struct {
	name string
	prog func(root *Thread, report func(string))
}

// kernelProgs is a suite chosen to exercise every optimized path: the
// floor cache (relaxed loads with many readable stores), SC floors
// (IRIW, fences), load compaction (long read-read coherence histories),
// replay pinning (deep DFS trees with value branching), pooling
// (spawn/join churn, mutexes), and failure reporting (races, deadlock).
var kernelProgs = []kernelProg{
	{"store-buffering", func(root *Thread, report func(string)) {
		x := root.NewAtomicInit("x", 0)
		y := root.NewAtomicInit("y", 0)
		var r0, r1 memmodel.Value
		a := root.Spawn("a", func(tt *Thread) {
			x.Store(tt, memmodel.Relaxed, 1)
			r0 = y.Load(tt, memmodel.Relaxed)
		})
		b := root.Spawn("b", func(tt *Thread) {
			y.Store(tt, memmodel.Relaxed, 1)
			r1 = x.Load(tt, memmodel.Relaxed)
		})
		root.Join(a)
		root.Join(b)
		report(fmt.Sprintf("r0=%d r1=%d", r0, r1))
	}},
	{"mp-acquire-release", func(root *Thread, report func(string)) {
		x := root.NewAtomicInit("x", 0)
		flag := root.NewAtomicInit("flag", 0)
		w := root.Spawn("writer", func(tt *Thread) {
			x.Store(tt, memmodel.Relaxed, 42)
			flag.Store(tt, memmodel.Release, 1)
		})
		var f, v memmodel.Value
		r := root.Spawn("reader", func(tt *Thread) {
			f = flag.Load(tt, memmodel.Acquire)
			v = x.Load(tt, memmodel.Relaxed)
		})
		root.Join(w)
		root.Join(r)
		report(fmt.Sprintf("f=%d v=%d", f, v))
	}},
	{"iriw-sc", func(root *Thread, report func(string)) {
		x := root.NewAtomicInit("x", 0)
		y := root.NewAtomicInit("y", 0)
		w1 := root.Spawn("w1", func(tt *Thread) { x.Store(tt, memmodel.SeqCst, 1) })
		w2 := root.Spawn("w2", func(tt *Thread) { y.Store(tt, memmodel.SeqCst, 1) })
		var a, b, c, d memmodel.Value
		r1 := root.Spawn("r1", func(tt *Thread) {
			a = x.Load(tt, memmodel.SeqCst)
			b = y.Load(tt, memmodel.SeqCst)
		})
		r2 := root.Spawn("r2", func(tt *Thread) {
			c = y.Load(tt, memmodel.SeqCst)
			d = x.Load(tt, memmodel.SeqCst)
		})
		root.Join(w1)
		root.Join(w2)
		root.Join(r1)
		root.Join(r2)
		report(fmt.Sprintf("a=%d b=%d c=%d d=%d", a, b, c, d))
	}},
	{"fence-mp", func(root *Thread, report func(string)) {
		x := root.NewAtomicInit("x", 0)
		y := root.NewAtomicInit("y", 0)
		a := root.Spawn("a", func(tt *Thread) {
			x.Store(tt, memmodel.Relaxed, 1)
			Fence(tt, memmodel.SeqCst)
			_ = y.Load(tt, memmodel.Relaxed)
		})
		var r memmodel.Value
		b := root.Spawn("b", func(tt *Thread) {
			y.Store(tt, memmodel.Relaxed, 1)
			Fence(tt, memmodel.SeqCst)
			r = x.Load(tt, memmodel.Acquire)
		})
		root.Join(a)
		root.Join(b)
		report(fmt.Sprintf("r=%d", r))
	}},
	{"cas-contention", func(root *Thread, report func(string)) {
		c := root.NewAtomicInit("c", 0)
		worker := func(tt *Thread) {
			for {
				old := c.Load(tt, memmodel.Relaxed)
				if _, ok := c.CAS(tt, old, old+1, memmodel.AcqRel, memmodel.Relaxed); ok {
					return
				}
			}
		}
		a := root.Spawn("a", worker)
		b := root.Spawn("b", worker)
		root.Join(a)
		root.Join(b)
		report(fmt.Sprintf("c=%d", c.Load(root, memmodel.Relaxed)))
	}},
	{"load-history", func(root *Thread, report func(string)) {
		// Long read-read coherence history on one location: the writer
		// grows the modification order while two readers pile up loadRec
		// entries, so compaction (threshold permitting) has dominated
		// records to discard mid-exploration.
		x := root.NewAtomicInit("x", 0)
		w := root.Spawn("w", func(tt *Thread) {
			for i := 1; i <= 3; i++ {
				x.Store(tt, memmodel.Release, memmodel.Value(i))
			}
		})
		reader := func(out *memmodel.Value, loads int) func(*Thread) {
			return func(tt *Thread) {
				var last memmodel.Value
				for i := 0; i < loads; i++ {
					last = x.Load(tt, memmodel.Acquire)
				}
				*out = last
			}
		}
		var ra, rb memmodel.Value
		a := root.Spawn("a", reader(&ra, 3))
		b := root.Spawn("b", reader(&rb, 2))
		root.Join(w)
		root.Join(a)
		root.Join(b)
		report(fmt.Sprintf("ra=%d rb=%d", ra, rb))
	}},
	{"mutex-race", func(root *Thread, report func(string)) {
		// A guarded counter plus an unguarded plain access: exercises
		// mutex clock snapshots under pooling and produces data-race
		// failures whose indices must stay put.
		m := root.NewMutex("m")
		p := root.NewPlainInit("p", 0)
		flag := root.NewAtomicInit("flag", 0)
		a := root.Spawn("a", func(tt *Thread) {
			m.Lock(tt)
			p.Store(tt, 1)
			m.Unlock(tt)
			flag.Store(tt, memmodel.Relaxed, 1)
		})
		b := root.Spawn("b", func(tt *Thread) {
			if flag.Load(tt, memmodel.Relaxed) == 1 {
				_ = p.Load(tt) // racy: relaxed flag gives no ordering
			}
		})
		root.Join(a)
		root.Join(b)
		report("done")
	}},
}

// normalizeResult strips the timing exemption (wall-clock fields) so the
// remainder can be compared bit-for-bit.
func normalizeResult(r *Result) Result {
	cp := *r
	cp.Elapsed = 0
	cp.Stats = r.Stats.WithoutTimings()
	return cp
}

// runKernelProg explores p exhaustively under cfg. Outcomes are
// collected only when parallelism is 1 (the per-execution report slice
// is not sharded); parallel callers compare Results alone.
func runKernelProg(t *testing.T, cfg Config, p kernelProg) (Result, map[string]int) {
	t.Helper()
	outcomes := map[string]int{}
	var mu sync.Mutex
	var cur []string
	if cfg.Parallelism <= 1 {
		cfg.OnRunStart = func(sys *System) { cur = nil }
		cfg.OnExecution = func(sys *System) []*Failure {
			mu.Lock()
			for _, o := range cur {
				outcomes[o]++
			}
			mu.Unlock()
			return nil
		}
	}
	res := Explore(cfg, func(root *Thread) {
		p.prog(root, func(o string) {
			if cfg.Parallelism <= 1 {
				cur = append(cur, o)
			}
		})
	})
	if !res.Exhausted {
		t.Fatalf("%s: exploration not exhausted under %+v", p.name, cfg)
	}
	return normalizeResult(res), outcomes
}

// TestKernelOptsDeterminism: with every optimization on (the default)
// and with every optimization off, exploration produces bit-identical
// Results — Executions, Feasible, Pruned, failure list, and every
// non-timing Stats counter — sequentially and at Parallelism 4, and a
// debugReplayCheck run (which revalidates every pinned replay record)
// agrees too.
func TestKernelOptsDeterminism(t *testing.T) {
	for _, p := range kernelProgs {
		p := p
		t.Run(p.name, func(t *testing.T) {
			base, baseOut := runKernelProg(t, Config{}, p)
			variants := []struct {
				name string
				cfg  Config
			}{
				{"opts-off", KernelOptsOff(Config{})},
				{"opts-off-par4", KernelOptsOff(Config{Parallelism: 4})},
				{"opts-on-par4", Config{Parallelism: 4}},
				{"replay-check", Config{debugReplayCheck: true}},
			}
			for _, v := range variants {
				got, gotOut := runKernelProg(t, v.cfg, p)
				if !reflect.DeepEqual(base, got) {
					t.Errorf("%s: Result differs from default run:\n default: %+v\n %s: %+v",
						v.name, base, v.name, got)
				}
				if v.cfg.Parallelism <= 1 && !reflect.DeepEqual(baseOut, gotOut) {
					t.Errorf("%s: outcome sets differ:\n default: %v\n %s: %v",
						v.name, baseOut, v.name, gotOut)
				}
			}
		})
	}
}

// TestLoadCompactionSoundness: compaction discards loadRec entries that
// are dominated for every possible future reader, so forcing it to run
// aggressively (threshold 2) must leave both the outcome sets and the
// full Result identical to a run whose threshold no location reaches.
func TestLoadCompactionSoundness(t *testing.T) {
	for _, p := range kernelProgs {
		p := p
		t.Run(p.name, func(t *testing.T) {
			off, offOut := runKernelProg(t, Config{compactThreshold: math.MaxInt}, p)
			on, onOut := runKernelProg(t, Config{compactThreshold: 2}, p)
			if !reflect.DeepEqual(offOut, onOut) {
				t.Errorf("outcome sets differ:\n compaction off: %v\n threshold 2:   %v", offOut, onOut)
			}
			if !reflect.DeepEqual(off, on) {
				t.Errorf("Result differs:\n compaction off: %+v\n threshold 2:   %+v", off, on)
			}
		})
	}
}

// TestPooledExecutionIsolation: under pooling, state from one execution
// (store histories, thread clocks, sleep sets) must never leak into the
// next. A leak would change execution counts or outcomes versus the
// unpooled run; run the most stateful programs back-to-back with a tiny
// pool-stressing parallel sweep for good measure.
func TestPooledExecutionIsolation(t *testing.T) {
	for _, p := range []kernelProg{kernelProgs[4], kernelProgs[5], kernelProgs[6]} {
		p := p
		t.Run(p.name, func(t *testing.T) {
			pooled, pooledOut := runKernelProg(t, Config{}, p)
			unpooled, unpooledOut := runKernelProg(t, Config{disablePooling: true}, p)
			if !reflect.DeepEqual(pooled, unpooled) {
				t.Errorf("Result differs:\n pooled:   %+v\n unpooled: %+v", pooled, unpooled)
			}
			if !reflect.DeepEqual(pooledOut, unpooledOut) {
				t.Errorf("outcomes differ:\n pooled:   %v\n unpooled: %v", pooledOut, unpooledOut)
			}
		})
	}
}

// TestPoolingReferenceStartsFresh: the disablePooling reference runs
// every execution on fresh state — OnRunStart sees a new *System with a
// nil Aux each time — in DFS at 1 and 4 workers and in FastMode. With
// pooling on, each worker repeats one *System, whose Aux is nil only on
// the worker's first execution.
func TestPoolingReferenceStartsFresh(t *testing.T) {
	for _, tc := range []struct {
		name    string
		cfg     Config
		workers int
	}{
		{"dfs-1", Config{}, 1},
		{"dfs-4", Config{Parallelism: 4}, 4},
		{"fast", Config{FastMode: true, MaxExecutions: 40, Seed: 5}, 1},
	} {
		for _, reference := range []bool{false, true} {
			cfg := tc.cfg
			cfg.disablePooling = reference
			var mu sync.Mutex
			// The map keeps every System alive, so a new System cannot
			// reuse the address of one the pool dropped.
			seen := map[*System]bool{}
			nilAux := 0
			cfg.OnRunStart = func(sys *System) {
				mu.Lock()
				defer mu.Unlock()
				seen[sys] = true
				if sys.Aux == nil {
					nilAux++
				}
				sys.Aux = true
			}
			res := Explore(cfg, manyExecProgram)
			name := fmt.Sprintf("%s reference=%v", tc.name, reference)
			if res.Executions <= tc.workers {
				t.Fatalf("%s: %d executions cannot show reuse across %d workers", name, res.Executions, tc.workers)
			}
			switch {
			case reference && (len(seen) != res.Executions || nilAux != res.Executions):
				t.Errorf("%s: %d executions saw %d Systems and %d nil Aux values, want a new System with a nil Aux every time",
					name, res.Executions, len(seen), nilAux)
			case !reference && (len(seen) > tc.workers || nilAux != len(seen)):
				t.Errorf("%s: %d executions saw %d Systems and %d nil Aux values, want at most %d Systems, each with a nil Aux once",
					name, res.Executions, len(seen), nilAux, tc.workers)
			}
		}
	}
}

// TestPooledExecutionAllocs: on a warmed execPool, a branch-free
// execution allocates nothing — the System shell, threads and their
// goroutines, locations and their handles, actions, clock snapshots,
// finish clocks and the sleep set are all recycled. The program creates
// an atomic and a plain location, then spawns and joins a thread that
// stores to the atomic; the child's function is built once, outside the
// measured runs.
func TestPooledExecutionAllocs(t *testing.T) {
	c := (&Config{}).withDefaults()
	pool := &execPool{}
	defer pool.close()
	d := newDFSChooser(c)
	var x *Atomic
	store := func(tt *Thread) { x.Store(tt, memmodel.Release, 1) }
	prog := func(root *Thread) {
		x = root.NewAtomicInit("x", 0)
		p := root.NewPlain("p")
		p.Store(root, 1)
		root.Join(root.Spawn("w", store))
	}
	var sys *System
	run := func() { sys = runExecution(c, d, prog, nil, pool) }
	run()
	allocs := testing.AllocsPerRun(100, run)
	if sys.failure != nil || sys.pruned || len(d.decisions) != 0 {
		t.Fatalf("program did not run branch-free to completion: failure %v, pruned %v, %d decisions",
			sys.failure, sys.pruned, len(d.decisions))
	}
	if allocs != 0 {
		t.Errorf("a pooled execution allocated %.0f times, want 0", allocs)
	}
}

// BenchmarkKernelVisibleFloor measures the visibility-floor hot path —
// the load-history program is floor-computation bound (every load
// consults store floors, read-read coherence, and release clocks).
func BenchmarkKernelVisibleFloor(b *testing.B) {
	prog := kernelProgs[5] // load-history
	for _, mode := range []struct {
		name string
		cfg  Config
	}{
		{"cached", Config{}},
		{"uncached", Config{disableFloorCache: true}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res := Explore(mode.cfg, func(root *Thread) { prog.prog(root, func(string) {}) })
				if !res.Exhausted {
					b.Fatal("not exhausted")
				}
			}
		})
	}
}

// BenchmarkKernelExecutionReset measures per-execution setup/teardown:
// the store-buffering program is tiny, so the cost is dominated by
// building (or pool-resetting) the System, threads, and locations.
func BenchmarkKernelExecutionReset(b *testing.B) {
	for _, mode := range []struct {
		name string
		cfg  Config
	}{
		{"pooled", Config{}},
		{"unpooled", Config{disablePooling: true}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res := Explore(mode.cfg, manyExecProgram)
				if !res.Exhausted {
					b.Fatal("not exhausted")
				}
			}
		})
	}
}
