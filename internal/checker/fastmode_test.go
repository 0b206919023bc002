package checker

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/memmodel"
)

// --- Fast mode: budget, determinism, parallel bit-identity -------------

// fingerprint reduces a Result to the deterministic fields fast mode
// promises to keep bit-identical across repeats and Parallelism settings.
func fingerprint(res *Result) string {
	var fails string
	for _, f := range res.Failures {
		fails += fmt.Sprintf("|%s:%s@%d", f.Kind, f.Msg, f.Execution)
	}
	return fmt.Sprintf("exec=%d feas=%d pruned=%d failcount=%d stats=%+v fails=%s",
		res.Executions, res.Feasible, res.Pruned, res.FailureCount,
		res.Stats.WithoutTimings(), fails)
}

// TestFastModeRunBudget: fast mode runs exactly its budget on a clean
// program at any Parallelism — including more workers than runs, which
// must neither deadlock nor overrun — and never claims exhaustion
// (sampling cannot prove absence).
func TestFastModeRunBudget(t *testing.T) {
	for _, tc := range []struct{ budget, par int }{
		{50, 0},
		{50, 4},
		{3, 16},
	} {
		res := Explore(Config{FastMode: true, MaxExecutions: tc.budget, Parallelism: tc.par, Seed: 3}, manyExecProgram)
		if res.Executions != tc.budget {
			t.Errorf("budget %d at Parallelism %d: fast mode ran %d executions", tc.budget, tc.par, res.Executions)
		}
		if res.Exhausted {
			t.Errorf("budget %d at Parallelism %d: fast mode must never report Exhausted", tc.budget, tc.par)
		}
		if res.FailureCount != 0 {
			t.Errorf("budget %d at Parallelism %d: clean program failed: %v", tc.budget, tc.par, res.FirstFailure())
		}
		if res.Stats.RunsPerSec <= 0 {
			t.Errorf("budget %d at Parallelism %d: RunsPerSec not computed: %v", tc.budget, tc.par, res.Stats.RunsPerSec)
		}
	}
}

// TestFastModeDeterministicSeed: a fixed (seed, budget) yields
// bit-identical results on repeat runs, and a different seed is allowed
// to differ (it samples different executions).
func TestFastModeDeterministicSeed(t *testing.T) {
	run := func(seed int64) string {
		return fingerprint(Explore(Config{FastMode: true, MaxExecutions: 40, Seed: seed}, manyExecProgram))
	}
	if run(7) != run(7) {
		t.Error("fast mode with fixed seed not deterministic")
	}
}

// TestFastModeParallelBitIdentical: for a fixed budget the Result —
// failures included — is bit-identical across Parallelism 1/4/16,
// because run indices own derived seeds and workers own contiguous index
// blocks merged in order.
func TestFastModeParallelBitIdentical(t *testing.T) {
	prog := func(root *Thread) {
		x := root.NewAtomic("x")
		a := root.Spawn("a", func(tt *Thread) { x.Store(tt, memmodel.Relaxed, 1) })
		// Racy-by-sampling: the load may run before the store and fail
		// as an uninitialized load, so failures (count, messages,
		// execution indices) exercise the merge path too.
		b := root.Spawn("b", func(tt *Thread) { _ = x.Load(tt, memmodel.Relaxed) })
		root.Join(a)
		root.Join(b)
	}
	want := ""
	for _, par := range []int{1, 4, 16} {
		got := fingerprint(Explore(Config{FastMode: true, MaxExecutions: 60, Seed: 11, Parallelism: par}, prog))
		if want == "" {
			want = got
			continue
		}
		if got != want {
			t.Errorf("parallelism %d diverged:\n got %s\nwant %s", par, got, want)
		}
	}
}

// TestFastModePoolingInvisible: pooled and unpooled fast runs produce
// bit-identical results — the free-list recycling and between-run sweep
// must not leak state into the next run.
func TestFastModePoolingInvisible(t *testing.T) {
	base := Config{FastMode: true, MaxExecutions: 60, Seed: 13, storeBound: 2}
	pooled := Explore(base, manyExecProgram)
	unpooledCfg := base
	unpooledCfg.disablePooling = true
	unpooled := Explore(unpooledCfg, manyExecProgram)
	if fingerprint(pooled) != fingerprint(unpooled) {
		t.Errorf("pooling changed fast-mode results:\npooled   %s\nunpooled %s",
			fingerprint(pooled), fingerprint(unpooled))
	}
}

// --- Fast mode: bug finding -------------------------------------------

// TestFastModeFindsSeededBug: the §6.4.1-style seeded bug — a message-
// passing handoff whose flag store was weakened to relaxed — is caught
// by sampling within a small run budget.
func TestFastModeFindsSeededBug(t *testing.T) {
	res := Explore(Config{FastMode: true, MaxExecutions: 500, Seed: 1}, func(root *Thread) {
		x := root.NewAtomicInit("x", 0)
		flag := root.NewAtomicInit("flag", 0)
		w := root.Spawn("w", func(tt *Thread) {
			x.Store(tt, memmodel.Relaxed, 42)
			flag.Store(tt, memmodel.Relaxed, 1) // bug: should be Release
		})
		r := root.Spawn("r", func(tt *Thread) {
			if flag.Load(tt, memmodel.Acquire) == 1 {
				tt.Assert(x.Load(tt, memmodel.Relaxed) == 42, "lost payload")
			}
		})
		root.Join(w)
		root.Join(r)
	})
	if !res.HasKind(FailAssertion) {
		t.Errorf("fast mode missed the seeded relaxed-flag bug in %d runs", res.Executions)
	}
}

// TestFastModeStopAtFirst: the first failing run stops the exploration.
func TestFastModeStopAtFirst(t *testing.T) {
	res := Explore(Config{FastMode: true, MaxExecutions: 100, StopAtFirst: true}, func(root *Thread) {
		x := root.NewAtomic("x")
		_ = x.Load(root, memmodel.Relaxed) // uninit on every run
	})
	if res.Executions != 1 || res.FailureCount != 1 {
		t.Errorf("StopAtFirst ignored in fast mode: %v", res)
	}
	if !res.HasKind(FailUninitLoad) {
		t.Errorf("wrong kind: %v", res.FirstFailure())
	}
}

// TestFastModeTimeBudget: a wall-clock budget — an Interrupt closed by a
// timer — terminates a run budget that could never complete in time, at
// one worker and sharded.
func TestFastModeTimeBudget(t *testing.T) {
	for _, par := range []int{1, 4} {
		intr := make(chan struct{})
		timer := time.AfterFunc(50*time.Millisecond, func() { close(intr) })
		res := Explore(Config{
			FastMode:      true,
			MaxExecutions: 1 << 30,
			Parallelism:   par,
			Interrupt:     intr,
			Seed:          2,
		}, manyExecProgram)
		timer.Stop()
		if res.Executions == 0 {
			t.Errorf("parallelism %d: time budget cut before the first run", par)
		}
		if res.Executions >= 1<<30 {
			t.Errorf("parallelism %d: time budget ignored: %d executions", par, res.Executions)
		}
	}
}

// TestFastModePlainRace: the clock-vector race detector still fires in
// fast mode (via the per-location seq vectors, not action clocks).
func TestFastModePlainRace(t *testing.T) {
	res := Explore(Config{FastMode: true, MaxExecutions: 200, Seed: 4}, func(root *Thread) {
		p := root.NewPlainInit("p", 0)
		a := root.Spawn("a", func(tt *Thread) { p.Store(tt, 1) })
		b := root.Spawn("b", func(tt *Thread) { p.Store(tt, 2) })
		root.Join(a)
		root.Join(b)
	})
	if !res.HasKind(FailDataRace) {
		t.Errorf("fast mode missed a plain-plain race in %d runs", res.Executions)
	}
}

// TestFastModeSynchronizedClean: a properly synchronized program
// (release/acquire handoff, joined threads) yields zero failures over a
// healthy run budget — the sampled detectors must not false-positive.
func TestFastModeSynchronizedClean(t *testing.T) {
	res := Explore(Config{FastMode: true, MaxExecutions: 300, Seed: 6}, func(root *Thread) {
		data := root.NewPlainInit("data", 0)
		flag := root.NewAtomicInit("flag", 0)
		w := root.Spawn("w", func(tt *Thread) {
			data.Store(tt, 42)
			flag.Store(tt, memmodel.Release, 1)
		})
		r := root.Spawn("r", func(tt *Thread) {
			for flag.Load(tt, memmodel.Acquire) == 0 {
				tt.Yield()
			}
			tt.Assert(data.Load(tt) == 42, "lost payload")
		})
		root.Join(w)
		root.Join(r)
	})
	if res.FailureCount != 0 {
		t.Errorf("false positive on synchronized program: %v", res.FirstFailure())
	}
}

// --- Store-buffer bounding --------------------------------------------

// TestFastModeEvictions: a long store chain over one location overflows
// a small storeBound, evictions happen, and the program still checks
// clean — reads served from the bounded window (or the evicted-value
// fallback) stay plausible.
func TestFastModeEvictions(t *testing.T) {
	res := Explore(Config{FastMode: true, MaxExecutions: 20, Seed: 8, storeBound: 4, MaxSteps: 5000}, func(root *Thread) {
		x := root.NewAtomicInit("x", 0)
		a := root.Spawn("a", func(tt *Thread) {
			for i := 0; i < 200; i++ {
				x.Store(tt, memmodel.Relaxed, memmodel.Value(i))
			}
		})
		b := root.Spawn("b", func(tt *Thread) {
			for i := 0; i < 50; i++ {
				_ = x.Load(tt, memmodel.Relaxed)
			}
		})
		root.Join(a)
		root.Join(b)
	})
	if res.FailureCount != 0 {
		t.Errorf("bounded buffers broke a clean program: %v", res.FirstFailure())
	}
	if res.Stats.StoreBufferEvictions == 0 {
		t.Error("expected store-buffer evictions with storeBound=4 and 200 stores")
	}
	if res.Executions != 20 {
		t.Errorf("ran %d executions, want 20", res.Executions)
	}
}

// TestFastModeEvictionRMWChain: RMWs force reads of the newest store, so
// a fetch-add chain must stay exact across evictions (each increment
// reads the previous one, never a stale or evicted value).
func TestFastModeEvictionRMWChain(t *testing.T) {
	const perThread = 100
	res := Explore(Config{FastMode: true, MaxExecutions: 10, Seed: 9, storeBound: 4, MaxSteps: 5000}, func(root *Thread) {
		c := root.NewAtomicInit("c", 0)
		a := root.Spawn("a", func(tt *Thread) {
			for i := 0; i < perThread; i++ {
				c.FetchAdd(tt, memmodel.Relaxed, 1)
			}
		})
		b := root.Spawn("b", func(tt *Thread) {
			for i := 0; i < perThread; i++ {
				c.FetchAdd(tt, memmodel.Relaxed, 1)
			}
		})
		root.Join(a)
		root.Join(b)
		tt := c.Load(root, memmodel.Acquire)
		root.Assert(tt == 2*perThread, "fetch-add chain lost increments: %d", tt)
	})
	if res.FailureCount != 0 {
		t.Errorf("RMW chain broke across evictions: %v", res.FirstFailure())
	}
	if res.Stats.StoreBufferEvictions == 0 {
		t.Error("expected evictions in the RMW chain")
	}
}

// --- Mixed atomic/non-atomic races ------------------------------------

// mixedRaceProg races a non-atomic RawLoad of an atomic location against
// another thread's atomic store.
func mixedRaceProg(root *Thread) {
	x := root.NewAtomicInit("x", 0)
	a := root.Spawn("a", func(tt *Thread) { x.Store(tt, memmodel.Relaxed, 1) })
	b := root.Spawn("b", func(tt *Thread) { _ = x.RawLoad(tt) })
	root.Join(a)
	root.Join(b)
}

// mixedCleanProg uses RawLoad/RawStore only in happens-before-ordered
// positions (before spawn, after join) — no race.
func mixedCleanProg(root *Thread) {
	x := root.NewAtomic("x")
	x.RawStore(root, 7) // pre-spawn init, like C++ non-atomic init of an atomic
	a := root.Spawn("a", func(tt *Thread) {
		v := x.Load(tt, memmodel.Relaxed)
		tt.Assert(v == 7, "lost raw init: %d", v)
		x.Store(tt, memmodel.Relaxed, 8)
	})
	root.Join(a)
	root.Assert(x.RawLoad(root) == 8, "post-join raw load missed the store")
}

// TestMixedRaceBothModes: the mixed-access detector fires in exhaustive
// and fast mode alike, and stays quiet on the synchronized variant.
func TestMixedRaceBothModes(t *testing.T) {
	configs := map[string]Config{
		"exhaustive": {},
		"fast":       {FastMode: true, MaxExecutions: 200, Seed: 10},
	}
	for name, cfg := range configs {
		res := Explore(cfg, mixedRaceProg)
		if !res.HasKind(FailMixedRace) {
			t.Errorf("%s: missed the mixed atomic/non-atomic race (executions=%d, first=%v)",
				name, res.Executions, res.FirstFailure())
		}
		res = Explore(cfg, mixedCleanProg)
		if res.FailureCount != 0 {
			t.Errorf("%s: false positive on ordered raw accesses: %v", name, res.FirstFailure())
		}
	}
}

// TestRawStoreVisibleToAtomics: a RawStore joins the modification order,
// so a later (happens-after) atomic load must observe it.
func TestRawStoreVisibleToAtomics(t *testing.T) {
	res := Explore(Config{}, func(root *Thread) {
		x := root.NewAtomic("x")
		x.RawStore(root, 5)
		a := root.Spawn("a", func(tt *Thread) {
			tt.Assert(x.Load(tt, memmodel.Relaxed) == 5, "atomic load missed the raw store")
		})
		root.Join(a)
	})
	if res.FailureCount != 0 {
		t.Errorf("raw store invisible to atomic load: %v", res.FirstFailure())
	}
	if !res.Exhausted {
		t.Errorf("tiny program should exhaust: %v", res)
	}
}

// --- Interrupt --------------------------------------------------------

// TestFastModeInterrupt: a pre-closed Interrupt channel stops the run
// loop before the first execution.
func TestFastModeInterrupt(t *testing.T) {
	ch := make(chan struct{})
	close(ch)
	res := Explore(Config{FastMode: true, MaxExecutions: 1000, Interrupt: ch}, manyExecProgram)
	if res.Executions != 0 {
		t.Errorf("interrupted fast run still executed %d times", res.Executions)
	}
}
