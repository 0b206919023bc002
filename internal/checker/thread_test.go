package checker

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/memmodel"
)

// deferredStoreProgram: thread w defers a store. When main reads w's
// first store, its assertion fails and the execution is abandoned with w
// parked at a load; w's deferred store then runs while w unwinds.
func deferredStoreProgram(root *Thread) {
	a := root.NewAtomicInit("a", 0)
	w := root.Spawn("w", func(t *Thread) {
		defer a.Store(t, memmodel.Relaxed, 2)
		a.Store(t, memmodel.Relaxed, 1)
		a.Load(t, memmodel.Relaxed)
		a.Load(t, memmodel.Relaxed)
	})
	root.Assert(a.Load(root, memmodel.Relaxed) != 1, "main read w's first store")
	root.Join(w)
}

// deferredUnlockProgram is deferredStoreProgram with the usual
// lock/defer-unlock idiom in w.
func deferredUnlockProgram(root *Thread) {
	a := root.NewAtomicInit("a", 0)
	mu := root.NewMutex("mu")
	w := root.Spawn("w", func(t *Thread) {
		mu.Lock(t)
		defer mu.Unlock(t)
		a.Store(t, memmodel.Relaxed, 1)
		a.Load(t, memmodel.Relaxed)
		a.Load(t, memmodel.Relaxed)
	})
	root.Assert(a.Load(root, memmodel.Relaxed) != 1, "main read w's first store")
	root.Join(w)
}

// exploreWithin runs explore and fails the test if it does not return
// within the deadline.
func exploreWithin(t *testing.T, name string, explore func() *Result) *Result {
	t.Helper()
	done := make(chan *Result, 1)
	go func() { done <- explore() }()
	select {
	case res := <-done:
		return res
	case <-time.After(20 * time.Second):
		t.Fatalf("%s: Explore did not return within 20s", name)
		return nil
	}
}

// TestDeferredOpInAbandonedExecution: a simulated operation deferred by
// a thread that an abandoned execution unwinds must not hang the
// explorer, and must not disturb the next execution on the same thread.
// Every engine and kernel configuration agrees on every count.
func TestDeferredOpInAbandonedExecution(t *testing.T) {
	for _, tc := range []struct {
		name                       string
		prog                       func(*Thread)
		execs, feasible, failures  int
		fastFeasible, fastFailures int
	}{
		{"store", deferredStoreProgram, 6, 4, 2, 196, 4},
		{"unlock", deferredUnlockProgram, 4, 2, 1, 194, 6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var want string
			for _, cfg := range []Config{{}, {Parallelism: 4}, KernelOptsOff(Config{}), KernelOptsOff(Config{Parallelism: 4})} {
				name := fmt.Sprintf("dfs par=%d pooled=%v", cfg.Parallelism, !cfg.disablePooling)
				res := exploreWithin(t, name, func() *Result { return Explore(cfg, tc.prog) })
				if res.Executions != tc.execs || res.Feasible != tc.feasible || res.FailureCount != tc.failures || !res.Exhausted {
					t.Errorf("%s: got %v (exhausted=%v), want %d executions, %d feasible, %d failures",
						name, res, res.Exhausted, tc.execs, tc.feasible, tc.failures)
				}
				if got := fingerprint(res); want == "" {
					want = got
				} else if got != want {
					t.Errorf("%s diverged:\n got %s\nwant %s", name, got, want)
				}
			}
			want = ""
			for _, cfg := range []Config{{Parallelism: 1}, {Parallelism: 4}, KernelOptsOff(Config{}), KernelOptsOff(Config{Parallelism: 4})} {
				cfg.FastMode, cfg.MaxExecutions, cfg.Seed = true, 200, 3
				name := fmt.Sprintf("fast par=%d pooled=%v", cfg.Parallelism, !cfg.disablePooling)
				res := exploreWithin(t, name, func() *Result { return Explore(cfg, tc.prog) })
				if res.Executions != 200 || res.Feasible != tc.fastFeasible || res.FailureCount != tc.fastFailures {
					t.Errorf("%s: got %v, want 200 runs, %d feasible, %d failures", name, res, tc.fastFeasible, tc.fastFailures)
				}
				if got := fingerprint(res); want == "" {
					want = got
				} else if got != want {
					t.Errorf("%s diverged:\n got %s\nwant %s", name, got, want)
				}
			}
		})
	}
}

// panicProgram panics in a simulated thread in some executions only, so
// the executions after a panicking one run on the threads it unwound.
func panicProgram(root *Thread) {
	x := root.NewAtomicInit("x", 0)
	a := root.Spawn("a", func(tt *Thread) { x.Store(tt, memmodel.Relaxed, 1) })
	b := root.Spawn("b", func(tt *Thread) {
		if x.Load(tt, memmodel.Relaxed) == 1 {
			panic("boom")
		}
		x.Store(tt, memmodel.Relaxed, 2)
	})
	root.Join(a)
	root.Join(b)
}

// requireGoroutinesAt fails unless the goroutine count returns to base.
// A goroutine that acked its exit leaves the count a moment after
// Explore returns, so the check polls up to a deadline.
func requireGoroutinesAt(t *testing.T, name string, base int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("%s: %d goroutines outlive Explore (baseline %d):\n%s", name, runtime.NumGoroutine(), base, buf)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestNoGoroutineOutlivesExplore: thread goroutines persist across the
// executions of one worker, and every way an exploration can end stops
// them. A panicking execution leaves its pool fit for the next one: the
// exhaustive Result equals the unpooled run's.
func TestNoGoroutineOutlivesExplore(t *testing.T) {
	tooMany := func(root *Thread) {
		for i := 0; i < maxThreads+1; i++ {
			root.Spawn(fmt.Sprintf("t%d", i), func(tt *Thread) {})
		}
	}
	// interrupt closes Interrupt at the third execution and holds that
	// worker in OnExecution until the engine has recorded the stop, so a
	// fast worker cannot run every execution before the supervisor
	// reacts. It runs the engine directly, to watch its stop flag.
	interrupt := func() *Result {
		intr := make(chan struct{})
		execs := 0
		var e *wsEngine
		cfg := Config{Interrupt: intr, OnExecution: func(*System) []*Failure {
			if execs++; execs != 3 {
				return nil
			}
			close(intr)
			for deadline := time.Now().Add(10 * time.Second); !e.stop.Load(); time.Sleep(100 * time.Microsecond) {
				if time.Now().After(deadline) {
					t.Error("interrupt: the engine did not record the stop within 10s")
					break
				}
			}
			return nil
		}}
		e = newWSEngine(cfg.withDefaults(), manyExecProgram)
		return e.run()
	}
	// allHooks arms the supervisor's three channels: an Interrupt that
	// never fires and both snapshot tickers.
	allHooks := func(cfg Config) Config {
		cfg.Interrupt = make(chan struct{})
		cfg.Progress = func(Progress) {}
		cfg.ProgressInterval = time.Millisecond
		cfg.Checkpoint = func(*Checkpoint) {}
		cfg.CheckpointEvery = time.Millisecond
		return cfg
	}
	explore := func(cfg Config, prog func(*Thread)) func() *Result {
		return func() *Result { return Explore(cfg, prog) }
	}
	base := runtime.NumGoroutine()
	for _, tc := range []struct {
		name    string
		explore func() *Result
		want    func(*Result) bool
	}{
		{"dfs-1", explore(Config{}, manyExecProgram), func(r *Result) bool { return r.Exhausted }},
		{"dfs-4", explore(Config{Parallelism: 4}, manyExecProgram), func(r *Result) bool { return r.Exhausted }},
		{"dfs-4-hooks", explore(allHooks(Config{Parallelism: 4}), manyExecProgram), func(r *Result) bool { return r.Exhausted }},
		{"fast-1", explore(Config{FastMode: true, MaxExecutions: 50}, manyExecProgram), func(r *Result) bool { return r.Executions == 50 }},
		{"fast-3", explore(Config{FastMode: true, MaxExecutions: 50, Parallelism: 3}, manyExecProgram), func(r *Result) bool { return r.Executions == 50 }},
		{"max-executions", explore(Config{MaxExecutions: 3}, manyExecProgram), func(r *Result) bool { return r.Executions == 3 && !r.Exhausted }},
		{"stop-at-first", explore(Config{StopAtFirst: true}, deferredStoreProgram), func(r *Result) bool { return r.FailureCount == 1 && !r.Exhausted }},
		{"interrupt", interrupt, func(r *Result) bool { return r.Executions >= 3 && !r.Exhausted }},
		{"user-panic", explore(Config{}, panicProgram), func(r *Result) bool { return r.HasKind(FailAssertion) && r.Exhausted }},
		{"too-many-threads", explore(Config{}, tooMany), func(r *Result) bool { return r.HasKind(FailAPIMisuse) }},
		{"kernel-opts-off", explore(KernelOptsOff(Config{}), panicProgram), func(r *Result) bool { return r.HasKind(FailAssertion) && r.Exhausted }},
	} {
		res := exploreWithin(t, tc.name, tc.explore)
		if !tc.want(res) {
			t.Errorf("%s: unexpected result %v (exhausted=%v)", tc.name, res, res.Exhausted)
		}
		requireGoroutinesAt(t, tc.name, base)
	}

	pooled := Explore(Config{}, panicProgram)
	unpooled := Explore(Config{disablePooling: true}, panicProgram)
	if p, u := normalizeResult(pooled), normalizeResult(unpooled); !reflect.DeepEqual(p, u) {
		t.Errorf("pooling changed the result of a panicking program:\n pooled:   %+v\n unpooled: %+v", p, u)
	}
}
