package checker

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/checker/model"
	"repro/internal/memmodel"
)

// This file pins the behavioral differences between the three consistency
// backends on the classic litmus shapes: outcomes admitted by the C/C++11
// rules must vanish exactly where interleaving semantics forbid them, and
// the kernel optimizations must stay sound under every backend.

// exploreModelOutcomes is exploreOutcomes with a model selection.
func exploreModelOutcomes(t *testing.T, id model.ID, prog func(root *Thread, report func(string))) (map[string]int, *Result) {
	t.Helper()
	outcomes := map[string]int{}
	var cur []string
	cfg := Config{
		Model:      id,
		OnRunStart: func(sys *System) { cur = nil },
		OnExecution: func(sys *System) []*Failure {
			for _, o := range cur {
				outcomes[o]++
			}
			return nil
		},
	}
	res := Explore(cfg, func(root *Thread) {
		prog(root, func(o string) { cur = append(cur, o) })
	})
	if !res.Exhausted {
		t.Fatalf("model %s: exploration not exhausted: %v", id, res)
	}
	return outcomes, res
}

// storeBuffering is the SB litmus with a selectable order: both threads
// store their own location, then load the other's.
func sbProg(ord memmodel.MemOrder) func(root *Thread, report func(string)) {
	return func(root *Thread, report func(string)) {
		x := root.NewAtomicInit("x", 0)
		y := root.NewAtomicInit("y", 0)
		var r1, r2 memmodel.Value
		a := root.Spawn("a", func(tt *Thread) {
			x.Store(tt, ord, 1)
			r1 = y.Load(tt, ord)
		})
		b := root.Spawn("b", func(tt *Thread) {
			y.Store(tt, ord, 1)
			r2 = x.Load(tt, ord)
		})
		root.Join(a)
		root.Join(b)
		report(fmt.Sprintf("r1=%d r2=%d", r1, r2))
	}
}

// messagePassing is the MP litmus with a selectable flag/payload order.
func mpProg(storeOrd, loadOrd memmodel.MemOrder) func(root *Thread, report func(string)) {
	return func(root *Thread, report func(string)) {
		x := root.NewAtomicInit("x", 0)
		flag := root.NewAtomicInit("flag", 0)
		var f, v memmodel.Value
		w := root.Spawn("writer", func(tt *Thread) {
			x.Store(tt, storeOrd, 42)
			flag.Store(tt, storeOrd, 1)
		})
		r := root.Spawn("reader", func(tt *Thread) {
			f = flag.Load(tt, loadOrd)
			v = x.Load(tt, loadOrd)
		})
		root.Join(w)
		root.Join(r)
		report(fmt.Sprintf("f=%d v=%d", f, v))
	}
}

// iriw is the IRIW litmus with a selectable order: two writers to
// independent locations, two readers that each read both in opposite
// orders. The split outcome (both readers see their first location
// written but the other not yet) requires the writes to propagate in
// different orders to different threads.
func iriwProg(ord memmodel.MemOrder) func(root *Thread, report func(string)) {
	return func(root *Thread, report func(string)) {
		x := root.NewAtomicInit("x", 0)
		y := root.NewAtomicInit("y", 0)
		w1 := root.Spawn("w1", func(tt *Thread) { x.Store(tt, ord, 1) })
		w2 := root.Spawn("w2", func(tt *Thread) { y.Store(tt, ord, 1) })
		var a, b, c, d memmodel.Value
		r1 := root.Spawn("r1", func(tt *Thread) {
			a = x.Load(tt, ord)
			b = y.Load(tt, ord)
		})
		r2 := root.Spawn("r2", func(tt *Thread) {
			c = y.Load(tt, ord)
			d = x.Load(tt, ord)
		})
		root.Join(w1)
		root.Join(w2)
		root.Join(r1)
		root.Join(r2)
		report(fmt.Sprintf("a=%d b=%d c=%d d=%d", a, b, c, d))
	}
}

// TestModelDiffStoreBuffering: the paper-headline diff. Relaxed SB admits
// r1==0 && r2==0 under C/C++11 (each load reads the stale initial store),
// but no interleaving produces it — so the outcome must vanish under sc.
// scatomics leaves relaxed accesses on the C11 rules, so it keeps the
// weak outcome; with seq_cst accesses all three models agree it is gone.
func TestModelDiffStoreBuffering(t *testing.T) {
	const weak = "r1=0 r2=0"
	c11, _ := exploreModelOutcomes(t, model.C11, sbProg(memmodel.Relaxed))
	if c11[weak] == 0 {
		t.Errorf("c11: relaxed SB must admit %q: %v", weak, c11)
	}
	sc, scRes := exploreModelOutcomes(t, model.SC, sbProg(memmodel.Relaxed))
	if sc[weak] != 0 {
		t.Errorf("sc: interleaving semantics must forbid %q: %v", weak, sc)
	}
	for _, o := range []string{"r1=0 r2=1", "r1=1 r2=0", "r1=1 r2=1"} {
		if sc[o] == 0 {
			t.Errorf("sc: interleaving outcome %q missing: %v", o, sc)
		}
	}
	sca, _ := exploreModelOutcomes(t, model.SCAtomics, sbProg(memmodel.Relaxed))
	if sca[weak] == 0 {
		t.Errorf("scatomics: relaxed accesses keep C11 semantics, %q must stay: %v", weak, sca)
	}
	// Under seq_cst accesses the three models coincide on SB.
	c11SC, _ := exploreModelOutcomes(t, model.C11, sbProg(memmodel.SeqCst))
	scaSC, _ := exploreModelOutcomes(t, model.SCAtomics, sbProg(memmodel.SeqCst))
	scSC, _ := exploreModelOutcomes(t, model.SC, sbProg(memmodel.SeqCst))
	for name, out := range map[string]map[string]int{"c11": c11SC, "scatomics": scaSC, "sc": scSC} {
		if out[weak] != 0 {
			t.Errorf("%s: seq_cst SB must forbid %q: %v", name, weak, out)
		}
	}
	// Stale-read branching is what sc removes, so its exploration must be
	// strictly smaller than c11's on the same program.
	c11Res := Explore(Config{}, func(root *Thread) { sbProg(memmodel.Relaxed)(root, func(string) {}) })
	if scRes.Executions >= c11Res.Executions {
		t.Errorf("sc explored %d executions, want fewer than c11's %d", scRes.Executions, c11Res.Executions)
	}
}

// TestModelDiffMessagePassing: relaxed MP can lose the payload under C11
// (f=1 v=0) and under scatomics, never under sc; seq_cst MP never loses
// it anywhere, and under scatomics the seq_cst loads take the
// forced-latest path.
func TestModelDiffMessagePassing(t *testing.T) {
	const lost = "f=1 v=0"
	c11, _ := exploreModelOutcomes(t, model.C11, mpProg(memmodel.Relaxed, memmodel.Relaxed))
	if c11[lost] == 0 {
		t.Errorf("c11: relaxed MP must admit the lost payload: %v", c11)
	}
	sc, _ := exploreModelOutcomes(t, model.SC, mpProg(memmodel.Relaxed, memmodel.Relaxed))
	if sc[lost] != 0 {
		t.Errorf("sc: must not lose the payload: %v", sc)
	}
	if sc["f=1 v=42"] == 0 || sc["f=0 v=0"] == 0 {
		t.Errorf("sc: expected interleaving outcomes missing: %v", sc)
	}
	sca, _ := exploreModelOutcomes(t, model.SCAtomics, mpProg(memmodel.Relaxed, memmodel.Relaxed))
	if sca[lost] == 0 {
		t.Errorf("scatomics: relaxed MP keeps C11 semantics: %v", sca)
	}
	scaSC, _ := exploreModelOutcomes(t, model.SCAtomics, mpProg(memmodel.SeqCst, memmodel.SeqCst))
	if scaSC[lost] != 0 {
		t.Errorf("scatomics: seq_cst MP must not lose the payload: %v", scaSC)
	}
}

// TestModelDiffIRIW: with acquire/release accesses C11 admits the split
// outcome a=1 b=0 c=1 d=0 (writes propagate in different orders to the
// two readers); sc forbids it, and seq_cst accesses forbid it under all
// three models (that is what the S order is for).
func TestModelDiffIRIW(t *testing.T) {
	const split = "a=1 b=0 c=1 d=0"
	// Acquire loads + release stores: IRIW is still weak under C11.
	relProg := func(root *Thread, report func(string)) {
		x := root.NewAtomicInit("x", 0)
		y := root.NewAtomicInit("y", 0)
		w1 := root.Spawn("w1", func(tt *Thread) { x.Store(tt, memmodel.Release, 1) })
		w2 := root.Spawn("w2", func(tt *Thread) { y.Store(tt, memmodel.Release, 1) })
		var a, b, c, d memmodel.Value
		r1 := root.Spawn("r1", func(tt *Thread) {
			a = x.Load(tt, memmodel.Acquire)
			b = y.Load(tt, memmodel.Acquire)
		})
		r2 := root.Spawn("r2", func(tt *Thread) {
			c = y.Load(tt, memmodel.Acquire)
			d = x.Load(tt, memmodel.Acquire)
		})
		root.Join(w1)
		root.Join(w2)
		root.Join(r1)
		root.Join(r2)
		report(fmt.Sprintf("a=%d b=%d c=%d d=%d", a, b, c, d))
	}
	c11, _ := exploreModelOutcomes(t, model.C11, relProg)
	if c11[split] == 0 {
		t.Errorf("c11: acquire/release IRIW must admit the split outcome: %v", c11)
	}
	sc, _ := exploreModelOutcomes(t, model.SC, relProg)
	if sc[split] != 0 {
		t.Errorf("sc: interleaving semantics must forbid the split outcome: %v", sc)
	}
	sca, _ := exploreModelOutcomes(t, model.SCAtomics, relProg)
	if sca[split] == 0 {
		t.Errorf("scatomics: acquire/release IRIW keeps C11 semantics: %v", sca)
	}
	for _, id := range []model.ID{model.C11, model.SC, model.SCAtomics} {
		out, _ := exploreModelOutcomes(t, id, iriwProg(memmodel.SeqCst))
		if out[split] != 0 {
			t.Errorf("%s: seq_cst IRIW must forbid the split outcome: %v", id, out)
		}
	}
}

// TestModelDiffSeededBug: the §6.4.1 seeded-bug shape — a correctly
// structured protocol whose release edge was weakened to relaxed. Under
// C11 and scatomics the missing edge is a real data race on the plain
// payload; under sc every atomic store synchronizes, so the weakened
// program is indistinguishable from the correct one. This is exactly the
// "bug only under relaxed semantics" class `cdsspec diff` exists to
// surface.
func TestModelDiffSeededBug(t *testing.T) {
	seeded := func(root *Thread) {
		p := root.NewPlainInit("p", 0)
		flag := root.NewAtomicInit("flag", 0)
		w := root.Spawn("writer", func(tt *Thread) {
			p.Store(tt, 42)
			flag.Store(tt, memmodel.Relaxed, 1) // seeded: should be Release
		})
		r := root.Spawn("reader", func(tt *Thread) {
			if flag.Load(tt, memmodel.Acquire) == 1 {
				_ = p.Load(tt)
			}
		})
		root.Join(w)
		root.Join(r)
	}
	for _, tc := range []struct {
		id   model.ID
		racy bool
	}{
		{model.C11, true},
		{model.SCAtomics, true},
		{model.SC, false},
	} {
		res := Explore(Config{Model: tc.id}, seeded)
		if !res.Exhausted {
			t.Fatalf("%s: not exhausted: %v", tc.id, res)
		}
		if got := res.HasKind(FailDataRace); got != tc.racy {
			t.Errorf("%s: data race detected = %v, want %v (failures: %v)", tc.id, got, tc.racy, res.Failures)
		}
	}
}

// TestModelFloorCacheSoundness extends TestLoadCompactionSoundness across
// backends (the satellite-3 contract): for every model, exploration with
// the floor cache, load compaction, pooling, and replay pinning enabled
// must be bit-identical to the ablated run, and a debugReplayCheck run —
// which recomputes every pinned floor through the backend's scanFloor —
// must agree and not panic. sc and scatomics take the forced-latest O(1)
// path (bypassing the cache) on exactly the accesses where their floors
// diverge from C11's, so the cached entries they do share with C11 are
// invalidated by the same (clockEpoch, storeEpoch, scIdx) key.
func TestModelFloorCacheSoundness(t *testing.T) {
	for _, id := range []model.ID{model.C11, model.SC, model.SCAtomics} {
		id := id
		for _, p := range kernelProgs {
			p := p
			t.Run(string(id)+"/"+p.name, func(t *testing.T) {
				withModel := func(c Config) Config { c.Model = id; return c }
				base, baseOut := runKernelProg(t, withModel(Config{}), p)
				for _, v := range []struct {
					name string
					cfg  Config
				}{
					{"opts-off", withModel(KernelOptsOff(Config{}))},
					{"floor-cache-off", withModel(Config{disableFloorCache: true})},
					{"compact-2", withModel(Config{compactThreshold: 2})},
					{"replay-check", withModel(Config{debugReplayCheck: true})},
					{"par4", withModel(Config{Parallelism: 4})},
				} {
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
}

// TestModelScanAgreesWithCachedFloor cross-checks, per backend, the
// cached hot path against the uncached scan at every load — by driving a
// full exploration with debugReplayCheck (validatePin panics on any
// cached-vs-scanned divergence during replay) and by comparing the
// outcome sets of cached and uncached runs.
func TestModelScanAgreesWithCachedFloor(t *testing.T) {
	for _, id := range []model.ID{model.C11, model.SC, model.SCAtomics} {
		id := id
		t.Run(string(id), func(t *testing.T) {
			prog := kernelProgs[5] // load-history: the floor-heaviest program
			cached, cachedOut := runKernelProg(t, Config{Model: id, debugReplayCheck: true}, prog)
			scanned, scannedOut := runKernelProg(t, Config{Model: id, disableFloorCache: true, debugReplayCheck: true}, prog)
			if !reflect.DeepEqual(cached, scanned) {
				t.Errorf("cached vs scanned Result differ:\n cached:  %+v\n scanned: %+v", cached, scanned)
			}
			if !reflect.DeepEqual(cachedOut, scannedOut) {
				t.Errorf("cached vs scanned outcomes differ:\n cached:  %v\n scanned: %v", cachedOut, scannedOut)
			}
		})
	}
}

// TestModelEnginesAgree: FastMode runs under sc must be feasible and
// respect the model (no run of relaxed SB may report the weak outcome
// under sc) — the backends are engine-independent. The DFS engine's side
// is TestModelDiffStoreBuffering.
func TestModelEnginesAgree(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"fast-mode", Config{Model: model.SC, FastMode: true, MaxExecutions: 200, Seed: 11}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			weak := 0
			cfg := tc.cfg
			prog := sbProg(memmodel.Relaxed)
			res := Explore(cfg, func(root *Thread) {
				prog(root, func(o string) {
					if o == "r1=0 r2=0" {
						weak++
					}
				})
			})
			if res.Executions == 0 {
				t.Fatalf("no executions ran: %v", res)
			}
			if weak != 0 {
				t.Errorf("sc %s reported the weak SB outcome %d times", tc.name, weak)
			}
		})
	}
}
