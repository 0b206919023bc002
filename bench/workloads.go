package main

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/checker"
	"repro/internal/core"
	"repro/internal/fuzz"
	"repro/internal/harness"
	"repro/internal/memmodel"
	"repro/internal/structures/chaselev"
	"repro/internal/structures/mpmc"
	"repro/internal/structures/msqueue"
)

// The constants below define the workloads. Changing one changes what
// every metric measures, so it needs a new baseline and, where verdicts
// are pinned, a regenerated testdata/expected.json.
const (
	// fuzzBudget caps each generated program's exploration. It is the
	// default of `cdsspec fuzz -budget`, so the workload checks programs
	// the way a campaign does: about two in five reach the budget, and the
	// rest exhaust or stop at a failure.
	fuzzBudget = 5000
	// fuzzPrograms is the number of programs of each target, drawn from
	// fuzzDraw times as many. A check's cost follows the program's size,
	// so programs taken straight from the stream gave totals that moved
	// by a quarter from seed to seed. Taking them at evenly spaced size
	// ranks of a larger draw gives every seed the generator's mix of
	// sizes; the seed then picks which programs of each size are checked.
	fuzzPrograms = 25
	fuzzDraw     = 20
	// fastSeededBudget is the run budget of the two seeded-bug fast rows.
	fastSeededBudget = 2000
	// scaledRuns and scaledCapacity shape the 10⁵-op MPMC fast row.
	scaledRuns     = 4
	scaledCapacity = 64
	// Set-up ends with a warm-up: every check of pass 0, with warmExecs
	// executions split evenly between them (one run for the scaled row).
	warmExecs = 1000
)

var workloadNames = []string{"fig7", "explore-reduced", "fuzz-campaign", "fast-screen"}

// limits narrows a workload. The benchmark runs fullLimits; the smoke
// test passes smaller ones.
type limits struct {
	// keep selects the fig7 and explore-reduced rows by label (nil: all).
	keep func(label string) bool
	// fuzzPerTarget is the number of programs per target in one pass:
	// the first of the fuzzPrograms drawn, in generator order.
	fuzzPerTarget int
	// fastRuns is the run budget of each fast-mode unit row.
	fastRuns int
	// scaledOpsPerThread is the per-thread op count of the scaled row
	// (four threads).
	scaledOpsPerThread int
}

func fullLimits() limits {
	return limits{fuzzPerTarget: fuzzPrograms, fastRuns: 10000, scaledOpsPerThread: 25000}
}

func (l limits) keeps(label string) bool { return l.keep == nil || l.keep(label) }

// A workload is a list of checks per pass. Passes of fig7,
// explore-reduced and fuzz-campaign repeat the same checks; fast-screen
// reseeds each pass.
type workload struct {
	name string
	// workers is the Parallelism of every exploration.
	workers int
	pass    func(i int) []*job
	// gen is the time set-up spent generating fuzz programs.
	gen time.Duration
	// pinned reports whether every verdict has a reference in
	// expected.json; an unpinned fuzz seed is checked by invariants only.
	pinned bool
}

type jobKind int

const (
	kindExplore jobKind = iota // a program explored with its spec (core.Explore)
	kindFuzz                   // a generated program (fuzz.Target.Check)
	kindFast                   // fast-mode sampling of a unit test or seeded bug
	kindScaled                 // fast-mode sampling of the 10⁵-op MPMC ring
)

// A job is one check: one request of the closed loop, answered by a
// verdict.
type job struct {
	label string
	kind  jobKind
	run   func(p probe) (outcome, error)
	// bare, when set, explores the same program through checker.Explore
	// alone; a traced fig7 run times it to split off the spec layer.
	bare func(hook func(*checker.System))
	// want verifies a verdict; it is not called on warm-up checks.
	want func(o outcome) error
}

// probe is what the runner lends a check: the execution-span hook of a
// traced run and the warm-up cap on executions.
type probe struct {
	hook   func(*checker.System)
	budget int
}

// config applies the probe to a checker configuration.
func (p probe) config(cfg checker.Config) checker.Config {
	if p.budget > 0 && (cfg.MaxExecutions == 0 || cfg.MaxExecutions > p.budget) {
		cfg.MaxExecutions = p.budget
	}
	if p.hook != nil {
		if own := cfg.OnRunStart; own != nil {
			hook := p.hook
			cfg.OnRunStart = func(sys *checker.System) {
				hook(sys)
				own(sys)
			}
		} else {
			cfg.OnRunStart = p.hook
		}
	}
	return cfg
}

// outcome is a check's verdict as the public API returned it.
type outcome struct {
	// res is nil when the public path exposes only a fuzz.Verdict.
	res     *checker.Result
	verdict *fuzz.Verdict
	// ops and heapHigh describe the scaled row: operations per run, and
	// (traced checks only) the heap high-water across its runs.
	ops      int
	heapHigh uint64
}

func (o outcome) executions() int {
	if o.res != nil {
		return o.res.Executions
	}
	return o.verdict.Executions
}

func (o outcome) feasible() int {
	if o.res != nil {
		return o.res.Feasible
	}
	return o.verdict.Feasible
}

// build constructs a workload from the public harness, fuzz and
// structure APIs.
func build(name string, seed int64, exp *expected, l limits) (*workload, error) {
	switch name {
	case "fig7":
		return fig7Workload(exp, l)
	case "explore-reduced":
		return reducedWorkload(exp, l)
	case "fuzz-campaign":
		return fuzzWorkload(seed, exp, l)
	case "fast-screen":
		return fastWorkload(seed, exp, l), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// fig7Workload is the paper's headline table: every Figure 7 primary
// unit test explored exhaustively with its spec, sequentially and
// unreduced, then the four §6.4.1 known bugs.
func fig7Workload(exp *expected, l limits) (*workload, error) {
	var jobs []*job
	for _, b := range harness.Benchmarks() {
		if !l.keeps(b.Name) {
			continue
		}
		want, ok := exp.Fig7[b.Name]
		if !ok {
			return nil, fmt.Errorf("expected.json has no fig7 row %q", b.Name)
		}
		prog := b.Progs(b.Orders())[0]
		jobs = append(jobs, &job{
			label: b.Name,
			run: func(p probe) (outcome, error) {
				return outcome{res: core.Explore(b.Spec(), p.config(checker.Config{}), prog)}, nil
			},
			bare: func(hook func(*checker.System)) {
				checker.Explore(checker.Config{OnRunStart: hook}, prog)
			},
			want: want.check,
		})
	}
	for _, kb := range knownBugs() {
		want, ok := exp.KnownBugs[kb.label]
		if !ok {
			return nil, fmt.Errorf("expected.json has no known bug %q", kb.label)
		}
		jobs = append(jobs, &job{
			label: kb.label,
			run: func(p probe) (outcome, error) {
				return outcome{res: core.Explore(kb.spec(), p.config(kb.cfg), kb.prog)}, nil
			},
			want: want.check,
		})
	}
	return &workload{name: "fig7", workers: 1, pinned: true, pass: func(int) []*job { return jobs }}, nil
}

type knownBug struct {
	label string
	spec  func() *core.Spec
	cfg   checker.Config
	prog  func(*checker.Thread)
}

// knownBugs rebuilds the checks of harness.RunKnownBugs one by one, so
// that each is timed as its own request and returns its Stats.
func knownBugs() []knownBug {
	ms := harness.BenchmarkByName("M&S Queue")
	cl := harness.BenchmarkByName("Chase-Lev Deque")
	stop := checker.Config{StopAtFirst: true}
	return []knownBug{
		{"M&S Queue [known bug: enqueue publication]", ms.Spec, stop, ms.Progs(msqueue.KnownBugEnqueue())[0]},
		{"M&S Queue [known bug: dequeue head load]", ms.Spec, stop, ms.Progs(msqueue.KnownBugDequeue())[0]},
		{"Chase-Lev Deque [known bug: resize publication]", cl.Spec, stop, cl.Progs(chaselev.KnownBugOrders())[1]},
		{"Chase-Lev Deque [known bug: resize, uninit report silenced]",
			func() *core.Spec { return chaselev.Spec("d") },
			checker.Config{StopAtFirst: true, DisableLifetimeCheck: true},
			chaselevResizeInitialized},
	}
}

// chaselevResizeInitialized is the resize test over a deque whose cells
// are initialized, so the known bug surfaces as a spec violation.
func chaselevResizeInitialized(root *checker.Thread) {
	d := chaselev.New(root, "d", chaselev.KnownBugOrders(), 2, chaselev.WithInitializedCells())
	owner := root.Spawn("owner", func(tt *checker.Thread) {
		d.Push(tt, 1)
		d.Push(tt, 2)
		d.Push(tt, 3)
		d.Take(tt)
		d.Take(tt)
	})
	thief := root.Spawn("thief", func(tt *checker.Thread) {
		d.Steal(tt)
		d.Steal(tt)
	})
	root.Join(owner)
	root.Join(thief)
}

// msqueue3x3 is the 3+3-operation M&S queue test whose execution count
// the reductions cut the most.
const msqueue3x3 = "M&S Queue 3+3"

func msqueue3x3Prog(ord *memmodel.OrderTable) func(*checker.Thread) {
	return func(root *checker.Thread) {
		q := msqueue.New(root, "q", ord)
		a := root.Spawn("a", func(tt *checker.Thread) {
			q.Enq(tt, 1)
			q.Deq(tt)
			q.Enq(tt, 3)
		})
		b := root.Spawn("b", func(tt *checker.Thread) {
			q.Enq(tt, 2)
			q.Deq(tt)
			q.Deq(tt)
		})
		root.Join(a)
		root.Join(b)
		q.Deq(root)
	}
}

// reducedWorkload is what `cdsspec explore` does by default: every
// reduction on, on the work-stealing engine with one worker per core (at
// most two), over the primary unit tests plus the 3+3-op M&S test.
func reducedWorkload(exp *expected, l limits) (*workload, error) {
	workers := min(2, runtime.NumCPU())
	type row struct {
		label string
		spec  func() *core.Spec
		prog  func(*checker.Thread)
	}
	var rows []row
	for _, b := range harness.Benchmarks() {
		rows = append(rows, row{b.Name, b.Spec, b.Progs(b.Orders())[0]})
	}
	ms := harness.BenchmarkByName("M&S Queue")
	rows = append(rows, row{msqueue3x3, ms.Spec, msqueue3x3Prog(ms.Orders())})

	var jobs []*job
	for _, r := range rows {
		if !l.keeps(r.label) {
			continue
		}
		classes, ok := exp.ExploreReduced.RFClasses[r.label]
		if !ok {
			return nil, fmt.Errorf("expected.json has no explore-reduced row %q", r.label)
		}
		jobs = append(jobs, &job{
			label: r.label,
			run: func(p probe) (outcome, error) {
				cfg := checker.Config{
					Parallelism: workers,
					Reduce:      checker.ReduceAll(),
					// cdsspec explore wires SIGINT here, which also keeps a
					// one-worker exploration on the work-stealing engine.
					Interrupt: make(chan struct{}),
				}
				return outcome{res: core.Explore(r.spec(), p.config(cfg), r.prog)}, nil
			},
			want: func(o outcome) error { return checkReduced(o, classes) },
		})
	}
	return &workload{name: "explore-reduced", workers: workers, pinned: true, pass: func(int) []*job { return jobs }}, nil
}

// fuzzWorkload checks generated programs of every target with
// fuzz.Target.Check, round-robin across targets. The programs are
// generated during set-up, and every pass checks the same ones.
func fuzzWorkload(seed int64, exp *expected, l limits) (*workload, error) {
	var targets []*fuzz.Target
	for _, b := range harness.Benchmarks() {
		targets = append(targets, b.FuzzTarget())
	}
	start := time.Now()
	progs := make([][]*fuzz.Program, len(targets))
	for i, t := range targets {
		drawn := fuzz.NewGenerator(t, uint64(seed), fuzz.GenConfig{}).Generate(fuzzDraw * fuzzPrograms)
		progs[i] = sizeSample(drawn, fuzzPrograms)[:l.fuzzPerTarget]
	}
	gen := time.Since(start)

	pins, err := exp.fuzzPins(seed)
	if err != nil {
		return nil, err
	}
	pin := func(target string, k int) string {
		if toks := pins[target]; k < len(toks) {
			return toks[k]
		}
		return ""
	}
	pinned := pins != nil
	for i, t := range targets {
		pinned = pinned && len(pins[t.Name]) >= len(progs[i])
	}
	seen := map[*fuzz.Program]string{}
	jobs := make([]*job, 0, l.fuzzPerTarget*len(targets))
	for k := range l.fuzzPerTarget {
		for ti, t := range targets {
			jobs = append(jobs, fuzzJob(t, progs[ti][k], pin(t.Name, k), seen))
		}
	}
	return &workload{name: "fuzz-campaign", workers: 1, gen: gen, pinned: pinned, pass: func(int) []*job { return jobs }}, nil
}

// sizeSample returns n of progs at evenly spaced ranks by size (op count,
// then thread count), in generator order.
func sizeSample(progs []*fuzz.Program, n int) []*fuzz.Program {
	bySize := slices.Clone(progs)
	slices.SortStableFunc(bySize, func(a, b *fuzz.Program) int {
		return cmp.Or(cmp.Compare(a.OpCount(), b.OpCount()), cmp.Compare(len(a.Threads), len(b.Threads)))
	})
	out := make([]*fuzz.Program, n)
	for i := range out {
		out[i] = bySize[(2*i+1)*len(bySize)/(2*n)]
	}
	slices.SortFunc(out, func(a, b *fuzz.Program) int { return cmp.Compare(a.Index, b.Index) })
	return out
}

// fuzzJob checks one generated program. Untraced it goes through
// Target.Check; traced it rebuilds Check's configuration around
// core.Explore so that Stats are visible. Every check of a program must
// reach the same verdict, which also ties a traced check to the
// untraced one before it.
func fuzzJob(t *fuzz.Target, p *fuzz.Program, pin string, seen map[*fuzz.Program]string) *job {
	return &job{
		label: fmt.Sprintf("%s #%d", t.Name, p.Index),
		kind:  kindFuzz,
		run: func(pr probe) (outcome, error) {
			budget := fuzzBudget
			if pr.budget > 0 {
				budget = min(budget, pr.budget)
			}
			if pr.hook == nil {
				v, err := t.Check(p, nil, fuzz.CampaignConfig{Budget: budget})
				return outcome{verdict: v}, err
			}
			prog, err := t.Render(p, nil)
			if err != nil {
				return outcome{}, err
			}
			cfg := checker.Config{
				MaxExecutions: budget,
				MaxSteps:      1000 + 300*p.OpCount(), // Check's step bound for generated programs
				StopAtFirst:   true,
				OnRunStart:    pr.hook,
			}
			return outcome{res: core.Explore(t.Spec(), cfg, prog)}, nil
		},
		want: func(o outcome) error {
			tok, err := fuzzToken(o)
			if err != nil {
				return err
			}
			if pin != "" && tok != pin {
				return fmt.Errorf("verdict %s, expected.json has %s", tok, pin)
			}
			if prev, ok := seen[p]; ok && prev != tok {
				return fmt.Errorf("verdict %s differs from an earlier check of the same program (%s)", tok, prev)
			}
			seen[p] = tok
			return nil
		},
	}
}

// The seeded-bug fast rows.
const (
	seededEnqLabel    = "M&S Queue [seeded enq bug]"
	seededResizeLabel = "Chase-Lev Deque [seeded resize bug]"
)

// fastWorkload is the C11Tester-style sampler: every unit test, the
// 10⁵-op MPMC ring and the two seeded bugs, reseeded each pass.
func fastWorkload(seed int64, exp *expected, l limits) *workload {
	detect := map[string]bool{}
	for _, label := range exp.FastScreen.Detect {
		detect[label] = true
	}
	ms := harness.BenchmarkByName("M&S Queue")
	cl := harness.BenchmarkByName("Chase-Lev Deque")
	pass := func(i int) []*job {
		s := seed + int64(i)
		var jobs []*job
		add := func(label string, runs int, cfg checker.Config, prog func(*checker.Thread)) {
			cfg.FastMode, cfg.Seed, cfg.MaxExecutions = true, s, runs
			want := func(o outcome) error { return checkClean(o, runs) }
			if detect[label] {
				want = checkDetected
			}
			jobs = append(jobs, &job{
				label: label,
				kind:  kindFast,
				run: func(p probe) (outcome, error) {
					return outcome{res: checker.Explore(p.config(cfg), prog)}, nil
				},
				want: want,
			})
		}
		for _, b := range harness.Benchmarks() {
			add(b.Name, l.fastRuns, checker.Config{}, b.Progs(b.Orders())[0])
		}
		jobs = append(jobs, scaledJob(s, l.scaledOpsPerThread))
		stop := checker.Config{StopAtFirst: true}
		add(seededEnqLabel, fastSeededBudget, stop, ms.Progs(msqueue.KnownBugEnqueue())[0])
		add(seededResizeLabel, fastSeededBudget, stop, cl.Progs(chaselev.KnownBugOrders())[1])
		return jobs
	}
	return &workload{name: "fast-screen", workers: 1, pinned: true, pass: pass}
}

// scaledJob samples the 10⁵-op MPMC ring. A traced check also records
// the row's heap high-water the way fastbench does: it collects garbage
// first, then samples the heap at every run start and after the last run.
func scaledJob(seed int64, perThread int) *job {
	totalOps := 4 * perThread
	return &job{
		label: fmt.Sprintf("MPMC ring 4×%d ops", perThread),
		kind:  kindScaled,
		run: func(p probe) (outcome, error) {
			var high uint64
			sample := func(*checker.System) {
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				high = max(high, ms.HeapAlloc)
			}
			cfg := checker.Config{
				FastMode:      true,
				Seed:          seed,
				MaxExecutions: scaledRuns,
				// Data-structure steps plus spin retries; a blown bound
				// prunes the run, which checkClean reports.
				MaxSteps: 100 * totalOps,
			}
			traced := p.hook != nil
			if traced {
				runtime.GC()
				cfg.OnRunStart = sample
			}
			if p.budget > 0 {
				p.budget = 1 // one run of the ring is the warm-up
			}
			res := checker.Explore(p.config(cfg), scaledMPMC(perThread))
			if traced {
				sample(nil)
			}
			return outcome{res: res, ops: totalOps, heapHigh: high}, nil
		},
		want: func(o outcome) error { return checkClean(o, scaledRuns) },
	}
}

// scaledMPMC has two producers and two consumers each perform perThread
// operations on one bounded ring, which reuses a fixed set of locations,
// so live state stays bounded however many operations flow through.
func scaledMPMC(perThread int) func(*checker.Thread) {
	return func(root *checker.Thread) {
		q := mpmc.New(root, "q", nil, scaledCapacity)
		worker := func(name string, enq bool) *checker.Thread {
			return root.Spawn(name, func(tt *checker.Thread) {
				for i := 0; i < perThread; i++ {
					if enq {
						q.Enq(tt, memmodel.Value(i+1))
					} else {
						q.Deq(tt)
					}
				}
			})
		}
		threads := []*checker.Thread{worker("p1", true), worker("p2", true), worker("c1", false), worker("c2", false)}
		for _, t := range threads {
			root.Join(t)
		}
	}
}
