package harness

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/checker"
	"repro/internal/checker/model"
	"repro/internal/core"
	"repro/internal/memmodel"
)

// This file implements `cdsspec diff`: run the same target as two legs,
// each under its own Options (memory model and reduction set), and report
// how the observable behavior sets differ. The two uses are
//
//   - a model diff: the same target under two consistency models (SB's
//     "r1=0 r2=0" exists under c11, not under sc);
//   - a reduction diff: the same model unreduced and reduced, where any
//     difference is a reduction soundness bug — the reduction must keep
//     the behavior and failure-signature sets identical.
//
// Two kinds of target are supported:
//
//   - litmus tests (LitmusTests): tiny programs whose behavior key is the
//     final-register outcome string, the classical way weak-memory
//     results are presented;
//   - Figure 7 benchmarks (Benchmarks): the behavior key is the
//     spec-layer canonical fingerprint (Monitor.Fingerprint) — two
//     executions with equal fingerprints are indistinguishable to the
//     checking pipeline, so the fingerprint set is exactly the set of
//     spec-visible behaviors a leg observed.
//
// Both kinds also diff the failure sets (deduplicated "kind: message"
// signatures), which is how the §6.4.1 seeded bugs show up: the
// weakened-release data race fires under c11 and vanishes under sc.

// LitmusTest is one named litmus program for model diffing. The program
// reports one outcome string per execution through the record callback;
// record is safe for concurrent use, so litmus legs may run under any
// Parallelism.
type LitmusTest struct {
	// Name is the CLI-visible target name.
	Name string
	// Desc is a one-line description for listings.
	Desc string
	// Prog builds the program around an outcome recorder.
	Prog func(record func(outcome string)) func(*checker.Thread)
}

// LitmusTests returns the litmus targets for diff, the classical
// weak-memory trio at the orders that separate the models.
func LitmusTests() []*LitmusTest {
	return []*LitmusTest{
		{
			Name: "SB",
			Desc: "store buffering, relaxed (r1=0 r2=0 is c11-only)",
			Prog: func(record func(string)) func(*checker.Thread) {
				return func(root *checker.Thread) {
					x := root.NewAtomicInit("x", 0)
					y := root.NewAtomicInit("y", 0)
					var r1, r2 memmodel.Value
					a := root.Spawn("a", func(tt *checker.Thread) {
						x.Store(tt, memmodel.Relaxed, 1)
						r1 = y.Load(tt, memmodel.Relaxed)
					})
					b := root.Spawn("b", func(tt *checker.Thread) {
						y.Store(tt, memmodel.Relaxed, 1)
						r2 = x.Load(tt, memmodel.Relaxed)
					})
					root.Join(a)
					root.Join(b)
					record(fmt.Sprintf("r1=%d r2=%d", r1, r2))
				}
			},
		},
		{
			Name: "MP",
			Desc: "message passing, relaxed (f=1 v=0 is c11-only)",
			Prog: func(record func(string)) func(*checker.Thread) {
				return func(root *checker.Thread) {
					v := root.NewAtomicInit("v", 0)
					f := root.NewAtomicInit("f", 0)
					var rf, rv memmodel.Value
					w := root.Spawn("w", func(tt *checker.Thread) {
						v.Store(tt, memmodel.Relaxed, 42)
						f.Store(tt, memmodel.Relaxed, 1)
					})
					r := root.Spawn("r", func(tt *checker.Thread) {
						rf = f.Load(tt, memmodel.Relaxed)
						rv = v.Load(tt, memmodel.Relaxed)
					})
					root.Join(w)
					root.Join(r)
					record(fmt.Sprintf("f=%d v=%d", rf, rv))
				}
			},
		},
		{
			Name: "IRIW",
			Desc: "independent reads of independent writes, acq/rel (split reads are c11-only)",
			Prog: func(record func(string)) func(*checker.Thread) {
				return func(root *checker.Thread) {
					x := root.NewAtomicInit("x", 0)
					y := root.NewAtomicInit("y", 0)
					var a, b, c, d memmodel.Value
					t1 := root.Spawn("wx", func(tt *checker.Thread) { x.Store(tt, memmodel.Release, 1) })
					t2 := root.Spawn("wy", func(tt *checker.Thread) { y.Store(tt, memmodel.Release, 1) })
					t3 := root.Spawn("rxy", func(tt *checker.Thread) {
						a = x.Load(tt, memmodel.Acquire)
						b = y.Load(tt, memmodel.Acquire)
					})
					t4 := root.Spawn("ryx", func(tt *checker.Thread) {
						c = y.Load(tt, memmodel.Acquire)
						d = x.Load(tt, memmodel.Acquire)
					})
					root.Join(t1)
					root.Join(t2)
					root.Join(t3)
					root.Join(t4)
					record(fmt.Sprintf("a=%d b=%d c=%d d=%d", a, b, c, d))
				}
			},
		},
	}
}

// LitmusByName returns the named litmus test, or nil.
func LitmusByName(name string) *LitmusTest {
	for _, lt := range LitmusTests() {
		if lt.Name == name {
			return lt
		}
	}
	return nil
}

// DiffLeg summarizes one side of a diff: the model and reduction set it
// ran under, and what it observed.
type DiffLeg struct {
	Model      model.ID      `json:"model"`
	Reduce     string        `json:"reduce"`
	Executions int           `json:"executions"`
	Feasible   int           `json:"feasible"`
	Pruned     int           `json:"pruned"`
	Exhausted  bool          `json:"exhausted"`
	Behaviors  int           `json:"behaviors"`
	Failures   int           `json:"failures"` // distinct failure signatures
	Stats      checker.Stats `json:"stats"`
}

// DiffReport is the outcome of RunDiff: the two legs plus the set
// differences of their behavior and failure sets.
type DiffReport struct {
	Target string  `json:"target"`
	Kind   string  `json:"kind"` // "litmus" or "benchmark"
	A      DiffLeg `json:"a"`
	B      DiffLeg `json:"b"`
	// OnlyA / OnlyB are example behavior keys present in exactly one leg,
	// sorted, capped at MaxDiffExamples; the *Count fields are uncapped.
	OnlyA      []string `json:"only_a,omitempty"`
	OnlyB      []string `json:"only_b,omitempty"`
	OnlyACount int      `json:"only_a_count"`
	OnlyBCount int      `json:"only_b_count"`
	Common     int      `json:"common"`
	// FailOnlyA / FailOnlyB / FailCommon diff the deduplicated failure
	// signatures ("kind: message"); failure sets are small, so these are
	// complete, not capped.
	FailOnlyA  []string `json:"fail_only_a,omitempty"`
	FailOnlyB  []string `json:"fail_only_b,omitempty"`
	FailCommon int      `json:"fail_common"`
	// Ratio is A executions / B executions — the reduction factor when B
	// is the reduced leg (0 when B explored nothing).
	Ratio float64 `json:"ratio"`
	// Identical reports that the behavior and failure-signature sets are
	// equal. For two legs under one model this is the reduction
	// soundness claim.
	Identical bool `json:"identical"`
}

// MaxDiffExamples caps the behavior-key examples a report retains per
// side. The counts are always exact.
const MaxDiffExamples = 8

// legRun is the raw material of one leg before diffing.
type legRun struct {
	behaviors map[string]bool
	failures  map[string]bool
	res       *checker.Result
}

func failureSig(f *checker.Failure) string {
	return fmt.Sprintf("%s: %s", f.Kind, f.Msg)
}

// exploreLeg runs explore, collecting the behavior keys it records (from
// any worker) and the failure signatures of its result.
func exploreLeg(explore func(record func(key string)) *checker.Result) *legRun {
	lr := &legRun{behaviors: map[string]bool{}, failures: map[string]bool{}}
	var mu sync.Mutex
	lr.res = explore(func(key string) {
		mu.Lock()
		lr.behaviors[key] = true
		mu.Unlock()
	})
	for _, f := range lr.res.Failures {
		lr.failures[failureSig(f)] = true
	}
	return lr
}

// leg summarizes the run of a leg explored under opts.
func (lr *legRun) leg(opts Options) DiffLeg {
	return DiffLeg{
		Model:      opts.Model.OrDefault(),
		Reduce:     opts.Reduce.String(),
		Executions: lr.res.Executions,
		Feasible:   lr.res.Feasible,
		Pruned:     lr.res.Pruned,
		Exhausted:  lr.res.Exhausted,
		Behaviors:  len(lr.behaviors),
		Failures:   len(lr.failures),
		Stats:      lr.res.Stats,
	}
}

// runLitmusLeg explores one litmus program under opts, collecting
// outcome strings as behavior keys.
func runLitmusLeg(lt *LitmusTest, opts Options) *legRun {
	return exploreLeg(func(record func(string)) *checker.Result {
		return checker.Explore(opts.ExplorerConfig("diff:"+lt.Name), lt.Prog(record))
	})
}

// runBenchmarkLeg explores one Figure 7 benchmark's primary workload
// under opts, collecting canonical spec fingerprints as behavior keys.
func runBenchmarkLeg(b *Benchmark, opts Options) *legRun {
	return specLeg(b.spec(opts), opts.ExplorerConfig("diff:"+b.Name), b.Progs(b.Orders())[0])
}

// specLeg explores prog against spec under cfg, collecting canonical
// spec fingerprints as behavior keys.
func specLeg(spec *core.Spec, cfg checker.Config, prog func(*checker.Thread)) *legRun {
	return exploreLeg(func(record func(string)) *checker.Result {
		cfg.OnExecution = func(sys *checker.System) []*checker.Failure {
			if mon := core.FromSys(sys); mon != nil {
				record(fmt.Sprintf("%016x", mon.Fingerprint()))
			}
			return nil
		}
		return core.Explore(spec, cfg, prog)
	})
}

// setDiff splits two key sets into sorted only-a, only-b, and the size
// of the intersection.
func setDiff(a, b map[string]bool) (onlyA, onlyB []string, common int) {
	for k := range a {
		if b[k] {
			common++
		} else {
			onlyA = append(onlyA, k)
		}
	}
	for k := range b {
		if !a[k] {
			onlyB = append(onlyB, k)
		}
	}
	sort.Strings(onlyA)
	sort.Strings(onlyB)
	return onlyA, onlyB, common
}

func capExamples(keys []string) []string {
	if len(keys) > MaxDiffExamples {
		return keys[:MaxDiffExamples]
	}
	return keys
}

// DiffTargets lists the valid diff target names: litmus tests first,
// then the Figure 7 benchmarks.
func DiffTargets() []string {
	var names []string
	for _, lt := range LitmusTests() {
		names = append(names, lt.Name)
	}
	for _, b := range Benchmarks() {
		names = append(names, b.Name)
	}
	return names
}

// RunDiff explores target once under a and once under b — each leg takes
// its memory model from Options.Model and its reductions from
// Options.Reduce — and diffs the observable behavior and failure sets.
// Litmus names shadow benchmark names (they don't collide today).
func RunDiff(target string, a, b Options) (*DiffReport, error) {
	for _, o := range []Options{a, b} {
		if !o.Model.OrDefault().Valid() {
			return nil, fmt.Errorf("diff: unknown memory model %q (valid: %s)", o.Model, strings.Join(model.Names(), ", "))
		}
	}
	var run func(Options) *legRun
	kind := ""
	if lt := LitmusByName(target); lt != nil {
		kind = "litmus"
		run = func(o Options) *legRun { return runLitmusLeg(lt, o) }
	} else if bench := BenchmarkByName(target); bench != nil {
		kind = "benchmark"
		run = func(o Options) *legRun { return runBenchmarkLeg(bench, o) }
	} else {
		return nil, fmt.Errorf("diff: unknown target %q (valid: %s)", target, strings.Join(DiffTargets(), ", "))
	}
	runA, runB := run(a), run(b)
	onlyA, onlyB, common := setDiff(runA.behaviors, runB.behaviors)
	failA, failB, failCommon := setDiff(runA.failures, runB.failures)
	rep := &DiffReport{
		Target:     target,
		Kind:       kind,
		A:          runA.leg(a),
		B:          runB.leg(b),
		OnlyA:      capExamples(onlyA),
		OnlyB:      capExamples(onlyB),
		OnlyACount: len(onlyA),
		OnlyBCount: len(onlyB),
		Common:     common,
		FailOnlyA:  failA,
		FailOnlyB:  failB,
		FailCommon: failCommon,
		Identical:  len(onlyA) == 0 && len(onlyB) == 0 && len(failA) == 0 && len(failB) == 0,
	}
	if runB.res.Executions > 0 {
		rep.Ratio = float64(runA.res.Executions) / float64(runB.res.Executions)
	}
	return rep, nil
}

// legNames labels the two legs for rendering: by model when the models
// differ, else by reduction set, else plainly a and b.
func (r *DiffReport) legNames() (string, string) {
	switch {
	case r.A.Model != r.B.Model:
		return string(r.A.Model), string(r.B.Model)
	case r.A.Reduce != r.B.Reduce:
		return "reduce=" + r.A.Reduce, "reduce=" + r.B.Reduce
	}
	return "a", "b"
}

// Render formats the report for the terminal.
func (r *DiffReport) Render() string {
	var sb strings.Builder
	nameA, nameB := r.legNames()
	fmt.Fprintf(&sb, "diff %s (%s): %s vs %s\n", r.Target, r.Kind, nameA, nameB)
	for i, l := range []DiffLeg{r.A, r.B} {
		state := "exhausted"
		if !l.Exhausted {
			state = "not exhausted"
		}
		fmt.Fprintf(&sb, "  %c (%s, reduce=%s): %d executions, %d feasible, %d behaviors, %d failure kinds (%s)\n",
			'a'+i, l.Model, l.Reduce, l.Executions, l.Feasible, l.Behaviors, l.Failures, state)
		if s := l.Stats; l.Reduce != "none" {
			fmt.Fprintf(&sb, "    %d rf-equiv prunes, %d symmetry prunes, %d spinloop bounds, %d rf classes\n",
				s.RFEquivPrunes, s.SymmetryPrunes, s.SpinloopBounds, s.RFClasses)
		}
	}
	fmt.Fprintf(&sb, "  ratio: %.2fx executions (a/b)\n", r.Ratio)
	fmt.Fprintf(&sb, "  behaviors: %d common, %d only under %s, %d only under %s\n",
		r.Common, r.OnlyACount, nameA, r.OnlyBCount, nameB)
	example := func(keys []string, total int, name string) {
		for _, k := range keys {
			fmt.Fprintf(&sb, "    only %s: %s\n", name, k)
		}
		if total > len(keys) {
			fmt.Fprintf(&sb, "    ... and %d more only under %s\n", total-len(keys), name)
		}
	}
	example(r.OnlyA, r.OnlyACount, nameA)
	example(r.OnlyB, r.OnlyBCount, nameB)
	fmt.Fprintf(&sb, "  failures: %d common, %d only under %s, %d only under %s\n",
		r.FailCommon, len(r.FailOnlyA), nameA, len(r.FailOnlyB), nameB)
	example(r.FailOnlyA, len(r.FailOnlyA), nameA)
	example(r.FailOnlyB, len(r.FailOnlyB), nameB)
	if r.Identical {
		sb.WriteString("  identical: same behavior and failure-signature sets\n")
	}
	return sb.String()
}
