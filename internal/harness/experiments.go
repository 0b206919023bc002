package harness

import (
	"fmt"
	"strings"

	"repro/internal/checker"
	"repro/internal/core"
	"repro/internal/structures/chaselev"
	"repro/internal/structures/msqueue"
)

// KnownBugResult is one §6.4.1 known-bug reproduction.
type KnownBugResult struct {
	Name     string
	Detected bool
	Channel  string
	Detail   string
}

// knownBugCheck is one §6.4.1 reproduction: a buggy program and the
// configuration that checks it.
type knownBugCheck struct {
	name string
	spec func() *core.Spec
	cfg  checker.Config
	prog func(*checker.Thread)
}

// run checks the program with par workers.
func (k knownBugCheck) run(par int) *checker.Result {
	cfg := k.cfg
	cfg.Parallelism = par
	return core.Explore(k.spec(), cfg, k.prog)
}

// knownBugChecks lists the §6.4.1 reproductions: the two AUTO MO bugs in
// the M&S queue and the CDSChecker bug in the Chase-Lev deque (in both
// its uninitialized-load and specification-violation guises).
func knownBugChecks() []knownBugCheck {
	ms := msqueueBenchmark()
	cl := chaselevBenchmark()
	specProg := func(root *checker.Thread) {
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
	stop := checker.Config{StopAtFirst: true}
	return []knownBugCheck{
		{"M&S queue: enqueue publication too weak (AutoMO bug 1)", ms.Spec, stop,
			ms.Progs(msqueue.KnownBugEnqueue())[0]},
		{"M&S queue: dequeue head load too weak (AutoMO bug 2)", ms.Spec, stop,
			ms.Progs(msqueue.KnownBugDequeue())[0]},
		{"Chase-Lev deque: weak resize publication (uninit load)", cl.Spec, stop,
			cl.Progs(chaselev.KnownBugOrders())[1]},
		{"Chase-Lev deque: same bug with uninit report silenced (spec violation)",
			func() *core.Spec { return chaselev.Spec("d") },
			checker.Config{StopAtFirst: true, DisableLifetimeCheck: true}, specProg},
	}
}

// RunKnownBugs reproduces §6.4.1 (see knownBugChecks).
func RunKnownBugs() []KnownBugResult {
	var out []KnownBugResult
	for _, k := range knownBugChecks() {
		r := KnownBugResult{Name: k.name}
		if f := k.run(0).FirstFailure(); f != nil {
			r.Detected = true
			r.Channel = f.Kind.String()
			r.Detail = f.Msg
		}
		out = append(out, r)
	}
	return out
}

// FormatKnownBugs renders the §6.4.1 results.
func FormatKnownBugs(rs []KnownBugResult) string {
	var b strings.Builder
	for _, r := range rs {
		status := "NOT DETECTED"
		if r.Detected {
			status = "detected via " + r.Channel
		}
		fmt.Fprintf(&b, "%-72s %s\n", r.Name, status)
	}
	return b.String()
}

// OverlyStrongResult is the §6.4.3 experiment outcome.
type OverlyStrongResult struct {
	Executions int
	Feasible   int
	Violations int
}

// RunOverlyStrong reproduces §6.4.3: relaxing the take-side seq_cst CAS
// on the Chase-Lev deque's top and exhaustively exploring — zero
// violations means the parameter was overly strong.
func RunOverlyStrong() OverlyStrongResult {
	cl := chaselevBenchmark()
	var r OverlyStrongResult
	for _, prog := range cl.Progs(chaselev.OverlyStrongOrders()) {
		res := core.Explore(cl.Spec(), checker.Config{}, prog)
		r.Executions += res.Executions
		r.Feasible += res.Feasible
		r.Violations += res.FailureCount
	}
	return r
}

// SpecStat describes one benchmark's specification size (§6.2).
type SpecStat struct {
	Name          string
	Methods       int
	OrderingNotes int // ordering-point annotations in the implementation
	AdmitRules    int
	NDMethods     int // methods with non-deterministic (justified) behavior
}

// RunSpecStats computes the §6.2 ease-of-use statistics over our specs.
// The paper reports 27 API methods, 33 ordering points (1.22/method), and
// 7 admissibility-rule lines.
func RunSpecStats() []SpecStat {
	var out []SpecStat
	for _, b := range Benchmarks() {
		s := b.Spec()
		st := SpecStat{Name: b.Name, Methods: len(s.Methods), AdmitRules: len(s.Admissibility)}
		for _, m := range s.Methods {
			if m.NeedsJustify != nil {
				st.NDMethods++
			}
		}
		out = append(out, st)
	}
	return out
}

// FormatSpecStats renders the §6.2 table.
func FormatSpecStats(stats []SpecStat) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %8s %12s %10s\n", "Benchmark", "Methods", "AdmitRules", "NDMethods")
	tm, ta, tn := 0, 0, 0
	for _, s := range stats {
		fmt.Fprintf(&b, "%-18s %8d %12d %10d\n", s.Name, s.Methods, s.AdmitRules, s.NDMethods)
		tm += s.Methods
		ta += s.AdmitRules
		tn += s.NDMethods
	}
	fmt.Fprintf(&b, "%-18s %8d %12d %10d   (paper: 27 methods, 7 admissibility lines)\n", "Total", tm, ta, tn)
	return b.String()
}
