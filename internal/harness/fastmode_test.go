package harness

import (
	"testing"

	"repro/internal/checker"
	"repro/internal/memmodel"
	"repro/internal/structures/chaselev"
	"repro/internal/structures/mpmc"
	"repro/internal/structures/msqueue"
)

// scaledMPMCProg builds a production-sized workload: perThread
// operations by each of two producers and two consumers against one
// bounded ring. The MPMC queue reuses a fixed set of locations (slots and
// two tickets), so live state stays bounded however many operations flow
// through, which is the workload the store-buffer bound exists for.
func scaledMPMCProg(perThread, capacity int) func(*checker.Thread) {
	return func(root *checker.Thread) {
		q := mpmc.New(root, "q", nil, capacity)
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
		p1, p2 := worker("p1", true), worker("p2", true)
		c1, c2 := worker("c1", false), worker("c2", false)
		root.Join(p1)
		root.Join(p2)
		root.Join(c1)
		root.Join(c2)
	}
}

// TestFastBenchSmoke is the fast-mode gate over the paper benchmarks,
// with fixed seeds:
//   - every primary unit test runs clean, with all 300 runs feasible (a
//     prune on a correct benchmark means the budget or the sampler is
//     wrong);
//   - both builtin-detectable §6.4.1 bugs, the M&S queue enqueue
//     publication and the Chase-Lev resize publication, are found
//     within 2000 runs;
//   - one run of a 10⁵-operation MPMC ring is feasible, and its
//     store-buffer evictions show that the memory bound engaged.
//
// Throughput is not gated here; bench/ measures it.
func TestFastBenchSmoke(t *testing.T) {
	for _, b := range Benchmarks() {
		res := checker.Explore(checker.Config{FastMode: true, MaxExecutions: 300, Seed: 1},
			b.Progs(b.Orders())[0])
		if res.FailureCount != 0 || res.Executions != 300 || res.Feasible != res.Executions {
			t.Errorf("%s: %d runs, %d feasible, %d failures (first: %v); want 300 clean feasible runs",
				b.Name, res.Executions, res.Feasible, res.FailureCount, res.FirstFailure())
		}
	}

	ms := BenchmarkByName("M&S Queue")
	cl := BenchmarkByName("Chase-Lev Deque")
	for _, seeded := range []struct {
		name string
		prog func(*checker.Thread)
	}{
		{"M&S Queue enqueue bug", ms.Progs(msqueue.KnownBugEnqueue())[0]},
		{"Chase-Lev Deque resize bug", cl.Progs(chaselev.KnownBugOrders())[1]},
	} {
		res := checker.Explore(checker.Config{FastMode: true, MaxExecutions: 2000, Seed: 1, StopAtFirst: true},
			seeded.prog)
		if res.FailureCount == 0 {
			t.Errorf("%s: not detected in %d runs", seeded.name, res.Executions)
		}
	}

	// The step bound covers data-structure steps plus spin retries; a
	// blown bound prunes the run, which the feasibility check catches.
	const perThread = 25000
	res := checker.Explore(checker.Config{FastMode: true, MaxExecutions: 1, Seed: 1, MaxSteps: 100 * 4 * perThread},
		scaledMPMCProg(perThread, 64))
	if res.Executions != 1 || res.Feasible != 1 || res.FailureCount != 0 {
		t.Errorf("MPMC ring 4×%d ops: %d runs, %d feasible, %d failures (first: %v); want one clean feasible run",
			perThread, res.Executions, res.Feasible, res.FailureCount, res.FirstFailure())
	}
	if res.Stats.StoreBufferEvictions == 0 {
		t.Error("MPMC ring saw no store-buffer evictions: the memory bound never engaged")
	}
}

// fastPin is the part of a fast-mode Result that TestFastModePinnedResults
// holds fixed: the run outcome split and the kernel counters that move
// whenever a load's visible-store set does.
type fastPin struct {
	Executions, Feasible, Pruned, Failures            int
	TotalSteps, RFBranches, ScheduleBranches, Evicted int
}

func pinOf(res *checker.Result) fastPin {
	return fastPin{
		Executions: res.Executions, Feasible: res.Feasible, Pruned: res.Pruned, Failures: res.FailureCount,
		TotalSteps: res.Stats.TotalSteps, RFBranches: res.Stats.RFBranchPoints,
		ScheduleBranches: res.Stats.ScheduleBranchPoints, Evicted: res.Stats.StoreBufferEvictions,
	}
}

// TestFastModePinnedResults pins fast-mode Results to recorded values, at
// one and three workers. The other fast-mode determinism tests compare a
// run with itself; these pins hold a kernel change that claims identical
// results (a faster visibility-floor computation, say) to the numbers of
// the code before it. The ten primary unit tests bring SC stores and SC
// fences (Chase-Lev Deque, RCU); the 4×2 000-op MPMC ring fills its
// 64-store windows, evicts, and carries SC floors across evictions.
func TestFastModePinnedResults(t *testing.T) {
	type check struct {
		name string
		cfg  checker.Config
		prog func(*checker.Thread)
	}
	var checks []check
	for _, b := range Benchmarks() {
		checks = append(checks, check{b.Name, checker.Config{FastMode: true, MaxExecutions: 200, Seed: 1},
			b.Progs(b.Orders())[0]})
	}
	const perThread = 2000
	checks = append(checks, check{"MPMC ring",
		checker.Config{FastMode: true, MaxExecutions: 2, Seed: 1, MaxSteps: 100 * 4 * perThread},
		scaledMPMCProg(perThread, 64)})

	want := map[string]fastPin{
		"Chase-Lev Deque":    {200, 200, 0, 0, 4863, 91, 1701, 0},
		"SPSC Queue":         {200, 200, 0, 0, 3784, 344, 1073, 0},
		"RCU":                {200, 200, 0, 0, 4568, 150, 990, 0},
		"Lockfree Hashtable": {200, 200, 0, 0, 5000, 0, 1788, 0},
		"MCS Lock":           {200, 200, 0, 0, 3284, 85, 1488, 0},
		"MPMC Queue":         {200, 200, 0, 0, 8810, 986, 3799, 0},
		"M&S Queue":          {200, 200, 0, 0, 7916, 500, 2386, 0},
		"Linux RW Lock":      {200, 200, 0, 0, 2835, 43, 1152, 0},
		"Seqlock":            {200, 200, 0, 0, 5493, 337, 1878, 0},
		"Ticket Lock":        {200, 200, 0, 0, 2706, 200, 801, 0},
		"MPMC ring":          {2, 2, 0, 0, 96448, 30719, 77049, 752},
	}
	for _, c := range checks {
		for _, workers := range []int{1, 3} {
			cfg := c.cfg
			cfg.Parallelism = workers
			if got := pinOf(checker.Explore(cfg, c.prog)); got != want[c.name] {
				t.Errorf("%s at %d workers:\n got %+v\nwant %+v", c.name, workers, got, want[c.name])
			}
		}
	}
}
