package checker

import (
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// --- Chase-Lev deque ---------------------------------------------------

// TestWSDequeSequential: owner-side LIFO, thief-side FIFO, and growth
// past the initial ring size.
func TestWSDequeSequential(t *testing.T) {
	d := newWSDeque()
	if d.popBottom() != nil || d.steal() != nil {
		t.Fatal("empty deque must return nil")
	}
	n := wsDequeInitialSize * 3 // forces two growths
	tasks := make([]*wsTask, n)
	for i := range tasks {
		tasks[i] = &wsTask{}
		d.push(tasks[i])
	}
	// Owner pops newest-first.
	if got := d.popBottom(); got != tasks[n-1] {
		t.Fatalf("popBottom: got %p, want last push %p", got, tasks[n-1])
	}
	// Thieves steal oldest-first.
	if got := d.steal(); got != tasks[0] {
		t.Fatalf("steal: got %p, want first push %p", got, tasks[0])
	}
	if got := d.steal(); got != tasks[1] {
		t.Fatalf("second steal: got %p, want %p", got, tasks[1])
	}
	// Drain the rest from the bottom; every remaining task appears once.
	seen := map[*wsTask]bool{}
	for {
		x := d.popBottom()
		if x == nil {
			break
		}
		if seen[x] {
			t.Fatal("task popped twice")
		}
		seen[x] = true
	}
	if len(seen) != n-3 {
		t.Fatalf("drained %d tasks, want %d", len(seen), n-3)
	}
	if d.popBottom() != nil || d.steal() != nil {
		t.Fatal("drained deque must return nil")
	}
}

// TestWSDequeConcurrent: one owner pushing and popping against stealing
// thieves; every task must be consumed exactly once (run under -race in
// CI, which also exercises the memory ordering).
func TestWSDequeConcurrent(t *testing.T) {
	const total = 20000
	const thieves = 4
	d := newWSDeque()
	var consumed atomic.Int64
	counts := make([]atomic.Int32, total)
	var wg sync.WaitGroup
	for i := 0; i < thieves; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for consumed.Load() < total {
				if task := d.steal(); task != nil {
					counts[task.node.depth].Add(1)
					consumed.Add(1)
				}
			}
		}()
	}
	// Owner: push in batches, pop some back — the popBottom/steal race on
	// the last element is the hard part of the algorithm.
	for i := 0; i < total; {
		for j := 0; j < 50 && i < total; j++ {
			d.push(&wsTask{node: &fnode{depth: i}})
			i++
		}
		for j := 0; j < 25; j++ {
			if task := d.popBottom(); task != nil {
				counts[task.node.depth].Add(1)
				consumed.Add(1)
			}
		}
	}
	for {
		task := d.popBottom()
		if task == nil {
			if consumed.Load() >= total {
				break
			}
			continue // thieves still draining in flight
		}
		counts[task.node.depth].Add(1)
		consumed.Add(1)
	}
	wg.Wait()
	for i := range counts {
		if c := counts[i].Load(); c != 1 {
			t.Fatalf("task %d consumed %d times, want exactly once", i, c)
		}
	}
}

// --- Fold list ---------------------------------------------------------

// TestFoldListClearsMergedCells: every cell coalesce unlinks — by a left
// merge or a right merge — is zeroed, so a completed task left in a stale
// deque slot pins neither its neighbours nor their results; and complete
// reports whether the leaf stayed in the list (the engine reuses merged-
// away leaves).
func TestFoldListClearsMergedCells(t *testing.T) {
	l := newFoldList(16)
	root := &wsTask{}
	l.appendCell(&foldCell{task: root})
	subs := []*wsTask{{node: &fnode{branch: 1}}, {node: &fnode{branch: 2}}, {node: &fnode{branch: 3}}}
	if !l.complete(root, &Result{Executions: 1}, subs) {
		t.Fatal("root leaf has no done neighbour, so it must stay in the list")
	}
	cells := []*foldCell{subs[0].cell, subs[1].cell, subs[2].cell}

	// subs[0] merges left into the root's region.
	if l.complete(subs[0], &Result{Executions: 1}, nil) {
		t.Error("subs[0] leaf merged into its left neighbour, but complete reported it kept")
	}
	// subs[2] has a pending left neighbour: it stays.
	if !l.complete(subs[2], &Result{Executions: 1}, nil) {
		t.Error("subs[2] leaf stayed in the list, but complete reported it merged")
	}
	// subs[1] merges left, and the region then absorbs subs[2] on the right.
	if l.complete(subs[1], &Result{Executions: 1}, nil) {
		t.Error("subs[1] leaf merged into its left neighbour, but complete reported it kept")
	}

	if l.head != l.tail || l.head.res == nil || l.head.res.Executions != 4 {
		t.Fatalf("drained list should be one done cell of 4 executions, got head=%+v tail=%+v", l.head, l.tail)
	}
	for i, c := range cells {
		if c.prev != nil || c.next != nil || c.res != nil || c.task != nil {
			t.Errorf("merged-away cell of subs[%d] still holds prev=%p next=%p res=%p task=%p",
				i, c.prev, c.next, c.res, c.task)
		}
	}
}

// --- Determinism and the MaxExecutions invariant -----------------------

// TestParallelDeterminism: work-stealing exploration is bit-identical to
// sequential across worker counts, including under a tight failure cap
// (the per-merge cap must retain exactly the failures a sequential run
// keeps); and a cancelled bounded run never overshoots MaxExecutions —
// bounds.tryStart reserves with a CAS loop, so the counter cannot pass
// the bound no matter how StopAtFirst's cancel races it.
func TestParallelDeterminism(t *testing.T) {
	for _, n := range []int{2, 4, 16} {
		compareParallel(t, fmt.Sprintf("store-buffering-%dw", n), n, Config{}, manyExecProgram)
	}
	// Failure retention under a cap smaller than the failure count.
	compareParallel(t, "deadlock-capped", 4, Config{MaxFailures: 3}, deadlockProg)

	// The overshoot invariant, raced 25 times: StopAtFirst cancels while
	// other workers hold budget reservations.
	for i := 0; i < 25; i++ {
		res := Explore(Config{MaxExecutions: 6, StopAtFirst: true, Parallelism: 8}, deadlockProg)
		if res.Executions > 6 {
			t.Fatalf("iteration %d: cancelled bounded run overshot MaxExecutions: %d > 6", i, res.Executions)
		}
		if res.Exhausted {
			t.Fatalf("iteration %d: cut-short run must not report Exhausted", i)
		}
	}
	// Same without StopAtFirst: the reservation makes the bound exact.
	for _, par := range []int{2, 8} {
		res := Explore(Config{MaxExecutions: 6, Parallelism: par}, manyExecProgram)
		if res.Executions != 6 {
			t.Fatalf("parallelism %d: bounded run made %d executions, want exactly 6", par, res.Executions)
		}
	}
}

// --- Checkpoint / resume ----------------------------------------------

// checkpointAt runs prog up to cut executions with the given parallelism
// and returns the final checkpoint (which carries the outstanding
// frontier when cut is smaller than the space).
func checkpointAt(t *testing.T, cfg Config, prog func(*Thread), cut, par int) *Checkpoint {
	t.Helper()
	var cp *Checkpoint
	cfg.MaxExecutions = cut
	cfg.Parallelism = par
	cfg.Checkpoint = func(c *Checkpoint) { cp = c }
	res := Explore(cfg, prog)
	if res.Executions != cut {
		t.Fatalf("bounded run made %d executions, want %d", res.Executions, cut)
	}
	if cp == nil {
		t.Fatal("no checkpoint emitted")
	}
	if err := cp.Validate(); err != nil {
		t.Fatalf("invalid checkpoint: %v", err)
	}
	return cp
}

// requireIdentical asserts the full bit-identity contract between two
// results (timings and scheduler telemetry exempt).
func requireIdentical(t *testing.T, name string, want, got *Result) {
	t.Helper()
	if want.Executions != got.Executions || want.Feasible != got.Feasible ||
		want.Pruned != got.Pruned || want.Exhausted != got.Exhausted ||
		want.FailureCount != got.FailureCount {
		t.Fatalf("%s: counts differ: want %v (exhausted=%v), got %v (exhausted=%v)",
			name, want, want.Exhausted, got, got.Exhausted)
	}
	if want.Stats.WithoutTimings() != got.Stats.WithoutTimings() {
		t.Fatalf("%s: stats differ:\n  want: %+v\n  got:  %+v",
			name, want.Stats.WithoutTimings(), got.Stats.WithoutTimings())
	}
	if len(want.Failures) != len(got.Failures) {
		t.Fatalf("%s: retained failures differ: want %d, got %d", name, len(want.Failures), len(got.Failures))
	}
	for i := range want.Failures {
		wf, gf := want.Failures[i], got.Failures[i]
		if wf.Kind != gf.Kind || wf.Execution != gf.Execution {
			t.Fatalf("%s: failure %d differs: want %v@%d, got %v@%d",
				name, i, wf.Kind, wf.Execution, gf.Kind, gf.Execution)
		}
	}
}

// TestCheckpointResumeDeterminism: a run killed at any point resumes from
// its checkpoint to the exact sequential Result, across checkpoint
// parallelism × resume parallelism, for a failure-free and a
// failure-heavy program.
func TestCheckpointResumeDeterminism(t *testing.T) {
	progs := []struct {
		name string
		prog func(*Thread)
		cfg  Config
	}{
		{"store-buffering", manyExecProgram, Config{}},
		{"deadlock", deadlockProg, Config{MaxFailures: 1 << 20}},
	}
	for _, p := range progs {
		seq := Explore(p.cfg, p.prog)
		if seq.Executions < 8 {
			t.Fatalf("%s: too small for the cut points: %v", p.name, seq)
		}
		for _, cut := range []int{1, 3, seq.Executions / 2, seq.Executions - 1} {
			for _, cpPar := range []int{1, 4} {
				for _, resPar := range []int{1, 4, 16} {
					cp := checkpointAt(t, p.cfg, p.prog, cut, cpPar)
					rcfg := p.cfg
					rcfg.Parallelism = resPar
					rcfg.ResumeFrom = cp
					resumed := Explore(rcfg, p.prog)
					requireIdentical(t,
						fmt.Sprintf("%s cut=%d cpPar=%d resPar=%d", p.name, cut, cpPar, resPar),
						seq, resumed)
				}
			}
		}
	}
}

// TestCheckpointChained: checkpoint → resume with a budget → checkpoint
// again → resume to completion; the chained total equals sequential.
func TestCheckpointChained(t *testing.T) {
	seq := Explore(Config{}, manyExecProgram)
	cp1 := checkpointAt(t, Config{}, manyExecProgram, 2, 4)

	var cp2 *Checkpoint
	mid := Explore(Config{
		MaxExecutions: seq.Executions / 2,
		Parallelism:   2,
		ResumeFrom:    cp1,
		Checkpoint:    func(c *Checkpoint) { cp2 = c },
	}, manyExecProgram)
	if mid.Executions != seq.Executions/2 {
		t.Fatalf("middle segment stopped at %d executions, want %d", mid.Executions, seq.Executions/2)
	}
	if cp2 == nil || cp2.Complete() {
		t.Fatalf("middle checkpoint should carry outstanding work: %+v", cp2)
	}
	final := Explore(Config{Parallelism: 4, ResumeFrom: cp2}, manyExecProgram)
	requireIdentical(t, "chained", seq, final)
}

// TestCheckpointJSONRoundTrip: the checkpoint survives JSON serialization
// (the CLI's on-disk form) and the deserialized copy resumes to the same
// result.
func TestCheckpointJSONRoundTrip(t *testing.T) {
	seq := Explore(Config{MaxFailures: 1 << 20}, deadlockProg)
	cp := checkpointAt(t, Config{MaxFailures: 1 << 20}, deadlockProg, seq.Executions/2, 4)

	blob, err := json.Marshal(cp)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Checkpoint
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if err := back.Validate(); err != nil {
		t.Fatalf("round-tripped checkpoint invalid: %v", err)
	}
	if back.Executions != cp.Executions || back.Pending() != cp.Pending() {
		t.Fatalf("round trip changed shape: %d/%d executions, %d/%d pending",
			back.Executions, cp.Executions, back.Pending(), cp.Pending())
	}
	resumed := Explore(Config{MaxFailures: 1 << 20, Parallelism: 4, ResumeFrom: &back}, deadlockProg)
	requireIdentical(t, "json-round-trip", seq, resumed)
}

// TestCheckpointOfCompletedRun: a run that drains its frontier emits a
// complete checkpoint (a single done cell); resuming it returns the
// result without exploring anything new.
func TestCheckpointOfCompletedRun(t *testing.T) {
	var cp *Checkpoint
	full := Explore(Config{Parallelism: 4, Checkpoint: func(c *Checkpoint) { cp = c }}, manyExecProgram)
	if !full.Exhausted {
		t.Fatalf("expected exhaustion: %v", full)
	}
	if cp == nil || !cp.Complete() {
		t.Fatalf("final checkpoint of a completed run should be complete: %+v", cp)
	}
	resumed := Explore(Config{ResumeFrom: cp}, manyExecProgram)
	requireIdentical(t, "resume-completed", full, resumed)
}

// TestCheckpointInterrupt: closing Config.Interrupt stops the run
// gracefully and the final checkpoint resumes to the sequential result.
func TestCheckpointInterrupt(t *testing.T) {
	seq := Explore(Config{}, manyExecProgram)
	intr := make(chan struct{})
	close(intr) // interrupt immediately: workers stop after their first executions
	var cp *Checkpoint
	partial := Explore(Config{
		Parallelism: 2,
		Interrupt:   intr,
		Checkpoint:  func(c *Checkpoint) { cp = c },
	}, manyExecProgram)
	if cp == nil {
		t.Fatal("no checkpoint after interrupt")
	}
	if partial.Executions+cp.Pending() == 0 {
		t.Fatal("interrupted run recorded nothing")
	}
	resumed := Explore(Config{Parallelism: 4, ResumeFrom: cp}, manyExecProgram)
	requireIdentical(t, "interrupt", seq, resumed)
}

// TestCheckpointValidate rejects the malformed shapes a hand-edited or
// truncated file could produce.
func TestCheckpointValidate(t *testing.T) {
	bad := []Checkpoint{
		{},
		{Schema: "cdsspec-checkpoint/v0", Cells: []CheckpointCell{{Pending: true}}},
		{Schema: CheckpointSchema},
		{Schema: CheckpointSchema, Cells: []CheckpointCell{{}}},
		{Schema: CheckpointSchema, Cells: []CheckpointCell{{Result: &Result{}, Pending: true}}},
		{Schema: CheckpointSchema, Cells: []CheckpointCell{
			{Pending: true, Task: []CheckpointDecision{{Kind: "bogus"}}}}},
		{Schema: CheckpointSchema, Cells: []CheckpointCell{
			{Pending: true, Task: []CheckpointDecision{{Kind: "sched", Cands: []int{1, 2}, Branch: 2}}}}},
		{Schema: CheckpointSchema, Cells: []CheckpointCell{
			{Pending: true, Task: []CheckpointDecision{{Kind: "read", N: 2, Branch: 5}}}}},
	}
	for i, cp := range bad {
		if err := cp.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
	good := Checkpoint{Schema: CheckpointSchema, Cells: []CheckpointCell{
		{Result: &Result{}},
		{Pending: true, Task: []CheckpointDecision{{Kind: "sched", Cands: []int{1, 2}, Branch: 1}}},
		{Pending: true}, // root task, empty path
	}}
	if err := good.Validate(); err != nil {
		t.Errorf("valid checkpoint rejected: %v", err)
	}
}

// --- Progress: ETA clamp and scheduler gauges --------------------------

// TestEtaForClamp: the ETA is clamped to zero on overshoot (final
// snapshots can exceed maxExecs), zero/negative rates, and non-finite
// rates — all of which previously produced negative or NaN durations.
func TestEtaForClamp(t *testing.T) {
	cases := []struct {
		execs, max int
		rate       float64
		want       time.Duration
	}{
		{50, 100, 50, time.Second},
		{100, 100, 50, 0}, // exactly at the bound
		{150, 100, 50, 0}, // overshoot: was negative
		{0, 100, 0, 0},    // no rate yet: was +Inf via division? (guarded)
		{0, 100, math.NaN(), 0},
		{0, 100, math.Inf(1), 0},
		{0, 100, -5, 0},
		{50, 0, 50, 0}, // unbounded run
	}
	for i, c := range cases {
		if got := etaFor(c.execs, c.max, c.rate); got != c.want {
			t.Errorf("case %d: etaFor(%d, %d, %v) = %v, want %v", i, c.execs, c.max, c.rate, got, c.want)
		}
	}
}

// TestProgressStealsAndFrontier: a parallel run's final snapshot reports
// the engine gauges (frontier drained to zero) and a clamped ETA.
func TestProgressStealsAndFrontier(t *testing.T) {
	var final Progress
	res := Explore(Config{
		Parallelism:      4,
		Progress:         func(p Progress) { final = p },
		ProgressInterval: time.Hour, // only the closing snapshot
	}, manyExecProgram)
	if !final.Final {
		t.Fatal("closing snapshot not delivered")
	}
	if final.Executions != res.Executions {
		t.Errorf("final snapshot executions %d, want %d", final.Executions, res.Executions)
	}
	if final.Frontier != 0 {
		t.Errorf("drained run should report frontier 0, got %d", final.Frontier)
	}
	if final.Stats.Steals != res.Stats.Steals {
		t.Errorf("final snapshot steals %d, want %d", final.Stats.Steals, res.Stats.Steals)
	}
	if final.ETA != 0 {
		t.Errorf("unbounded run must report zero ETA, got %v", final.ETA)
	}
}

// TestSupervisorHooks: one supervisor goroutine serves Interrupt,
// Checkpoint and Progress. The hooks never overlap; every snapshot is a
// view of the fold list — never decreasing, never past the final one, its
// counts and Stats summed over the same completed regions — and the last
// checkpoint of the interrupted run resumes to the uninterrupted Result.
func TestSupervisorHooks(t *testing.T) {
	// One spec-cache hit per feasible execution; the sleep spreads the
	// run over enough ticks for the interrupt to land mid-exploration.
	onExec := func(sys *System) []*Failure {
		sys.ReportSpecStats(SpecReport{CacheHits: 1})
		time.Sleep(time.Millisecond)
		return nil
	}
	full := Explore(Config{OnExecution: onExec}, manyExecProgram)
	for _, par := range []int{1, 4} {
		name := fmt.Sprintf("parallelism %d", par)
		// inHook is a plain counter on purpose: under -race, overlapping
		// hooks are a data race on it as well as a count above one.
		inHook := 0
		enter := func() {
			if inHook++; inHook != 1 {
				t.Errorf("%s: hooks overlap", name)
			}
		}
		intr := make(chan struct{})
		var snaps []Progress
		var last *Checkpoint
		res := Explore(Config{
			Parallelism:      par,
			OnExecution:      onExec,
			Interrupt:        intr,
			ProgressInterval: time.Millisecond,
			Progress: func(p Progress) {
				enter()
				defer func() { inHook-- }()
				if snaps = append(snaps, p); len(snaps) == 3 {
					close(intr)
				}
			},
			CheckpointEvery: time.Millisecond,
			Checkpoint: func(cp *Checkpoint) {
				enter()
				defer func() { inHook-- }()
				last = cp
			},
		}, manyExecProgram)

		final := snaps[len(snaps)-1]
		if !final.Final {
			t.Fatalf("%s: last snapshot not Final: %+v", name, final)
		}
		prev := 0
		for i, p := range snaps {
			if p.Stats.SpecCacheHits != p.Feasible {
				t.Errorf("%s: snapshot %d counts %d cache hits for %d feasible executions", name, i, p.Stats.SpecCacheHits, p.Feasible)
			}
			if p.Final {
				continue
			}
			if p.Executions < prev || p.Executions > final.Executions {
				t.Errorf("%s: snapshot %d at %d executions, after %d and with %d final", name, i, p.Executions, prev, final.Executions)
			}
			prev = p.Executions
		}
		if final.Executions != res.Executions || final.Feasible != res.Feasible ||
			final.Pruned != res.Pruned || final.Failures != res.FailureCount || final.Stats != res.Stats {
			t.Errorf("%s: final snapshot %+v does not equal the result %v %+v", name, final, res, res.Stats)
		}
		resumed := Explore(Config{OnExecution: onExec, ResumeFrom: last}, manyExecProgram)
		requireIdentical(t, name, full, resumed)
	}
}

// --- mergeInto edge cases ---------------------------------------------

// TestMergeIntoFailureCap: per-shard results each retain up to the cap,
// and the merged result keeps exactly the first maxFailures in task
// order with correctly offset execution indices — never under-reporting
// a failure a sequential run would have kept.
func TestMergeIntoFailureCap(t *testing.T) {
	mk := func(execs int, at ...int) *Result {
		r := &Result{Executions: execs, FailureCount: len(at)}
		for _, e := range at {
			r.Failures = append(r.Failures, &Failure{Kind: FailDeadlock, Execution: e})
		}
		return r
	}
	res := &Result{}
	locals := []*Result{
		mk(4, 1, 3), // global 1, 3
		nil,         // worker that never started
		mk(2, 2),    // global 6
		mk(3, 1, 2, 3),
	}
	mergeInto(res, locals, 4)
	if res.Executions != 9 || res.FailureCount != 6 {
		t.Fatalf("merged counts wrong: %+v", res)
	}
	want := []int{1, 3, 6, 7} // the first 4 in fold order
	if len(res.Failures) != len(want) {
		t.Fatalf("retained %d failures, want %d", len(res.Failures), len(want))
	}
	for i, w := range want {
		if res.Failures[i].Execution != w {
			t.Errorf("failure %d at execution %d, want %d", i, res.Failures[i].Execution, w)
		}
	}
}
