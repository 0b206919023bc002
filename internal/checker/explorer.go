// Package checker is an operational model checker for the C/C++11 memory
// model — the substrate the paper's CDSSpec tool plugs into (CDSChecker).
//
// Test programs are written against simulated atomics (Atomic, Plain,
// Mutex, Fence) and executed by a cooperative scheduler, one visible
// operation at a time. The explorer enumerates executions by depth-first
// search over two kinds of nondeterminism:
//
//   - which runnable thread performs the next visible operation, and
//   - which visible store each atomic load reads from (stale reads
//     included, subject to the coherence and seq_cst rules).
//
// Backtracking is stateless: the program is re-run from scratch following
// a recorded decision prefix, exactly as in CDSChecker.
package checker

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/checker/model"
)

// Config controls an exploration.
type Config struct {
	// Model selects the consistency model the exploration runs under
	// (default model.C11). Both engines honor it — the work-stealing DFS
	// engine and FastMode — because the rules live behind the per-System
	// consistency backend, not in the engines.
	// An unknown model is a configuration error (Validate reports it;
	// Explore panics on it).
	Model model.ID
	// MaxExecutions bounds the number of executions explored
	// (0 = exhaustive). In FastMode it is the run budget.
	MaxExecutions int
	// Parallelism is the number of worker goroutines exploring
	// concurrently (0 or 1 = one worker). DFS mode explores with
	// work-stealing over decision subtrees — each worker owns a Chase-Lev
	// deque of frontier tasks and steals when dry — while folding every
	// task's result at its canonical decision-path position, so an
	// exhaustive run returns bit-identical
	// Executions/Feasible/Pruned/Failures/Stats (timings and scheduler
	// telemetry aside) at every worker count. FastMode shards its run
	// budget, with each run drawing from an independent seed derived from
	// Seed. When Parallelism > 1 the OnRunStart and
	// OnExecution hooks must be safe for concurrent use (each call still
	// receives a distinct *System).
	Parallelism int
	// MaxSteps bounds the visible operations per execution; runs that
	// exceed it are pruned as infeasible. 0 uses a default of 4000.
	MaxSteps int
	// StopAtFirst stops the exploration at the first failure.
	StopAtFirst bool
	// MaxFailures bounds how many failures are retained (default 16).
	MaxFailures int
	// Seed seeds FastMode. Each run's decision stream is derived from
	// (Seed, run index), so results do not depend on how runs are
	// scheduled across workers.
	Seed int64
	// FastMode replaces exploration with C11Tester-style plausible-
	// execution sampling: each run picks one random schedule and one
	// plausible reads-from assignment, biased toward recent stores, with
	// clock-vector race detection for plain and atomic accesses — in O(live
	// state) memory (no action trace, per-location store buffers of 64
	// stores; see maybeEvict). Built-in checks (races, mixed races, uninitialized
	// loads, deadlocks) still fire; the CDSSpec layer is unsupported
	// (core.Explore rejects the combination). MaxExecutions is the run
	// budget (default 1000 when 0); Exhausted is never set — sampling
	// proves presence, not absence.
	//
	// Engine routing: FastMode when set, otherwise the work-stealing DFS
	// engine at any Parallelism. FastMode honors Parallelism by sharding
	// its run budget over contiguous index blocks with per-run derived
	// seeds, so its Result and Stats are bit-identical at any Parallelism
	// (timings aside). Checkpoint, ResumeFrom and Progress apply only to
	// DFS; Interrupt is honored by both engines (a FastMode wall-clock
	// budget is an Interrupt closed by a timer).
	FastMode bool
	// Reduce selects the execution-equivalence reductions (reduce.go):
	// rf-class subtree pruning over a shared seen-set, thread-symmetry
	// canonicalization, and spinloop/await bounding. Zero value = no
	// reduction (the pre-reduction explorer). Each mechanism is
	// independently toggleable and composes with the DFS engine at any
	// Parallelism and with every Model backend; FastMode supports none
	// (Validate rejects the combination). The behavior set — spec
	// fingerprints and failure kinds — is preserved exactly; see
	// DESIGN.md §5c for the equivalence key and soundness argument.
	Reduce ReduceSet
	// DisableLifetimeCheck turns off the unpublished-memory built-in
	// check, the equivalent of silencing CDSChecker's uninitialized-load
	// report (the paper does this in §6.4.1 to let the Chase-Lev bug
	// surface as a specification violation instead).
	DisableLifetimeCheck bool

	// Test-only settings. The four kernel switches (floor cache, pooling,
	// load compaction, replay pinning) each pick a setting of the one
	// implementation — the reference the tests compare an optimization
	// against — never a second code path, and leave every Result
	// identical; KernelOptsOff in export_test.go turns them off together
	// for external tests.
	//
	// disableSleepSet turns off the sleep-set partial-order reduction:
	// every enabled thread stays a scheduling candidate, so more
	// executions reach the same outcome set.
	disableSleepSet bool
	// disableFloorCache turns off the per-(thread, location) memoization
	// of visibleFloor.
	disableFloorCache bool
	// disablePooling starts every execution from fresh state:
	// execPool.take stops the pool's thread goroutines and drops the
	// System, threads, locations, actions and clocks it holds before
	// each execution.
	disablePooling bool
	// disableReplayPinning makes every value site compute its visibility
	// record fresh: dfsChooser.enter validates no recorded prefix for
	// frozen-prefix replay to reuse.
	disableReplayPinning bool
	// debugReplayCheck recomputes every pinned visibility record during
	// replay and panics on mismatch — a (slow) validation mode for the
	// replay-determinism invariant the pinning fast path relies on.
	debugReplayCheck bool
	// compactThreshold is the loadRec count past which a location's
	// read-read coherence records are compacted (default 64). Tests lower
	// it to force compaction on small programs; KernelOptsOff raises it
	// to math.MaxInt, which no location reaches, to turn compaction off.
	compactThreshold int
	// storeBound bounds each location's retained store-buffer window in
	// FastMode (default 64, minimum 2; tests lower it to force eviction).
	// When a buffer overflows, the older half is evicted: evicted stores
	// are treated as happened-before everything and can no longer be read
	// stale — the plausibility approximation that keeps memory constant.
	storeBound int

	// OnRunStart runs at the start of every execution, before the root
	// thread. It typically installs the spec monitor in sys.Aux. sys.Aux
	// still holds what the worker's previous execution left there (nil on
	// its first, and on every execution under the tests' disablePooling
	// reference), so the hook can reset and reuse it instead of
	// allocating.
	OnRunStart func(sys *System)
	// OnExecution runs after every feasible (completed) execution and
	// returns any specification failures found in it.
	OnExecution func(sys *System) []*Failure
	// NewScratch, when set, is called once per exploration shard and its
	// result is exposed to the hooks as System.Scratch for every execution
	// of that shard. In DFS mode each branch of the root decision node is
	// one shard, whichever workers explore it (in FastMode each run is a
	// shard). The CDSSpec layer keeps its spec-check
	// memoization cache here — tying shards to the decision tree rather
	// than to workers is what keeps cache-derived Stats counters
	// bit-identical at every worker count. Several workers may explore one
	// shard concurrently (work-stealing carves shards into subtree tasks),
	// so when Parallelism > 1 the scratch value must be safe for
	// concurrent use; the CDSSpec cache locks internally.
	NewScratch func() any
	// Progress, when set, receives a periodic snapshot of the running DFS
	// exploration every ProgressInterval, plus a closing snapshot with
	// Final set whose counts and Stats equal the returned Result. It is
	// invoked from the exploration's supervisor goroutine (and, for the
	// final snapshot, from the Explore caller), never concurrently with
	// itself or with Checkpoint. FastMode does not report progress.
	Progress func(Progress)
	// ProgressInterval is the delivery period for Progress snapshots
	// (default 1s).
	ProgressInterval time.Duration

	// Checkpoint, when set, receives serialized snapshots of the DFS
	// exploration state: the outstanding decision frontier plus the
	// Result/Stats accumulated so far (see Checkpoint). It is called
	// every CheckpointEvery (when positive) and once more after the
	// workers stop — whether the run completed, hit MaxExecutions, or was
	// interrupted — never concurrently with itself or with Progress, at
	// any Parallelism.
	Checkpoint func(*Checkpoint)
	// CheckpointEvery is the period between Checkpoint snapshots (0 =
	// only the final snapshot).
	CheckpointEvery time.Duration
	// ResumeFrom continues a previous exploration from its checkpoint:
	// completed regions are folded as-is and only the outstanding
	// frontier is explored, at any Parallelism. The final Result is
	// bit-identical (timings aside) to an uninterrupted run. The frontier
	// is only valid under the Model and Reduce set it was explored under
	// (Checkpoint.Model/Reduce): Validate refuses any other, and Explore
	// panics if the checkpoint fails Checkpoint.Validate.
	ResumeFrom *Checkpoint
	// Interrupt, when non-nil, makes the engine stop gracefully as soon
	// as the channel is closed (or receives): workers finish their
	// current execution, the final Checkpoint snapshot is emitted, and
	// Explore returns the partial Result. Wire a signal handler to it for
	// SIGINT-driven checkpointing, or a timer for a wall-clock budget.
	Interrupt <-chan struct{}
	// backend is the resolved consistency backend for Model, installed by
	// withDefaults and read by every System of the exploration.
	backend consistency
	// rfSeen is the shared witnessed-state registry behind Reduce.RF,
	// installed by withDefaults (one per exploration, shared by every
	// worker; internally sharded and locked). Checkpoints do not carry it:
	// a resume starts with an empty registry, which is sound — the set
	// only prunes, never admits.
	rfSeen *rfSeenSet
}

// Validate reports the first configuration error, or nil. Explore panics
// on an invalid Config (misconfiguration is a caller bug, like an invalid
// checkpoint); callers that surface errors to users — the CLI, the
// harness — should Validate first.
//
// The checks reject combinations that earlier versions silently ignored
// or mishandled: FastMode quietly dropped Checkpoint/ResumeFrom instead
// of refusing them (FastMode samples independent runs — there is no
// frontier to checkpoint or to report progress on), and a ResumeFrom
// explored under another model or reduction set was continued as if it
// were this Config's, returning a count that belongs to neither space.
func (c *Config) Validate() error {
	if !c.Model.OrDefault().Valid() {
		return fmt.Errorf("checker: unknown memory model %q (valid: %s)", c.Model, strings.Join(model.Names(), ", "))
	}
	if c.FastMode {
		switch {
		case c.Checkpoint != nil || c.CheckpointEvery > 0:
			return fmt.Errorf("checker: FastMode cannot checkpoint — runs are independent samples with no decision frontier; rerun the missing budget instead")
		case c.ResumeFrom != nil:
			return fmt.Errorf("checker: FastMode cannot resume a checkpoint — checkpoints hold a DFS frontier, which FastMode does not explore")
		case c.Progress != nil:
			return fmt.Errorf("checker: FastMode cannot report Progress — snapshots are a view of the DFS frontier, which FastMode does not explore")
		case c.Reduce.Any():
			return fmt.Errorf("checker: FastMode samples plausible executions with no decision tree, so the %s reduction has nothing to prune — drop Reduce or FastMode", c.Reduce)
		}
	}
	// A negative interval previously fell through every `> 0` guard and
	// behaved as 0 (final snapshot only) — reject it instead of silently
	// reinterpreting it. An interval with no Checkpoint sink would tick
	// nothing; the caller who wanted periodic checkpoints would get none.
	if c.CheckpointEvery < 0 {
		return fmt.Errorf("checker: CheckpointEvery must be >= 0, got %v", c.CheckpointEvery)
	}
	if c.CheckpointEvery > 0 && c.Checkpoint == nil {
		return fmt.Errorf("checker: CheckpointEvery %v has no Checkpoint sink to deliver snapshots to — set Config.Checkpoint (0 with a sink means final snapshot only)", c.CheckpointEvery)
	}
	if cp := c.ResumeFrom; cp != nil {
		// The model and the reduction set shape the explored space: a
		// reduced frontier has already cut subtrees an unreduced run would
		// visit, and a model's frontier holds branches another model does
		// not have.
		if got, want := cp.Model.OrDefault(), c.Model.OrDefault(); got != want {
			return fmt.Errorf("checker: checkpoint was explored under memory model %q but the resume requested %q: a frontier is only valid under the model that produced it (re-explore from scratch to switch models)", got, want)
		}
		if cp.Reduce != c.Reduce {
			return fmt.Errorf("checker: checkpoint was explored with reduction %q but the resume requested %q: a frontier is only valid under the reduction set that produced it (re-explore from scratch to change reductions)", cp.Reduce, c.Reduce)
		}
	}
	return nil
}

const (
	// maxThreads bounds simultaneous simulated threads; spawning past it
	// is an API misuse failure.
	maxThreads = 16
	// traceLimit bounds the rendered trace length in failure reports, in
	// actions.
	traceLimit = 64
)

func (c *Config) withDefaults() *Config {
	out := *c
	if out.MaxSteps == 0 {
		out.MaxSteps = 4000
	}
	if out.MaxFailures == 0 {
		out.MaxFailures = 16
	}
	if out.ProgressInterval == 0 {
		out.ProgressInterval = time.Second
	}
	if out.compactThreshold == 0 {
		out.compactThreshold = 64
	}
	if out.storeBound == 0 {
		out.storeBound = 64
	}
	if out.storeBound < 2 {
		out.storeBound = 2 // the newest store must survive eviction
	}
	out.backend = backendFor(out.Model)
	if out.Reduce.RF {
		out.rfSeen = newRFSeenSet()
	}
	return &out
}

// Result aggregates an exploration.
type Result struct {
	// Executions is the total number of executions explored, feasible
	// or not.
	Executions int `json:"executions"`
	// Feasible is the number of executions that ran to completion and
	// were handed to the specification checker.
	Feasible int `json:"feasible"`
	// Pruned is the number of abandoned executions (sleep-set redundancy,
	// livelock fairness, step bound); Stats splits it by reason.
	Pruned int `json:"pruned"`
	// Failures holds detected failures, capped at Config.MaxFailures.
	Failures []*Failure `json:"failures,omitempty"`
	// FailureCount counts all failures, including ones not retained.
	FailureCount int `json:"failure_count"`
	// Elapsed is the wall-clock exploration time. Under Parallelism it is
	// still wall clock — never a per-worker sum folded through the merge.
	Elapsed time.Duration `json:"elapsed_ns"`
	// Exhausted reports whether the decision space was fully explored
	// (false when MaxExecutions or StopAtFirst cut it short).
	Exhausted bool `json:"exhausted"`
	// Stats breaks down where the executions and time went. On exhaustive
	// runs every field except the timings and scheduler telemetry is
	// bit-identical at every worker count.
	Stats Stats `json:"stats"`
}

// HasKind reports whether any recorded failure has the given kind.
func (r *Result) HasKind(k FailureKind) bool {
	for _, f := range r.Failures {
		if f.Kind == k {
			return true
		}
	}
	return false
}

// HasBuiltIn reports whether any recorded failure is a built-in check.
func (r *Result) HasBuiltIn() bool {
	for _, f := range r.Failures {
		if f.Kind.BuiltIn() {
			return true
		}
	}
	return false
}

// FirstFailure returns the first retained failure, or nil.
func (r *Result) FirstFailure() *Failure {
	if len(r.Failures) == 0 {
		return nil
	}
	return r.Failures[0]
}

// String summarizes the result in one line.
func (r *Result) String() string {
	return fmt.Sprintf("executions=%d feasible=%d pruned=%d failures=%d elapsed=%v",
		r.Executions, r.Feasible, r.Pruned, r.FailureCount, r.Elapsed)
}

// decision is one explored choice point: either a value choice
// ('r'/'c', using n and chosen) or a scheduling choice ('s', using
// cands/chosen/explored).
type decision struct {
	kind   byte
	n      int
	chosen int

	// Scheduling decisions ('s'):
	//
	// cands are the candidate thread ids at this node — the enabled
	// threads minus the ones asleep under the sleep-set reduction.
	cands []int
	// explored lists candidates whose subtrees are fully explored; when
	// the node is replayed on the way to a sibling, they are put to
	// sleep (their next operation need not be re-interleaved until a
	// dependent operation wakes them — Godefroid's sleep sets).
	explored []int

	// callIdx is the dfsChooser vlog position the node corresponds to:
	// value-site records strictly below it stay valid when the node's
	// chosen branch changes (for a value node it counts the node's own
	// record, appended just before the node was created — the record is
	// a function of the execution state, never of the choice). Moving the
	// chooser to a sibling branch truncates the vlog validity to it.
	callIdx int
}

// dfsChooser replays a decision prefix and extends it depth-first.
type dfsChooser struct {
	decisions []decision
	depth     int
	// cfg is the exploration's Config; its test-only sleep-set and
	// replay-pinning settings shape pickThread and enter.
	cfg *Config
	// stats receives decision counters; the engine points it at the leaf
	// Result of the task being run. Fresh decision nodes count as branch
	// points, replayed ones as ReplayedDecisions — tallies that do not
	// depend on which worker runs a task, because replaying a frozen
	// prefix re-drives exactly the stack the canonical depth-first order
	// holds inside that subtree.
	stats *Stats

	// vlog records the visibility computation of every value-
	// nondeterminism site of the current execution in call order, for the
	// frozen-prefix replay fast path: positions below vvalid were
	// recorded by a previous execution of the identical prefix and are
	// served back (vpos is the cursor), positions at and past it are
	// computed fresh and appended. Moving to a new task rewinds vvalid to
	// the first changed node's callIdx — the calls before that node are
	// the ones its new branch replays unchanged.
	vlog   []floorRec
	vpos   int
	vvalid int
	// candsBuf backs pickThread's candidate filtering, copied only when
	// a fresh decision node retains the candidate list.
	candsBuf []int
	// nodes holds the frontier node of every entry of decisions (same
	// length after each task), so that a task whose parent is on the
	// current path can be entered in place (see enter).
	nodes []*fnode
}

// pinnedFloor serves the next recorded value-site computation while the
// cursor is inside the validated prefix.
func (d *dfsChooser) pinnedFloor() (*floorRec, bool) {
	if d.vpos >= d.vvalid {
		return nil, false
	}
	r := &d.vlog[d.vpos]
	d.vpos++
	return r, true
}

// noteFloor appends a freshly computed record at the cursor, truncating
// any stale tail from a longer previous execution.
func (d *dfsChooser) noteFloor(rec floorRec) *floorRec {
	d.vlog = append(d.vlog[:d.vpos], rec)
	d.vpos = len(d.vlog)
	d.vvalid = d.vpos
	return &d.vlog[d.vpos-1]
}

// noteDecision updates the branch/replay counters for one decision with
// n > 1 alternatives. fresh marks a newly opened node; sched selects the
// schedule counter over the reads-from one.
func (d *dfsChooser) noteDecision(fresh, sched bool) {
	if d.stats == nil {
		return
	}
	switch {
	case !fresh:
		d.stats.ReplayedDecisions++
	case sched:
		d.stats.ScheduleBranchPoints++
	default:
		d.stats.RFBranchPoints++
	}
	if d.depth > d.stats.MaxDecisionDepth {
		d.stats.MaxDecisionDepth = d.depth
	}
}

func (d *dfsChooser) choose(n int, kind byte) int {
	if n <= 1 {
		return 0
	}
	if d.depth < len(d.decisions) {
		// Refresh callIdx while replaying: it is a pure function of the
		// path (the vlog position when the node is reached), so recomputing
		// it here keeps decisions rebuilt from frontier nodes — which carry
		// no vlog context — valid anchors for the next enter.
		d.decisions[d.depth].callIdx = d.vpos
		c := d.decisions[d.depth].chosen
		d.depth++
		d.noteDecision(false, false)
		return c
	}
	d.decisions = append(d.decisions, decision{n: n, chosen: 0, kind: kind, callIdx: d.vpos})
	d.depth++
	// 'l' (last-resort spinner wake) is a scheduling choice; 'r'/'c' are
	// value choices.
	d.noteDecision(true, kind == 'l')
	return 0
}

// freshDecision reports whether the next decision would open a fresh
// node, past any replayed prefix. Reduction checks and counters fire only
// at fresh nodes, so sequential and parallel runs count alike and a
// replay never re-checks the branch point it registered on first visit.
func (d *dfsChooser) freshDecision() bool { return d.depth >= len(d.decisions) }

func (d *dfsChooser) pickThread(s *System, enabled []*Thread) *Thread {
	cands := d.candsBuf[:0]
	for _, t := range enabled {
		if !d.cfg.disableSleepSet && t.state != tsYield && s.sleep.asleep(t.id) {
			continue
		}
		cands = append(cands, t.id)
	}
	if s.cfg.Reduce.Any() {
		// Deterministic function of the execution state, so replays and
		// frozen-prefix re-drives recompute the identical candidate list.
		cands = s.reduceCandidates(cands, d.freshDecision())
	}
	d.candsBuf = cands
	if len(cands) == 0 {
		// Every enabled thread is asleep: this interleaving is
		// equivalent to one already explored.
		return nil
	}
	if len(cands) == 1 {
		// No branching: not recorded (replay recomputes it identically).
		// The rf-equivalence check still applies on first-visit paths:
		// convergent interleavings often reach an equal state at a forced
		// step rather than at a branch point, and pruning there is sound
		// for the same reason — the registered instance explores every
		// continuation of the state, branching or not. Replays skip the
		// check (freshDecision), so a frozen prefix never self-prunes.
		if s.cfg.Reduce.RF && d.freshDecision() && s.rfStateSeen('s', nil, nil) {
			s.pruneReason = pruneRFEquiv
			return nil
		}
		return s.threads[cands[0]]
	}
	if d.depth < len(d.decisions) {
		nd := &d.decisions[d.depth]
		nd.callIdx = d.vpos // see choose: path-intrinsic, refreshed on replay
		d.depth++
		d.noteDecision(false, true)
		if !d.cfg.disableSleepSet {
			for _, tid := range nd.explored {
				t := s.threads[tid]
				if t.state != tsYield {
					s.sleep.sleep(tid, t.pendSig)
				}
			}
		}
		return s.threads[nd.cands[nd.chosen]]
	}
	if s.cfg.Reduce.RF && s.rfStateSeen('s', nil, nil) {
		// Fresh scheduling branch point in an already-witnessed state
		// (under a no-larger sleep set): every continuation re-derives a
		// registered rf class. The caller (nextThread) reads pruneReason.
		s.pruneReason = pruneRFEquiv
		return nil
	}
	d.decisions = append(d.decisions, decision{kind: 's', cands: append([]int(nil), cands...), callIdx: d.vpos})
	d.depth++
	d.noteDecision(true, true)
	return s.threads[cands[0]]
}

// enter positions the chooser on task t's frozen path and returns the
// path length. When t's parent is the node the current path holds one
// level up — every pop at one worker outside a resume, where the deque
// holds only siblings of the current path — the prefix is already in
// place and only the one changed decision is rewritten. Otherwise (a
// steal, a resumed task) the path is rebuilt from t's ancestry and kept
// up to its first difference from the current one.
//
// For 's' nodes the explored set is cands[:branch]: the canonical DFS
// order explores candidates in cands order, so by the time it reaches
// branch b exactly the candidates before b are explored — replaying them
// asleep preserves the sleep-set reduction bit-for-bit.
func (d *dfsChooser) enter(t *wsTask) int {
	n := t.node
	k := 0 // the first decision that changes
	switch {
	case n == nil:
		d.nodes = d.nodes[:0]
	case n.depth < len(d.decisions) && (n.depth == 0 || d.nodes[n.depth-1] == n.parent):
		k = n.depth
		d.nodes = append(d.nodes[:k], n)
	default:
		d.nodes = t.ancestry(d.nodes)
		for k < len(d.decisions) && k < len(d.nodes) &&
			d.decisions[k].kind == d.nodes[k].kind && d.decisions[k].chosen == d.nodes[k].branch {
			k++
		}
	}
	// Value-site records strictly below the first changed node's call
	// position stay valid for replay pinning. d.decisions[k] was replayed
	// or created by the previous execution, so its callIdx is current
	// (see choose); with no such node, or with replay pinning off, the
	// vlog invalidates entirely.
	d.vvalid = 0
	if k < len(d.decisions) && !d.cfg.disableReplayPinning {
		d.vvalid = min(d.decisions[k].callIdx, len(d.vlog))
	}
	d.vpos = 0
	d.decisions = d.decisions[:k]
	for _, m := range d.nodes[k:] {
		nd := decision{kind: m.kind, n: m.n, chosen: m.branch}
		if m.kind == 's' {
			nd.cands = m.cands
			nd.explored = m.cands[:m.branch]
		}
		d.decisions = append(d.decisions, nd)
	}
	d.depth = 0
	return len(d.nodes)
}

// rootBranch is the branch the current path takes at the root decision
// node — the shard its executions belong to (see Config.NewScratch). The
// empty path is shard 0.
func (d *dfsChooser) rootBranch() int {
	if len(d.nodes) == 0 {
		return 0
	}
	return d.nodes[0].branch
}

// record folds a failure into the result, retaining at most maxFailures.
func (r *Result) record(f *Failure, maxFailures int) {
	r.FailureCount++
	if len(r.Failures) < maxFailures {
		r.Failures = append(r.Failures, f)
	}
}

// runOne performs one execution under ch and folds it into res, stamping
// its failures with res.Executions as the 1-based execution index (the
// fold offsets it to the exploration-wide index). scratch is the shard
// state exposed as System.Scratch (nil when Config.NewScratch is unset);
// pool is the worker's execution pool. It reports whether the execution
// failed.
func runOne(c *Config, res *Result, ch chooser, root func(*Thread), scratch any, pool *execPool) bool {
	res.Executions++
	exploreStart := time.Now()
	sys := runExecution(c, ch, root, scratch, pool)
	res.Stats.ExploreTime += time.Since(exploreStart)
	res.Stats.TotalSteps += sys.stepCount
	res.Stats.StoreBufferEvictions += sys.evictions
	res.Stats.SpinloopBounds += sys.redSpinBounds
	res.Stats.SymmetryPrunes += sys.redSymPrunes

	failed := false
	switch {
	case sys.pruned:
		res.Pruned++
		switch sys.pruneReason {
		case pruneFairness:
			res.Stats.PrunedFairness++
		case pruneStepBound:
			res.Stats.PrunedStepBound++
		case pruneRFEquiv:
			res.Stats.RFEquivPrunes++
		default:
			res.Stats.PrunedSleepSet++
		}
	case sys.failure != nil:
		sys.failure.Execution = res.Executions
		res.record(sys.failure, c.MaxFailures)
		failed = true
	default:
		res.Feasible++
		sys.noteCompleteExecution()
		if c.OnExecution != nil {
			specStart := time.Now()
			fails := c.OnExecution(sys)
			res.Stats.SpecTime += time.Since(specStart)
			res.Stats.Histories += sys.specReport.Histories
			if sys.specReport.HistoriesCapped {
				res.Stats.HistoriesCapped++
			}
			res.Stats.AdmissibilityChecks += sys.specReport.AdmissibilityChecks
			res.Stats.JustifySearches += sys.specReport.JustifySearches
			res.Stats.SpecCacheHits += sys.specReport.CacheHits
			res.Stats.SpecCacheMisses += sys.specReport.CacheMisses
			res.Stats.SpecCacheEntries += sys.specReport.CacheEntries
			for _, f := range fails {
				if f.Execution == 0 {
					f.Execution = res.Executions
				}
				res.record(f, c.MaxFailures)
			}
			failed = len(fails) > 0
		}
	}
	return failed
}

// newScratch builds one shard's Scratch value (nil without NewScratch).
func (c *Config) newScratch() any {
	if c.NewScratch == nil {
		return nil
	}
	return c.NewScratch()
}

// newDFSChooser builds a chooser for exhaustive exploration under c.
func newDFSChooser(c *Config) *dfsChooser {
	return &dfsChooser{cfg: c}
}

// Explore enumerates executions of root under cfg and returns the
// aggregated result.
func Explore(cfg Config, root func(*Thread)) *Result {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	c := cfg.withDefaults()
	// Engine routing, as documented on Config.FastMode: FastMode, else
	// the work-stealing DFS engine.
	if c.FastMode {
		return exploreFast(c, root)
	}
	return exploreWorkSteal(c, root)
}

// runExecution performs a single execution under the given chooser on
// per-execution state taken from pool.
func runExecution(cfg *Config, ch chooser, root func(*Thread), scratch any, pool *execPool) *System {
	sys := pool.take(cfg, ch, scratch)
	if cfg.OnRunStart != nil {
		cfg.OnRunStart(sys)
	}
	sys.newThread("main", root, nil)

	// Hand the baton to the first thread; from then on every scheduling
	// decision runs inline in whichever thread goroutine holds the baton
	// (Thread.park), and the holder whose decision ends the execution
	// signals schedDone.
	if next := sys.nextThread(); next != nil {
		next.resume <- struct{}{}
		<-sys.schedDone
	}
	sys.reap()
	return sys
}

// nextThread makes one scheduling decision: the thread to run next, or
// nil when the execution is over (completed, pruned, stuck, or aborted).
// It runs in whichever goroutine currently holds the baton.
func (s *System) nextThread() *Thread {
	if s.aborted {
		return nil
	}
	enabled := s.enabledThreads()
	if len(enabled) == 0 {
		if s.allFinished() {
			return nil // normal completion
		}
		if t := s.wakeLastResort(); t != nil {
			return t
		}
		s.reportStuck()
		return nil
	}
	t := s.chooser.pickThread(s, enabled)
	if t == nil {
		s.pruned = true
		if s.pruneReason == pruneNone {
			// pickThread may have set pruneRFEquiv; the default nil
			// meaning is sleep-set redundancy.
			s.pruneReason = pruneSleepSet
		}
		s.aborted = true
		return nil
	}
	return t
}

// enabledThreads returns the threads that may take a step right now, in
// deterministic (thread-id) order. The returned slice aliases a buffer
// reused across scheduling steps; callers must not retain it.
func (s *System) enabledThreads() []*Thread {
	out := s.enabledBuf[:0]
	for _, t := range s.threads {
		switch t.state {
		case tsParked:
			out = append(out, t)
		case tsYield:
			if s.storeEpoch > t.yieldEpoch {
				out = append(out, t)
			}
		case tsLock:
			if t.waitMutex.owner == -1 {
				out = append(out, t)
			}
		case tsJoin:
			if t.waitThread.state == tsFinished {
				out = append(out, t)
			}
		}
	}
	s.enabledBuf = out
	return out
}

func (s *System) allFinished() bool {
	for _, t := range s.threads {
		if t.state != tsFinished {
			return false
		}
	}
	return true
}

// wakeLastResort re-enables yielded spinners when nothing else can run:
// a spinner that then makes no state change is not retried at the same
// epoch, which both guarantees termination and detects livelocks.
// nextThread calls it only when no thread is enabled, so the candidates
// reuse enabledBuf.
func (s *System) wakeLastResort() *Thread {
	cands := s.enabledBuf[:0]
	for _, t := range s.threads {
		if t.state == tsYield && t.lastResortEpoch != s.storeEpoch {
			cands = append(cands, t)
		}
	}
	s.enabledBuf = cands
	if len(cands) == 0 {
		return nil
	}
	idx := s.chooser.choose(len(cands), 'l')
	t := cands[idx]
	t.lastResortEpoch = s.storeEpoch
	return t
}

// reportStuck handles the no-enabled-threads case from scheduler context
// (no thread to unwind, so no panic). If some yielded spinner read a store
// that has since been superseded, the execution is an unfair one — the
// spinner could have read the newer value, and the sibling branch where it
// does exists — so the run is pruned rather than reported (CDSChecker's
// fairness assumption). Otherwise the stuck state is a genuine deadlock or
// livelock.
func (s *System) reportStuck() {
	blocked := false
	spinning := false
	for _, t := range s.threads {
		switch t.state {
		case tsLock, tsJoin:
			blocked = true
		case tsYield:
			spinning = true
			for _, rr := range t.recentReads {
				if rr.loc.lastStoreIdx() > rr.rfMO {
					// Unfair: prune without reporting.
					s.pruned = true
					s.pruneReason = pruneFairness
					s.aborted = true
					return
				}
			}
		}
	}
	// Classify by wait chains: a blocked thread whose wait bottoms out in
	// a yielded spinner (a join on the spinner, a lock held by it, or a
	// chain thereof) is a casualty of the livelock; a block that cannot
	// be traced to a spinner — a lock cycle, a mutex held by a finished
	// thread — is a genuine deadlock even when an unrelated fair spinner
	// is also stuck.
	spinStuck := map[int]bool{}
	for _, t := range s.threads {
		if t.state == tsYield {
			spinStuck[t.id] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for _, t := range s.threads {
			if spinStuck[t.id] {
				continue
			}
			switch t.state {
			case tsJoin:
				if spinStuck[t.waitThread.id] {
					spinStuck[t.id] = true
					changed = true
				}
			case tsLock:
				if o := t.waitMutex.owner; o >= 0 && spinStuck[o] {
					spinStuck[t.id] = true
					changed = true
				}
			}
		}
	}
	kind := FailLivelock
	msg := "livelock: a spin loop can never be satisfied"
	for _, t := range s.threads {
		if (t.state == tsLock || t.state == tsJoin) && !spinStuck[t.id] {
			kind = FailDeadlock
			msg = "deadlock: threads blocked on locks/joins that cannot be satisfied"
			break
		}
	}
	if !spinning && !blocked {
		// Unreachable in practice (reportStuck runs only when threads are
		// stuck), but keep the deadlock default for safety.
		kind = FailDeadlock
		msg = "deadlock: no thread can make progress"
	}
	if s.failure == nil {
		s.failure = &Failure{
			Kind:     kind,
			Msg:      msg,
			ActionID: s.lastActionID(),
			Trace:    s.TraceString(traceLimit),
		}
	}
	s.aborted = true
}

// reap ends the execution's unfinished threads: each is poisoned (it
// sees aborted and unwinds) and acks on schedDone, so by the time reap
// returns every thread goroutine of this execution is idle on its resume
// channel — the precondition for recycling the Thread structs, and for
// execPool.close. A thread that finished needs no join: after its last
// baton send it touches nothing but resume.
func (s *System) reap() {
	s.draining = true
	s.aborted = true
	for _, t := range s.threads {
		if t.state != tsFinished {
			t.resume <- struct{}{}
			<-s.schedDone
		}
	}
	s.draining = false
}
