package checker

import (
	"sync"
	"sync/atomic"
	"time"
)

// This file implements the work-stealing DFS engine, which runs every
// exhaustive exploration at any Parallelism (one worker included) and is
// the substrate for checkpoint/resume. Each worker owns a Chase-Lev deque
// (wsdeque.go) of frontier tasks (frontier.go): it pops its own bottom —
// descending into the subtree it just opened, the depth-first order — and
// steals from the top of a victim's deque when dry, taking the shallowest
// (and so statistically largest) outstanding subtree. Results are
// bit-identical at every worker count because every task's result is
// folded at its canonical decision-path position (foldList), never in
// completion order.

// wsEngine is one work-stealing exploration.
type wsEngine struct {
	c    *Config
	root func(*Thread)
	b    *bounds
	fold *foldList

	deques []*wsDeque

	// unfinished counts created-but-not-finished tasks; the last decrement
	// to zero ends the run. Incremented before a task is published,
	// decremented when it completes or is abandoned (budget/stop).
	unfinished atomic.Int64
	// steals and busy are scheduler telemetry (Stats.Steals /
	// Stats.WorkerBusy); both are seeded from a resumed checkpoint.
	steals atomic.Int64
	busy   atomic.Int64

	// stop requests a graceful halt: workers finish their current
	// execution and exit, leaving unrun tasks pending in the fold list
	// (where a final checkpoint picks them up).
	stop atomic.Bool

	// Per-root-branch shard state (Config.NewScratch), created lazily
	// under scratchMu so the hook runs exactly once per branch at any
	// worker count.
	scratchMu sync.Mutex
	scratches map[int]any

	// lot parks idle workers: version increments on every publish (and on
	// stop/done) so a sweep that raced a push never sleeps through it.
	lot struct {
		mu      sync.Mutex
		cond    *sync.Cond
		version uint64
		done    bool
	}

	// priorMaxFrontier is the frontier high-water mark of the resumed
	// run segments.
	priorMaxFrontier int
	// startTime anchors this segment's wall clock; baseElapsed is the
	// resumed segments' wall clock (see elapsed).
	startTime   time.Time
	baseElapsed time.Duration
}

// wsWorker is one worker's private state.
type wsWorker struct {
	d    *dfsChooser
	pool *execPool
	dq   *wsDeque
	// spare is a leaf Result that the fold list merged away, reset for the
	// next task (nil when the last leaf stayed in the list).
	spare *Result
	// subs backs spawnSubtasks' result, which is consumed before the next
	// task.
	subs []*wsTask
}

// newWSEngine builds the engine for c, which has defaults applied, with
// the root task or the resumed frontier queued. FastMode routes through
// its own engine before this one (see the routing note on
// Config.FastMode).
func newWSEngine(c *Config, root func(*Thread)) *wsEngine {
	workers := c.Parallelism
	if workers < 1 {
		workers = 1
	}
	e := &wsEngine{
		c:         c,
		root:      root,
		fold:      newFoldList(c.MaxFailures),
		deques:    make([]*wsDeque, workers),
		scratches: map[int]any{},
		startTime: time.Now(),
	}
	e.lot.cond = sync.NewCond(&e.lot.mu)
	for w := range e.deques {
		e.deques[w] = newWSDeque()
	}

	already := 0
	if cp := c.ResumeFrom; cp != nil {
		already = e.restore(cp)
	} else {
		rootTask := &wsTask{}
		e.fold.appendCell(&foldCell{task: rootTask})
		e.deques[0].push(rootTask)
		e.unfinished.Store(1)
	}
	e.b = newBounds(c.MaxExecutions, already)
	if e.unfinished.Load() == 0 {
		// Resumed a completed run: nothing outstanding.
		e.lot.done = true
	}
	return e
}

// run explores until the frontier drains or the run stops, and returns
// the folded Result.
func (e *wsEngine) run() *Result {
	c := e.c
	quit := make(chan struct{})
	var supervisor sync.WaitGroup
	if c.Interrupt != nil || c.Progress != nil || c.CheckpointEvery > 0 {
		supervisor.Add(1)
		go func() {
			defer supervisor.Done()
			e.supervise(quit)
		}()
	}
	// Worker 0 runs on the calling goroutine.
	var wg sync.WaitGroup
	for w := 1; w < len(e.deques); w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			e.worker(w)
		}(w)
	}
	e.worker(0)
	wg.Wait()
	// The closing hooks below run on this goroutine once the supervisor
	// has exited, so no hook ever overlaps another.
	close(quit)
	supervisor.Wait()

	if c.Checkpoint != nil {
		// Final snapshot: with a drained frontier it is a single done
		// cell (resuming it just returns the result); otherwise it is the
		// outstanding frontier a resumed run continues from.
		c.Checkpoint(e.checkpoint())
	}

	res := e.fold.foldResult()
	e.addGauges(&res.Stats)
	// Exhausted is true only when the frontier drained without a stop and
	// without consuming the entire execution budget: a run whose budget
	// equals the size of its space is reported as cut short, because the
	// budget ran out before the engine could tell.
	res.Exhausted = e.fold.pendingCount() == 0 && !e.b.stopped() &&
		(c.MaxExecutions == 0 || res.Executions < c.MaxExecutions)
	// Elapsed is the run's wall clock plus, for resumed runs, the base
	// restored from the checkpoint. It is never a sum of per-worker
	// timings (which can exceed wall clock by a factor of Parallelism);
	// the Stats timing fields, by contrast, are cumulative across workers.
	res.Elapsed = e.elapsed()
	if c.Progress != nil {
		c.Progress(newProgress(res, e.fold.pendingCount(), res.Elapsed, c.MaxExecutions, true))
	}
	return res
}

// supervise is the exploration's one helper goroutine, started when any
// asynchronous hook is set. It turns Config.Interrupt into a graceful
// stop and delivers the periodic Checkpoint and Progress snapshots, one
// at a time, until quit closes.
func (e *wsEngine) supervise(quit <-chan struct{}) {
	c := e.c
	intr := c.Interrupt
	var checkpoints, snapshots <-chan time.Time
	if c.CheckpointEvery > 0 {
		t := time.NewTicker(c.CheckpointEvery)
		defer t.Stop()
		checkpoints = t.C
	}
	if c.Progress != nil {
		t := time.NewTicker(c.ProgressInterval)
		defer t.Stop()
		snapshots = t.C
	}
	for {
		select {
		case <-quit:
			return
		case <-intr:
			e.requestStop()
			intr = nil // a closed channel stays ready; stop once
		case <-checkpoints:
			c.Checkpoint(e.checkpoint())
		case <-snapshots:
			c.Progress(e.progress())
		}
	}
}

// elapsed is the exploration's wall clock so far, resumed segments
// included.
func (e *wsEngine) elapsed() time.Duration {
	return e.baseElapsed + time.Since(e.startTime)
}

// addGauges adds to s the engine-level telemetry that no fold-list cell
// holds: steals, worker busy time, the frontier high-water mark (resumed
// segments included) and the rf seen-set's class count. Checkpoints, the
// periodic snapshots and the final Result all read the gauges through it.
func (e *wsEngine) addGauges(s *Stats) {
	s.Steals += int(e.steals.Load())
	s.WorkerBusy += time.Duration(e.busy.Load())
	s.MaxFrontier = max(s.MaxFrontier, e.fold.frontierHighWater(), e.priorMaxFrontier)
	if e.c.rfSeen != nil {
		// The class count lives in the shared registry, not in the
		// per-execution results.
		s.RFClasses = int(e.c.rfSeen.classes.Load())
	}
}

// worker is one scheduler loop: drain the own deque bottom-first, then
// steal; park when the whole frontier is in flight elsewhere.
func (e *wsEngine) worker(w int) {
	wk := &wsWorker{d: newDFSChooser(e.c), pool: &execPool{}, dq: e.deques[w]}
	defer wk.pool.close()
	for {
		if e.stop.Load() {
			return
		}
		t := wk.dq.popBottom()
		if t == nil {
			t = e.acquire(w)
			if t == nil {
				return
			}
		}
		e.runTask(wk, t)
	}
}

// runTask explores one frontier entry: one execution plus the publication
// of the sibling branches it discovered.
func (e *wsEngine) runTask(wk *wsWorker, t *wsTask) {
	if e.stop.Load() || !e.b.tryStart() {
		// Budget exhausted or stop requested: leave the cell pending (the
		// checkpoint will carry it) and fold nothing.
		e.requestStop()
		e.taskDone()
		return
	}
	busyStart := time.Now()
	d := wk.d
	prefixLen := d.enter(t)
	leaf := wk.spare
	if leaf == nil {
		leaf = &Result{}
	}
	wk.spare = nil
	d.stats = &leaf.Stats
	scratch := e.scratchFor(d.rootBranch())
	failed := runOne(e.c, leaf, d, e.root, scratch, wk.pool)
	subs := spawnSubtasks(t, d, prefixLen, wk.subs)
	wk.subs = subs
	if !e.fold.complete(t, leaf, subs) {
		*leaf = Result{}
		wk.spare = leaf
	}
	e.unfinished.Add(int64(len(subs)))
	// Push in reverse fold order so the owner's next popBottom is the
	// deepest fresh node's next branch — the next leaf in depth-first
	// order — while thieves steal the shallowest from the top.
	for i := len(subs) - 1; i >= 0; i-- {
		wk.dq.push(subs[i])
	}
	if len(subs) > 0 {
		e.notifyWork()
	}
	e.busy.Add(int64(time.Since(busyStart)))
	if failed && e.c.StopAtFirst {
		e.b.cancel()
		e.requestStop()
	}
	e.taskDone()
}

// spawnSubtasks builds the frontier entries for the sibling branches of
// every decision node freshly opened by the execution (d's decisions
// beyond prefixLen), in fold order: deepest node first, branches
// ascending — the order a depth-first walk visits them after this leaf.
// The result reuses buf. The fresh chain's nodes extend d's path, so an
// owner pop of one of the returned siblings enters it in place.
func spawnSubtasks(t *wsTask, d *dfsChooser, prefixLen int, buf []*wsTask) []*wsTask {
	subs := buf[:0]
	fresh := d.decisions[prefixLen:]
	if len(fresh) == 0 {
		return subs
	}
	// One allocation each for the execution's nodes and tasks. Every fresh
	// node was taken at branch 0, and siblings share the parent pointer
	// and the cands slice, which pickThread allocated for the decision and
	// nothing mutates.
	nsib := 0
	for i := range fresh {
		if fresh[i].kind == 's' {
			nsib += len(fresh[i].cands) - 1
		} else {
			nsib += fresh[i].n - 1
		}
	}
	nodes := make([]fnode, len(fresh)+nsib)
	tasks := make([]wsTask, nsib)
	chain, sibs := nodes[:len(fresh)], nodes[len(fresh):]
	parent := t.node
	for i := range fresh {
		nd := &fresh[i]
		chain[i] = fnode{parent: parent, depth: prefixLen + i, kind: nd.kind, n: nd.n, cands: nd.cands, branch: nd.chosen}
		parent = &chain[i]
		d.nodes = append(d.nodes, parent)
	}
	for i := len(chain) - 1; i >= 0; i-- {
		fn := &chain[i]
		for b := fn.branch + 1; b < fn.branchCount(); b++ {
			sibs[0] = *fn
			sibs[0].branch = b
			tasks[0].node = &sibs[0]
			subs = append(subs, &tasks[0])
			sibs, tasks = sibs[1:], tasks[1:]
		}
	}
	return subs
}

// scratchFor returns the shard scratch for a root branch, invoking
// Config.NewScratch exactly once per branch. Multiple workers may explore
// one branch concurrently, so the scratch value must tolerate concurrent
// use (see Config.NewScratch).
func (e *wsEngine) scratchFor(branch int) any {
	if e.c.NewScratch == nil {
		return nil
	}
	e.scratchMu.Lock()
	defer e.scratchMu.Unlock()
	s, ok := e.scratches[branch]
	if !ok {
		s = e.c.NewScratch()
		e.scratches[branch] = s
	}
	return s
}

// acquire sweeps the other deques for a steal, parking between sweeps.
// Returns nil when the exploration is over (done or stopped).
func (e *wsEngine) acquire(w int) *wsTask {
	for {
		e.lot.mu.Lock()
		v := e.lot.version
		done := e.lot.done
		e.lot.mu.Unlock()
		if done || e.stop.Load() {
			return nil
		}
		if t := e.sweep(w); t != nil {
			return t
		}
		e.lot.mu.Lock()
		if e.lot.done || e.stop.Load() {
			e.lot.mu.Unlock()
			return nil
		}
		if e.lot.version == v {
			// No publish since the sweep started: safe to sleep.
			e.lot.cond.Wait()
		}
		e.lot.mu.Unlock()
	}
}

// sweep tries to steal once from every other worker's deque.
func (e *wsEngine) sweep(w int) *wsTask {
	n := len(e.deques)
	for i := 1; i < n; i++ {
		v := (w + i) % n
		if t := e.deques[v].steal(); t != nil {
			e.steals.Add(1)
			return t
		}
	}
	return nil
}

// notifyWork wakes parked workers after a publish.
func (e *wsEngine) notifyWork() {
	e.lot.mu.Lock()
	e.lot.version++
	e.lot.cond.Broadcast()
	e.lot.mu.Unlock()
}

// requestStop asks every worker to halt after its current execution.
func (e *wsEngine) requestStop() {
	e.stop.Store(true)
	e.lot.mu.Lock()
	e.lot.version++
	e.lot.cond.Broadcast()
	e.lot.mu.Unlock()
}

// taskDone retires one task; the last retirement ends the run.
func (e *wsEngine) taskDone() {
	if e.unfinished.Add(-1) == 0 {
		e.lot.mu.Lock()
		e.lot.done = true
		e.lot.cond.Broadcast()
		e.lot.mu.Unlock()
	}
}
