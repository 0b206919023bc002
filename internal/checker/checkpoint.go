package checker

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/checker/model"
)

// CheckpointSchema identifies the checkpoint payload layout. The harness
// wraps this payload in its own envelope, which names the benchmark.
const CheckpointSchema = "cdsspec-checkpoint/v1"

// Checkpoint is a consistent snapshot of a work-stealing exploration: the
// fold list's alternation of completed-region results and outstanding
// frontier tasks, plus the engine-level accumulators that live outside
// any region. A checkpoint needs no quiescence — a task whose execution
// is in flight at snapshot time is still serialized as pending, and a
// resumed run simply re-runs it — so snapshots are cheap and the final
// Result after any resume chain is bit-identical to an uninterrupted run.
type Checkpoint struct {
	Schema string `json:"schema"`
	// Model and Reduce are the identity of the explored space: the
	// consistency model and reduction set the frontier was explored
	// under, stamped by the engine. Config.Validate refuses a ResumeFrom
	// whose identity differs from the Config's. Checkpoints written
	// before the stamp omit both, which means c11 and no reduction.
	Model  model.ID  `json:"model,omitempty"`
	Reduce ReduceSet `json:"reduce"`
	// Executions is the sum over done cells — informational, and the
	// starting budget consumption for MaxExecutions accounting on resume.
	Executions int `json:"executions"`
	// Elapsed accumulates wall clock across the run segments so far.
	Elapsed time.Duration `json:"elapsed_ns"`
	// Steals, MaxFrontier and WorkerBusy carry the engine-level scheduler
	// telemetry across resume boundaries (they are not part of any cell's
	// Stats).
	Steals      int           `json:"steals"`
	MaxFrontier int           `json:"max_frontier"`
	WorkerBusy  time.Duration `json:"worker_busy_ns"`
	// Cells is the fold list in canonical decision-path order.
	Cells []CheckpointCell `json:"cells"`
}

// CheckpointCell is one fold-list slot: a completed region's Result, or a
// pending frontier task's frozen decision path (Pending set; the root
// task's path is empty).
type CheckpointCell struct {
	Result  *Result              `json:"result,omitempty"`
	Pending bool                 `json:"pending,omitempty"`
	Task    []CheckpointDecision `json:"task,omitempty"`
}

// CheckpointDecision is one decision along a pending task's path. For
// "sched" nodes Cands lists the candidate thread ids and Branch indexes
// into it (the explored sleep-set prefix is implied: Cands[:Branch]);
// for value nodes ("read"/"cas"/"wake") N is the alternative count and
// Branch the chosen index.
type CheckpointDecision struct {
	Kind   string `json:"kind"`
	N      int    `json:"n,omitempty"`
	Cands  []int  `json:"cands,omitempty"`
	Branch int    `json:"branch"`
}

// Complete reports whether the checkpoint has no outstanding work —
// resuming it folds and returns the stored result without exploring.
func (cp *Checkpoint) Complete() bool {
	for _, c := range cp.Cells {
		if c.Pending {
			return false
		}
	}
	return true
}

// Pending counts the outstanding frontier entries.
func (cp *Checkpoint) Pending() int {
	n := 0
	for _, c := range cp.Cells {
		if c.Pending {
			n++
		}
	}
	return n
}

// Validate checks the structural invariants a resume relies on. Explore
// panics on an invalid ResumeFrom; callers deserializing untrusted files
// should Validate first.
func (cp *Checkpoint) Validate() error {
	if cp.Schema != CheckpointSchema {
		return fmt.Errorf("checkpoint schema %q, want %q", cp.Schema, CheckpointSchema)
	}
	if !cp.Model.OrDefault().Valid() {
		return fmt.Errorf("checkpoint names unknown memory model %q (valid: %s)", cp.Model, strings.Join(model.Names(), ", "))
	}
	if len(cp.Cells) == 0 {
		return fmt.Errorf("checkpoint has no cells")
	}
	for i, c := range cp.Cells {
		if c.Pending == (c.Result != nil) {
			return fmt.Errorf("cell %d: exactly one of result/pending required", i)
		}
		if !c.Pending && len(c.Task) > 0 {
			return fmt.Errorf("cell %d: done cell carries a task path", i)
		}
		for j, d := range c.Task {
			if _, err := kindByte(d.Kind); err != nil {
				return fmt.Errorf("cell %d decision %d: %v", i, j, err)
			}
			if d.Kind == "sched" {
				if d.Branch < 0 || d.Branch >= len(d.Cands) {
					return fmt.Errorf("cell %d decision %d: branch %d out of %d candidates", i, j, d.Branch, len(d.Cands))
				}
			} else if d.Branch < 0 || d.Branch >= d.N {
				return fmt.Errorf("cell %d decision %d: branch %d out of %d alternatives", i, j, d.Branch, d.N)
			}
		}
	}
	return nil
}

func kindName(k byte) string {
	switch k {
	case 's':
		return "sched"
	case 'r':
		return "read"
	case 'c':
		return "cas"
	case 'l':
		return "wake"
	}
	return fmt.Sprintf("?%c", k)
}

func kindByte(name string) (byte, error) {
	switch name {
	case "sched":
		return 's', nil
	case "read":
		return 'r', nil
	case "cas":
		return 'c', nil
	case "wake":
		return 'l', nil
	}
	return 0, fmt.Errorf("unknown decision kind %q", name)
}

// checkpoint serializes the engine state. Cell results are deep-copied
// under the fold lock: later coalescing mutates them (failure-index
// offsets), and the caller may marshal the snapshot at leisure.
func (e *wsEngine) checkpoint() *Checkpoint {
	var g Stats
	e.addGauges(&g)
	cp := &Checkpoint{
		Schema:      CheckpointSchema,
		Model:       e.c.Model.OrDefault(),
		Reduce:      e.c.Reduce,
		Steals:      g.Steals,
		WorkerBusy:  g.WorkerBusy,
		Elapsed:     e.elapsed(),
		MaxFrontier: g.MaxFrontier,
	}
	l := e.fold
	l.mu.Lock()
	defer l.mu.Unlock()
	for c := l.head; c != nil; c = c.next {
		switch {
		case c.res != nil:
			cp.Cells = append(cp.Cells, CheckpointCell{Result: cloneResult(c.res)})
			cp.Executions += c.res.Executions
		case c.task != nil:
			cp.Cells = append(cp.Cells, CheckpointCell{Pending: true, Task: taskPath(c.task)})
		}
	}
	return cp
}

// taskPath serializes a pending task's frozen path.
func taskPath(t *wsTask) []CheckpointDecision {
	nodes := t.ancestry(nil)
	out := make([]CheckpointDecision, len(nodes))
	for i, n := range nodes {
		cd := CheckpointDecision{Kind: kindName(n.kind), Branch: n.branch}
		if n.kind == 's' {
			cd.Cands = append([]int(nil), n.cands...)
		} else {
			cd.N = n.n
		}
		out[i] = cd
	}
	return out
}

// cloneResult deep-copies a Result far enough for concurrent mutation of
// the original (coalescing offsets failure indices in place).
func cloneResult(r *Result) *Result {
	out := *r
	out.Failures = make([]*Failure, len(r.Failures))
	for i, f := range r.Failures {
		cf := *f
		out.Failures[i] = &cf
	}
	return &out
}

// restore rebuilds the fold list and worker deques from a checkpoint,
// returning the executions already spent (the resumed budget floor).
// Pending tasks are dealt round-robin across the deques in list order.
func (e *wsEngine) restore(cp *Checkpoint) int {
	if err := cp.Validate(); err != nil {
		panic(fmt.Sprintf("checker: invalid ResumeFrom checkpoint: %v", err))
	}
	e.priorMaxFrontier = cp.MaxFrontier
	e.baseElapsed = cp.Elapsed
	e.steals.Store(int64(cp.Steals))
	e.busy.Store(int64(cp.WorkerBusy))
	already := 0
	next := 0
	npending := 0
	for _, c := range cp.Cells {
		if !c.Pending {
			e.fold.appendCell(&foldCell{res: cloneResult(c.Result)})
			already += c.Result.Executions
			continue
		}
		t := &wsTask{node: pathNodes(c.Task)}
		e.fold.appendCell(&foldCell{task: t})
		e.deques[next%len(e.deques)].push(t)
		next++
		npending++
	}
	e.unfinished.Store(int64(npending))
	return already
}

// pathNodes rebuilds a task's fnode chain from its serialized path.
func pathNodes(path []CheckpointDecision) *fnode {
	var parent *fnode
	for i, d := range path {
		k, err := kindByte(d.Kind)
		if err != nil {
			panic(fmt.Sprintf("checker: %v", err))
		}
		var cands []int
		if k == 's' {
			cands = append([]int(nil), d.Cands...)
		}
		parent = &fnode{parent: parent, depth: i, kind: k, n: d.N, cands: cands, branch: d.Branch}
	}
	return parent
}
