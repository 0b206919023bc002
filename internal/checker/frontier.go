package checker

import (
	"slices"
	"sync"
	"sync/atomic"
)

// This file implements the decision frontier of the work-stealing
// explorer: the set of unexplored decision-tree branches, each tagged
// with its canonical decision path, plus the ordered fold list that
// merges per-branch results back into the canonical depth-first order.
//
// A frontier entry (wsTask) is one unexplored branch of one decision
// node, identified by the frozen path from the root to that branch. A
// task is exactly one execution of the program: the worker replays the
// frozen path, takes branch 0 at every decision node discovered below it
// (the chooser's fresh-node default), and reaches one leaf. Every fresh
// multi-way node discovered along the way contributes its remaining
// branches as new frontier entries. Leaves therefore correspond one-to-
// one with (node, branch) pairs, the bijection a depth-first walk of the
// decision tree enumerates.

// fnode is one decision along a task's frozen path. Paths share their
// ancestry: sibling tasks point at the same parent chain, so the frontier
// costs O(frontier size) nodes, not O(frontier size × depth).
type fnode struct {
	parent *fnode
	// depth is the number of ancestors (the root decision node is 0).
	depth int
	// kind, n, cands mirror the decision fields: 's' nodes use cands
	// (shared with the siblings and with the decision that opened the
	// node; never mutated), value nodes ('r'/'c'/'l') use n.
	kind  byte
	n     int
	cands []int
	// branch is the chosen alternative at this node: an index into cands
	// for 's' nodes, the chosen value index otherwise.
	branch int
}

// branchCount is the node's number of alternatives.
func (n *fnode) branchCount() int {
	if n.kind == 's' {
		return len(n.cands)
	}
	return n.n
}

// wsTask is one frontier entry: the unexplored branch identified by the
// path ending at node (nil = the root task, the empty path).
type wsTask struct {
	node *fnode
	// cell is the task's slot in the fold list, assigned when the cell is
	// spliced in (before the task becomes stealable).
	cell *foldCell
}

// ancestry returns the nodes of t's frozen path, root first, reusing buf.
func (t *wsTask) ancestry(buf []*fnode) []*fnode {
	if t.node == nil {
		return buf[:0]
	}
	buf = slices.Grow(buf[:0], t.node.depth+1)[:t.node.depth+1]
	for n := t.node; n != nil; n = n.parent {
		buf[n.depth] = n
	}
	return buf
}

// foldCell is one slot of the fold list: either a completed region's
// merged Result (res != nil) or an outstanding task (task != nil).
type foldCell struct {
	prev, next *foldCell
	res        *Result
	task       *wsTask
}

// foldList is the ordered merge of the work-stealing explorer: a doubly
// linked alternation of done results and pending tasks, kept in canonical
// decision-path order. Completing a task replaces its cell with the
// leaf's result followed by its newly discovered subtasks (in the order
// a depth-first walk visits them) and coalesces adjacent done cells, so
// when the frontier drains the list collapses to a single cell holding
// the Result of the canonical depth-first order — regardless of which
// worker ran which task in which order. The list is also the checkpoint:
// its cell sequence is exactly the state a resumed run needs.
type foldList struct {
	mu          sync.Mutex
	head, tail  *foldCell
	maxFailures int
	// pending counts outstanding task cells — the live frontier size
	// (atomic so a progress snapshot can read it without the lock).
	pending     atomic.Int64
	maxFrontier int
}

func newFoldList(maxFailures int) *foldList {
	return &foldList{maxFailures: maxFailures}
}

// appendCell links c at the tail (used only while building the initial
// list, before workers start).
func (l *foldList) appendCell(c *foldCell) {
	if l.tail == nil {
		l.head, l.tail = c, c
	} else {
		c.prev = l.tail
		l.tail.next = c
		l.tail = c
	}
	if c.task != nil {
		c.task.cell = c
		n := l.pending.Add(1)
		if int(n) > l.maxFrontier {
			l.maxFrontier = int(n)
		}
	}
}

// complete turns t's cell into the leaf result, splices in the subtasks
// discovered during the execution (already in fold order: deepest fresh
// node first, branches ascending), and coalesces adjacent done cells.
// Subtasks get their cell assigned here, before the caller publishes them
// to any deque. It reports whether leaf stayed in the list; when it did
// not, leaf was merged into its left neighbour and the caller may reuse
// it.
func (l *foldList) complete(t *wsTask, leaf *Result, subs []*wsTask) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	c := t.cell
	t.cell = nil
	c.task = nil
	c.res = leaf
	cursor := c
	cells := make([]foldCell, len(subs))
	for i, s := range subs {
		nc := &cells[i]
		*nc = foldCell{task: s, prev: cursor, next: cursor.next}
		if cursor.next != nil {
			cursor.next.prev = nc
		} else {
			l.tail = nc
		}
		cursor.next = nc
		s.cell = nc
		cursor = nc
	}
	n := l.pending.Add(int64(len(subs) - 1))
	if int(n) > l.maxFrontier {
		l.maxFrontier = int(n)
	}
	return l.coalesce(c) == c
}

// coalesce merges c with adjacent done cells and returns the cell that
// holds the merged region. Merging right-into-left in list order
// reproduces the depth-first failure numbering and retention: the right
// region's failure indices shift by the left region's execution count,
// and the concatenation is re-capped at maxFailures — exactly what
// Result.record keeps when one chooser runs the region's executions in
// order. Every unlinked cell is zeroed, so a completed task still
// reachable from a stale deque slot pins neither its neighbours nor their
// results.
func (l *foldList) coalesce(c *foldCell) *foldCell {
	for c.prev != nil && c.prev.res != nil {
		p := c.prev
		mergeResults(p.res, c.res, l.maxFailures)
		p.next = c.next
		if c.next != nil {
			c.next.prev = p
		} else {
			l.tail = p
		}
		*c = foldCell{}
		c = p
	}
	for c.next != nil && c.next.res != nil {
		n := c.next
		mergeResults(c.res, n.res, l.maxFailures)
		c.next = n.next
		if n.next != nil {
			n.next.prev = c
		} else {
			l.tail = c
		}
		*n = foldCell{}
	}
	return c
}

// pendingCount is the number of outstanding task cells.
func (l *foldList) pendingCount() int { return int(l.pending.Load()) }

// frontierHighWater is the maximum pending count observed.
func (l *foldList) frontierHighWater() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.maxFrontier
}

// foldResult folds the done cells in list order into the first one,
// skipping pending cells (present only when the run was cut short), and
// returns it. On a drained frontier the list is a single done cell and
// the fold is the identity. Destructive on the cell results; call once,
// after any final checkpoint has been serialized.
func (l *foldList) foldResult() *Result {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out *Result
	for c := l.head; c != nil; c = c.next {
		switch {
		case c.res == nil:
		case out == nil:
			out = c.res
		default:
			mergeResults(out, c.res, l.maxFailures)
		}
	}
	if out == nil {
		out = &Result{}
	}
	return out
}

// tally sums the done cells' counts and Stats: the completed work a
// checkpoint taken now would hold. Unlike foldResult it leaves the cells
// untouched and copies no failure, only their count.
func (l *foldList) tally() Result {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out Result
	for c := l.head; c != nil; c = c.next {
		if c.res != nil {
			addCounts(&out, c.res)
		}
	}
	return out
}

// mergeResults folds src into dst, offsetting src's failure indices by
// dst's execution count — src's region follows dst's in canonical order.
// Elapsed is deliberately not folded (wall clock is owned by the
// engine); everything else adds, mirroring runOne's accumulation.
func mergeResults(dst, src *Result, maxFailures int) {
	for _, f := range src.Failures {
		f.Execution += dst.Executions
	}
	dst.Failures = append(dst.Failures, src.Failures...)
	if len(dst.Failures) > maxFailures {
		dst.Failures = dst.Failures[:maxFailures]
	}
	addCounts(dst, src)
}

// addCounts adds src's counts and Stats to dst.
func addCounts(dst, src *Result) {
	dst.Executions += src.Executions
	dst.Feasible += src.Feasible
	dst.Pruned += src.Pruned
	dst.FailureCount += src.FailureCount
	dst.Stats.Merge(&src.Stats)
}
