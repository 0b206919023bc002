package core

import (
	"encoding/binary"
	"hash/fnv"
	"sync"

	"repro/internal/checker"
)

// This file implements the spec-check memoization layer. Many distinct
// interleavings of one program induce the same method-call sequence,
// ordering relation ~r~ and return values; their spec checks are
// necessarily identical, so re-enumerating every sequential history for
// each of them is pure waste — the dominant wall-clock cost on
// history-heavy benchmarks. checkCache keys the full CheckResult by a
// canonical fingerprint of the execution's spec-relevant content and
// answers repeated equivalent behaviors with one map lookup.
//
// One checkCache serves one exploration shard (checker.Config.NewScratch).
// Shards coincide between sequential and parallel DFS (one per
// root-decision branch), which keeps the hit/miss/entry counters
// bit-identical between exhaustive sequential and parallel runs: under
// the work-stealing engine several workers may explore one shard
// concurrently, but for a fixed set of executions through one cache the
// misses are exactly the distinct fingerprints and the hits the rest —
// totals independent of arrival order. The cache locks internally (mu)
// to serialize those concurrent checks.

// checkCache memoizes spec-check results across the executions of one
// exploration shard. It also owns the shard's reusable checkScratch, so
// the miss path's allocations (ordering-relation matrices, topological-
// sort bookkeeping) amortize across executions. mu guards both: the
// scratch is busy from buildOrder through fingerprinting and the miss
// path's check, so the critical section spans the whole memoized check.
type checkCache struct {
	mu      sync.Mutex
	entries map[string]*CheckResult
	scratch checkScratch
}

func newCheckCache() *checkCache {
	return &checkCache{entries: map[string]*CheckResult{}}
}

// cacheOf extracts the shard's checkCache from the system's Scratch slot,
// or nil when caching is disabled (no NewScratch hook, or a hook of a
// different owner).
func cacheOf(sys *checker.System) *checkCache {
	cc, _ := sys.Scratch.(*checkCache)
	return cc
}

// checkScratch is per-shard reusable memory for the spec check: the ~r~
// relation and its reachability matrix backing, topological-sort
// bookkeeping, and the fingerprint buffer. A shard runs one check at a
// time (checkCache.mu), so a single instance serves every execution of
// the shard.
type checkScratch struct {
	rel        orderRelation
	reachRows  [][]bool
	reachCells []bool
	idx        map[*Call]int
	indeg      []int
	used       []bool
	order      []*Call
	ready      []int
	fp         []byte
}

// grabMatrix returns a zeroed n×n bool matrix backed by the scratch
// (valid until the next grabMatrix call).
func (sc *checkScratch) grabMatrix(n int) [][]bool {
	if cap(sc.reachCells) < n*n {
		sc.reachCells = make([]bool, n*n)
	}
	cells := sc.reachCells[:n*n]
	for i := range cells {
		cells[i] = false
	}
	if cap(sc.reachRows) < n {
		sc.reachRows = make([][]bool, n)
	}
	rows := sc.reachRows[:n]
	for i := 0; i < n; i++ {
		rows[i] = cells[i*n : (i+1)*n]
	}
	return rows
}

// grabTopo returns zeroed indegree/used arrays and an empty order slice
// of capacity n (valid until the next grabTopo call — topoSorts and
// randomTopoSort never run concurrently within one shard, but justify's
// enumeration must not overlap a pending history enumeration, which the
// checking pipeline's phase order guarantees).
func (sc *checkScratch) grabTopo(n int) (indeg []int, used []bool, order []*Call) {
	if cap(sc.indeg) < n {
		sc.indeg = make([]int, n)
		sc.used = make([]bool, n)
		sc.order = make([]*Call, 0, n)
	}
	indeg = sc.indeg[:n]
	used = sc.used[:n]
	for i := 0; i < n; i++ {
		indeg[i] = 0
		used[i] = false
	}
	return indeg, used, sc.order[:0]
}

// fingerprint serializes the execution's spec-relevant content into a
// canonical byte string and returns it together with its 64-bit FNV-1a
// hash. Two executions with equal fingerprints are indistinguishable to
// the checking pipeline: per call it covers identity (ID, thread), the
// method name, arguments, return value, and spec-visible aux values (in
// sorted key order), and it closes with the transitively closed ~r~
// reachability matrix. SRet is deliberately excluded — it is an output of
// the check, not an input. The hash is also the per-execution entropy
// source for the history sampler seed, which is why it must be a stable
// content hash (FNV), not a per-process one. key aliases the scratch's
// buffer and is valid until the next fingerprint call on sc.
func fingerprint(sc *checkScratch, calls []*Call, r *orderRelation) (key []byte, hash uint64) {
	buf := sc.fp[:0]
	n := len(calls)
	buf = binary.AppendUvarint(buf, uint64(n))
	for _, c := range calls {
		buf = binary.AppendUvarint(buf, uint64(c.ID))
		buf = binary.AppendUvarint(buf, uint64(c.Thread))
		buf = binary.AppendUvarint(buf, uint64(len(c.Name)))
		buf = append(buf, c.Name...)
		buf = binary.AppendUvarint(buf, uint64(len(c.Args)))
		for _, a := range c.Args {
			buf = binary.AppendUvarint(buf, uint64(a))
		}
		if c.HasRet {
			buf = append(buf, 1)
			buf = binary.AppendUvarint(buf, uint64(c.Ret))
		} else {
			buf = append(buf, 0)
		}
		buf = binary.AppendUvarint(buf, uint64(len(c.aux)))
		for _, a := range c.aux {
			buf = binary.AppendUvarint(buf, uint64(len(a.key)))
			buf = append(buf, a.key...)
			buf = binary.AppendUvarint(buf, uint64(a.v))
		}
	}
	// The closed ~r~ matrix, bit-packed row-major.
	var acc byte
	bits := 0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			acc <<= 1
			if r.reach[i][j] {
				acc |= 1
			}
			bits++
			if bits == 8 {
				buf = append(buf, acc)
				acc, bits = 0, 0
			}
		}
	}
	if bits > 0 {
		buf = append(buf, acc<<(8-bits))
	}
	sc.fp = buf

	h := fnv.New64a()
	h.Write(buf)
	return buf, h.Sum64()
}

// reportFor summarizes a CheckResult as the per-execution SpecReport the
// checker folds into Stats. On a cache hit the cached result's counters
// are replayed as if the check had run, which keeps Histories /
// AdmissibilityChecks / JustifySearches independent of the hit/miss
// pattern (and therefore identical to a cache-disabled run).
func reportFor(cr *CheckResult) checker.SpecReport {
	return checker.SpecReport{
		Histories:           cr.Histories,
		HistoriesCapped:     cr.HistoriesCapped,
		AdmissibilityChecks: cr.AdmissibilityChecks,
		JustifySearches:     cr.JustifySearches,
	}
}

// withCopiedFailures returns cr itself when it has no failures, or a
// shallow copy with freshly copied Failure values otherwise. The explorer
// stamps Failure.Execution on the failures a check returns; handing out
// the cached structs directly would let the first execution's stamp leak
// into every later equivalent execution.
func withCopiedFailures(cr *CheckResult) *CheckResult {
	if len(cr.Failures) == 0 {
		return cr
	}
	out := *cr
	out.Failures = make([]*checker.Failure, len(cr.Failures))
	for i, f := range cr.Failures {
		cp := *f
		cp.Execution = 0
		out.Failures[i] = &cp
	}
	return &out
}
