package core

import (
	"fmt"
	"math/rand"

	"repro/internal/checker"
)

// orderRelation is the ordering relation ~r~ over an execution's method
// calls, as a reachability matrix (closed under transitivity).
type orderRelation struct {
	calls []*Call
	// idx maps each call to its row/column in reach — its position in the
	// calls slice. Call.ID is NOT used as an index: IDs are dense for
	// monitor-recorded calls today, but nothing enforces that invariant
	// for filtered or hand-built call lists, and silently aliasing rows
	// through sparse IDs would corrupt the relation.
	idx map[*Call]int
	// reach[i][j] reports calls[i] ~r~ calls[j].
	reach [][]bool
}

// buildOrder extracts ~r~ from the happens-before and seq_cst ordering of
// the calls' ordering points (paper §5.2): for ordering points X of A and
// Y of B, X →hb Y or X →sc Y implies A ~r~ B. The relation is then closed
// transitively.
func buildOrder(calls []*Call) *orderRelation {
	return buildOrderScratch(calls, &checkScratch{})
}

// buildOrderScratch is buildOrder with the matrix and index map backed by
// the shard's reusable scratch. The returned relation is valid until the
// scratch's next buildOrderScratch call.
func buildOrderScratch(calls []*Call, sc *checkScratch) *orderRelation {
	n := len(calls)
	if sc.idx == nil {
		sc.idx = make(map[*Call]int, n)
	} else {
		clear(sc.idx)
	}
	r := &orderRelation{calls: calls, idx: sc.idx, reach: sc.grabMatrix(n)}
	for i, c := range calls {
		r.idx[c] = i
	}
	if len(r.idx) != n {
		// A duplicated *Call would alias two rows onto one index.
		panic(fmt.Sprintf("buildOrder: %d calls but %d distinct", n, len(r.idx)))
	}
	for i, a := range calls {
		for j, b := range calls {
			if i == j {
				continue
			}
			if opsOrdered(a, b) {
				r.reach[i][j] = true
			}
		}
	}
	// Transitive closure (n is small: unit tests have ≤ ~20 calls).
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			if !r.reach[i][k] {
				continue
			}
			for j := 0; j < n; j++ {
				if r.reach[k][j] {
					r.reach[i][j] = true
				}
			}
		}
	}
	return r
}

// opsOrdered reports whether some ordering point of a precedes some
// ordering point of b under hb ∪ sc.
func opsOrdered(a, b *Call) bool {
	for _, x := range a.OPs {
		for _, y := range b.OPs {
			if x.HappensBefore(y) || x.SCBefore(y) {
				return true
			}
		}
	}
	return false
}

// cyclic reports whether ~r~ is cyclic (possible only with multiple
// ordering points per call; the paper guarantees acyclicity for one).
func (r *orderRelation) cyclic() bool {
	for i := range r.calls {
		if r.reach[i][i] {
			return true
		}
	}
	return false
}

// ordered reports a ~r~ b for call values.
func (r *orderRelation) ordered(a, b *Call) bool { return r.reach[r.idx[a]][r.idx[b]] }

// concurrent returns the calls not ordered either way with c — the
// concurrent(m) set of paper §2.2.
func (r *orderRelation) concurrent(c *Call) []*Call {
	var out []*Call
	for _, o := range r.calls {
		if o == c {
			continue
		}
		if !r.ordered(c, o) && !r.ordered(o, c) {
			out = append(out, o)
		}
	}
	return out
}

// predecessors returns the calls ordered before c — the membership of
// every justifying subhistory of c (Definition 3).
func (r *orderRelation) predecessors(c *Call) []*Call {
	var out []*Call
	for _, o := range r.calls {
		if o != c && r.ordered(o, c) {
			out = append(out, o)
		}
	}
	return out
}

// topoSorts enumerates the topological sorts of nodes under edge,
// invoking emit for each; emit returns false to stop. limit caps the
// number of sorts generated. The slice passed to emit is live scratch
// memory, valid only for the duration of the emit call — callers must
// not retain it. sc backs the bookkeeping arrays (pass a fresh
// checkScratch when no shard scratch is available). It reports whether
// enumeration ran to completion (neither stopped nor truncated).
func topoSorts(nodes []*Call, edge func(a, b *Call) bool, limit int, sc *checkScratch, emit func([]*Call) bool) bool {
	n := len(nodes)
	indeg, used, order := sc.grabTopo(n)
	for i := range nodes {
		for j, b := range nodes {
			if i != j && edge(nodes[i], b) {
				indeg[j]++
			}
		}
	}
	count := 0
	complete := true
	var rec func() bool
	rec = func() bool {
		if len(order) == n {
			count++
			if !emit(order) {
				complete = false
				return false
			}
			if count >= limit {
				complete = false
				return false
			}
			return true
		}
		for i := 0; i < n; i++ {
			if used[i] || indeg[i] != 0 {
				continue
			}
			used[i] = true
			for j := 0; j < n; j++ {
				if j != i && !used[j] && edge(nodes[i], nodes[j]) {
					indeg[j]--
				}
			}
			order = append(order, nodes[i])
			ok := rec()
			order = order[:len(order)-1]
			for j := 0; j < n; j++ {
				if j != i && !used[j] && edge(nodes[i], nodes[j]) {
					indeg[j]++
				}
			}
			used[i] = false
			if !ok {
				return false
			}
		}
		return true
	}
	rec()
	return complete
}

// randomTopoSort draws one uniform-ish linear extension of the calls
// under edge by repeatedly picking a random ready node. The returned
// slice is backed by sc and valid until its next grabTopo call.
func randomTopoSort(nodes []*Call, edge func(a, b *Call) bool, rng *rand.Rand, sc *checkScratch) []*Call {
	n := len(nodes)
	indeg, used, out := sc.grabTopo(n)
	for i := range nodes {
		for j := range nodes {
			if i != j && edge(nodes[i], nodes[j]) {
				indeg[j]++
			}
		}
	}
	for len(out) < n {
		ready := sc.ready[:0]
		for i := 0; i < n; i++ {
			if !used[i] && indeg[i] == 0 {
				ready = append(ready, i)
			}
		}
		sc.ready = ready // keep any capacity growth for the next draw
		pick := ready[rng.Intn(len(ready))]
		used[pick] = true
		out = append(out, nodes[pick])
		for j := 0; j < n; j++ {
			if j != pick && !used[j] && edge(nodes[pick], nodes[j]) {
				indeg[j]--
			}
		}
	}
	return out
}

// CheckResult is the outcome of checking one execution against the spec.
type CheckResult struct {
	// Failures lists everything found; empty means the execution is
	// admissible and non-deterministic linearizable.
	Failures []*checker.Failure
	// Histories is the number of sequential histories checked.
	Histories int
	// HistoriesCapped reports that history enumeration was truncated by
	// Spec.MaxHistories before the space was exhausted — the check passed
	// on the histories it saw, but coverage was incomplete. Sampling
	// specs are incomplete by design and do not set it.
	HistoriesCapped bool
	// AdmissibilityChecks counts admissibility rule-pair evaluations
	// (MustOrder calls on unordered pairs).
	AdmissibilityChecks int
	// JustifySearches counts justifying-subhistory searches — one per
	// call whose non-deterministic behavior needed justification.
	JustifySearches int
	// Admissible reports whether the execution passed Definition 1.
	Admissible bool
}

// Check verifies the recorded execution against the spec and returns any
// failures. It implements the checking pipeline of paper §5.2, always
// running the full check (no memoization) — the entry point for direct
// unit-level checking.
func (m *Monitor) Check() *CheckResult {
	res, _ := m.checkMemo(nil)
	return res
}

// checkMemo is Check with an optional per-shard memoization cache. With a
// cache, the execution's canonical fingerprint (see fingerprint) keys the
// full CheckResult: a repeated equivalent behavior costs buildOrder plus
// one lookup instead of a sequential-history enumeration. The returned
// SpecReport carries the counters the checker folds into Stats — on a hit
// they replay the cached check's counters, so the spec-side Stats are
// independent of the hit/miss pattern.
func (m *Monitor) checkMemo(cc *checkCache) (*CheckResult, checker.SpecReport) {
	res := &CheckResult{Admissible: true}
	if m == nil || m.spec == nil {
		return res, checker.SpecReport{}
	}
	calls := m.calls
	for _, c := range calls {
		if !c.ended {
			res.Failures = append(res.Failures, specFail(
				"method call %s began but never ended (missing End instrumentation)", c))
			return res, reportFor(res)
		}
		if m.spec.Methods[c.Name] == nil {
			res.Failures = append(res.Failures, specFail(
				"no method spec for %q", c.Name))
			return res, reportFor(res)
		}
	}
	sc := &m.noScratch
	if cc != nil {
		// One shard's cache may serve several workers under the
		// work-stealing engine; the critical section covers the shared
		// scratch (order/fingerprint buffers) as well as the entries map.
		cc.mu.Lock()
		defer cc.mu.Unlock()
		sc = &cc.scratch
	}
	r := buildOrderScratch(calls, sc)
	if r.cyclic() {
		res.Failures = append(res.Failures, specFail(
			"ordering points induce a cyclic ~r~ relation; check OP annotations"))
		return res, reportFor(res)
	}

	// The canonical fingerprint doubles as the cache key and as the
	// per-execution entropy for the history-sampler seed, so it is needed
	// whenever either a cache or a sampling spec is in play.
	var key string
	var fp uint64
	if cc != nil || m.spec.SampleHistories > 0 {
		key, fp = fingerprint(sc, calls, r)
	}
	if cc != nil {
		if hit, ok := cc.entries[key]; ok {
			rep := reportFor(hit)
			rep.CacheHits = 1
			return withCopiedFailures(hit), rep
		}
	}

	m.runCheck(res, r, sc, fp)
	rep := reportFor(res)
	if cc != nil {
		cc.entries[key] = res
		rep.CacheMisses = 1
		rep.CacheEntries = 1
		res = withCopiedFailures(res)
	}
	return res, rep
}

// samplerSeed derives the history-sampler seed for one execution from the
// spec's base seed and the execution's canonical fingerprint hash. Tying
// the seed to content (rather than, say, the call count) makes distinct
// executions draw distinct samples — collapsing them onto one sample
// silently shrinks sampling coverage — while staying deterministic and
// identical between sequential and parallel exhaustive runs, which see
// the same executions.
func samplerSeed(base int64, fp uint64) int64 {
	return base ^ int64(fp)
}

// runCheck runs the expensive phases of the checking pipeline —
// admissibility, sequential-history enumeration or sampling, and
// justification — folding outcomes into res. fp is the execution's
// fingerprint hash (used only by the sampling path).
func (m *Monitor) runCheck(res *CheckResult, r *orderRelation, sc *checkScratch, fp uint64) {
	calls := m.calls
	// Admissibility (Definition 1). An inadmissible execution is a
	// warning: the spec's correctness properties are not checked for it.
	for _, rule := range m.spec.Admissibility {
		for _, a := range calls {
			if a.Name != rule.M1 {
				continue
			}
			for _, b := range calls {
				if b == a || b.Name != rule.M2 {
					continue
				}
				if rule.M1 == rule.M2 && a.ID > b.ID {
					continue // visit unordered same-name pairs once
				}
				if r.ordered(a, b) || r.ordered(b, a) {
					continue
				}
				res.AdmissibilityChecks++
				if rule.MustOrder(a, b) {
					res.Admissible = false
					res.Failures = append(res.Failures, &checker.Failure{
						Kind: checker.FailAdmissibility,
						Msg: fmt.Sprintf("inadmissible execution: %s and %s must be ordered (@Admit %s<->%s)",
							a, b, rule.M1, rule.M2),
					})
					return
				}
			}
		}
	}

	// Valid sequential histories (Definition 2) — check them all
	// (Definition 6) up to the configured cap, or a random sample when
	// the spec opts into sampling (§5.2).
	edge := func(a, b *Call) bool { return r.ordered(a, b) }
	var histFail *checker.Failure
	if n := m.spec.SampleHistories; n > 0 {
		rng := rand.New(rand.NewSource(samplerSeed(m.spec.SampleSeed, fp)))
		for i := 0; i < n && histFail == nil; i++ {
			h := randomTopoSort(calls, edge, rng, sc)
			res.Histories++
			histFail = m.runHistory(h)
		}
	} else {
		complete := topoSorts(calls, edge, m.spec.historyCap(), sc, func(h []*Call) bool {
			res.Histories++
			if f := m.runHistory(h); f != nil {
				histFail = f
				return false
			}
			return true
		})
		// complete is also false when emit stopped on a failure; only an
		// unfailed, truncated enumeration counts as capped coverage.
		res.HistoriesCapped = !complete && histFail == nil
	}
	if histFail != nil {
		res.Failures = append(res.Failures, histFail)
		return
	}

	// Justified behaviors (Definitions 3–4).
	for _, c := range calls {
		md := m.spec.Methods[c.Name]
		if md.NeedsJustify == nil || !md.NeedsJustify(c) {
			continue
		}
		res.JustifySearches++
		if f := m.justify(r, c, md, sc); f != nil {
			res.Failures = append(res.Failures, f)
			return
		}
	}
}

// runHistory replays the equivalent sequential data structure over a
// sequential history, checking pre/side-effect/post per call.
func (m *Monitor) runHistory(h []*Call) *checker.Failure {
	st := m.spec.NewState()
	for _, c := range h {
		md := m.spec.Methods[c.Name]
		if md.Pre != nil && !md.Pre(st, c) {
			return specFail("precondition of %s failed in history: %s", c, formatHistory(h))
		}
		if md.SideEffect != nil {
			md.SideEffect(st, c)
		}
		if md.Post != nil && !md.Post(st, c) {
			return specFail("postcondition of %s failed in history: %s", c, formatHistory(h))
		}
	}
	return nil
}

// justify checks Definition 4 for call c: some justifying subhistory (or
// the concurrent set) must enable the non-deterministic behavior.
func (m *Monitor) justify(r *orderRelation, c *Call, md *MethodSpec, sc *checkScratch) *checker.Failure {
	conc := r.concurrent(c)
	preds := r.predecessors(c)
	edge := func(a, b *Call) bool { return r.ordered(a, b) }
	justified := false
	topoSorts(preds, edge, m.spec.subhistoryCap(), sc, func(j []*Call) bool {
		// Execute the subhistory's predecessors, then m itself: the
		// justifying precondition holds before m and the justifying
		// postcondition after it (paper §4.3).
		st := m.spec.NewState()
		for _, p := range j {
			pmd := m.spec.Methods[p.Name]
			if pmd.SideEffect != nil {
				pmd.SideEffect(st, p)
			}
		}
		if md.JustifyPre != nil && !md.JustifyPre(st, c, conc) {
			return true // try the next subhistory
		}
		if md.SideEffect != nil {
			md.SideEffect(st, c)
		}
		if md.JustifyPost == nil || md.JustifyPost(st, c, conc) {
			justified = true
			return false
		}
		return true
	})
	if !justified && md.JustifyConcurrent != nil && md.JustifyConcurrent(c, conc) {
		justified = true
	}
	if !justified {
		return specFail("unjustified non-deterministic behavior of %s: no justifying subhistory or concurrent call enables it (predecessors: %s)",
			c, formatHistory(preds))
	}
	return nil
}

func specFail(format string, args ...any) *checker.Failure {
	return &checker.Failure{
		Kind: checker.FailAssertion,
		Msg:  fmt.Sprintf(format, args...),
	}
}

// Explore runs the model checker over prog with the spec checked after
// every feasible execution — the whole CDSSpec pipeline in one call. The
// per-execution spec check is memoized per exploration shard unless the
// caller installed its own Config.NewScratch hook, whose Scratch value
// the cache would collide with.
func Explore(spec *Spec, cfg checker.Config, prog func(*checker.Thread)) *checker.Result {
	if cfg.FastMode {
		// Fast mode retains no action trace and no per-action clocks, so
		// the monitor's history reconstruction has nothing to read; its
		// built-in checks (races, deadlocks, uninitialized loads) still
		// fire through checker.Explore directly. Rejecting loudly beats
		// silently skipping the spec.
		panic("core.Explore: FastMode cannot be combined with the CDSSpec layer; call checker.Explore directly for fast-mode screening")
	}
	userStart := cfg.OnRunStart
	cfg.OnRunStart = func(sys *checker.System) {
		Install(sys, spec)
		if userStart != nil {
			userStart(sys)
		}
	}
	if !spec.disableCheckCache && cfg.NewScratch == nil {
		cfg.NewScratch = func() any { return newCheckCache() }
	}
	userExec := cfg.OnExecution
	cfg.OnExecution = func(sys *checker.System) []*checker.Failure {
		var fails []*checker.Failure
		if mon := FromSys(sys); mon != nil {
			cr, rep := mon.checkMemo(cacheOf(sys))
			sys.ReportSpecStats(rep)
			fails = cr.Failures
		}
		if userExec != nil {
			fails = append(fails, userExec(sys)...)
		}
		return fails
	}
	return checker.Explore(cfg, prog)
}
