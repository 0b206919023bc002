package checker

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/memmodel"
)

// This file implements the execution-equivalence reduction layer: the
// rf-class state fingerprint, the shared seen-set that cuts subtrees
// whose frozen prefix can only re-derive an already-witnessed class, the
// thread-symmetry machinery, and the spinloop/await bound. DESIGN.md §5c
// documents the equivalence key and the soundness argument; the short
// version lives on each piece below.
//
// Soundness skeleton (shared by every prune in this file): the state
// fingerprint is a function of everything that can influence the
// remainder of an execution — the execution graph built so far (per-
// thread operation streams with reads-from edges, per-location
// modification orders, the SC order, per-mutex acquisition orders), the
// schedule-invariant thread states, the step budget already spent, and
// the spec monitor's recorded calls (via the AuxFingerprinter hook, since
// call records are order-sensitive). Two prefixes with equal fingerprints
// therefore have *identical* sets of possible continuations, and a
// continuation produces byte-identical spec fingerprints and failure
// kinds from either. Pruning the second prefix at the branch point loses
// nothing as long as the first one's subtree is (or will be) fully
// explored. That holds by induction on the step count — it strictly
// increases into a subtree, so a chain of "pruned against" references can
// never cycle back to a shallower state — with one caveat for sleep sets:
// a registered state was only explored under *its* sleep set, so a later
// instance may be pruned only when its own sleep set is a superset of a
// registered one (Godefroid's classical condition for combining sleep
// sets with state caching). The seen-set stores sleep signatures per
// state key and applies exactly that subset test.

// ReduceSet selects the execution-equivalence reductions to apply.
// Zero value means no reduction (the pre-reduction explorer).
type ReduceSet struct {
	// RF prunes decision subtrees whose frozen prefix re-derives an
	// already-witnessed execution-graph equivalence class.
	RF bool
	// Symmetry canonicalizes identical thread roots and prunes schedule
	// branches that merely permute never-started symmetric threads.
	Symmetry bool
	// Spinloop bounds side-effect-free read-loop iterations: a thread
	// about to re-read the same store it just read (with nothing but
	// Yield in between) awaits a newer visible store instead.
	Spinloop bool
}

// ReduceAll enables every reduction.
func ReduceAll() ReduceSet { return ReduceSet{RF: true, Symmetry: true, Spinloop: true} }

// ParseReduce parses a -reduce flag value: "none" (or empty) and "all",
// or a comma-separated subset of rf, symmetry, spinloop.
func ParseReduce(s string) (ReduceSet, error) {
	switch strings.TrimSpace(s) {
	case "", "none":
		return ReduceSet{}, nil
	case "all":
		return ReduceAll(), nil
	}
	var r ReduceSet
	for _, part := range strings.Split(s, ",") {
		switch strings.TrimSpace(part) {
		case "rf":
			r.RF = true
		case "symmetry":
			r.Symmetry = true
		case "spinloop":
			r.Spinloop = true
		default:
			return ReduceSet{}, fmt.Errorf("unknown reduction %q (valid: rf, symmetry, spinloop, all, none)", strings.TrimSpace(part))
		}
	}
	return r, nil
}

// Any reports whether any reduction is enabled.
func (r ReduceSet) Any() bool { return r.RF || r.Symmetry || r.Spinloop }

// String renders the canonical flag form: "none" or a subset of
// "rf,symmetry,spinloop" in that order.
func (r ReduceSet) String() string {
	if !r.Any() {
		return "none"
	}
	parts := make([]string, 0, 3)
	if r.RF {
		parts = append(parts, "rf")
	}
	if r.Symmetry {
		parts = append(parts, "symmetry")
	}
	if r.Spinloop {
		parts = append(parts, "spinloop")
	}
	return strings.Join(parts, ",")
}

// MarshalText renders the set in its flag form (String), so a
// checkpoint records it as a string.
func (r ReduceSet) MarshalText() ([]byte, error) { return []byte(r.String()), nil }

// UnmarshalText parses the flag form (ParseReduce), rejecting unknown
// reduction names.
func (r *ReduceSet) UnmarshalText(b []byte) error {
	set, err := ParseReduce(string(b))
	if err != nil {
		return err
	}
	*r = set
	return nil
}

// AuxFingerprinter is implemented by System.Aux owners (the spec
// monitor) that carry spec-layer state the reduction fingerprint must
// respect: the monitor's call record is order-sensitive (call IDs are
// assigned in global begin order), so two prefixes may only merge when
// their records match exactly.
type AuxFingerprinter interface {
	ReduceFingerprint() (uint64, uint64)
}

// mix64 is the splitmix64 finalizer — a cheap full-avalanche bijection
// used both to chain lane A of the stream hashes and to derive canonical
// thread ids.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// fmix64 is murmur3's 64-bit finalizer, lane B's bijection. Its
// constants differ from mix64's, so the two lanes are different
// permutations.
func fmix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// fpPair is a two-lane order-sensitive hash stream. Two independent
// lanes make accidental 64-bit collisions (which would cause an unsound
// prune) a 128-bit event (DESIGN.md §5c).
type fpPair struct{ a, b uint64 }

// The lane constants keep a stream of zero words from hashing to zero
// (both finalizers map 0 to 0), so zero streams of different lengths
// stay apart.
const (
	fpLaneA = 0x9e3779b97f4a7c15
	fpLaneB = 0xc2b2ae3d27d4eb4f
)

// push chains one word into the stream (order-sensitive): one finalizer
// round per lane.
func (p *fpPair) push(w uint64) {
	p.a = mix64(p.a ^ w ^ fpLaneA)
	p.b = fmix64(p.b ^ w ^ fpLaneB)
}

// fpKey is a combined state fingerprint.
type fpKey struct{ a, b uint64 }

// add folds one multiset element into the key (commutative, so map
// iteration order never leaks into the fingerprint).
func (k *fpKey) add(e fpKey) {
	k.a += e.a
	k.b += e.b
}

// sub removes a multiset element add folded in.
func (k *fpKey) sub(e fpKey) {
	k.a -= e.a
	k.b -= e.b
}

// fpEntry hashes a tagged tuple into one multiset element.
func fpEntry(words ...uint64) fpKey {
	var p fpPair
	for _, w := range words {
		p.push(w)
	}
	return fpKey{p.a, p.b}
}

// Multiset-entry tags. Distinct tags keep structurally different state
// components from aliasing.
const (
	fpTagThread uint64 = iota + 1
	fpTagUnstarted
	fpTagLoc
	fpTagMutex
	fpTagSC
	fpTagAux
	fpTagSite
)

// fpObj is the reduction state a location or mutex carries: its
// canonical identity, its order stream (a location's modification order,
// a mutex's acquisition order), and ent, the multiset entry the System's
// running sum fpObjs holds for it. dirty means the stream moved since
// ent was computed: the object is on System.fpDirty, and the next
// stateFingerprint replaces ent in the sum. id is allocation-order-
// dependent; the canonical pair is not.
type fpObj struct {
	tag      uint64
	canonA   uint64
	canonSeq uint32
	fpOrder  fpPair
	ent      fpKey
	dirty    bool
}

// entry hashes o's multiset element from its identity and stream.
func (o *fpObj) entry() fpKey {
	return fpEntry(o.tag, o.canonA, uint64(o.canonSeq), o.fpOrder.a, o.fpOrder.b)
}

// fpTouch queues o's entry for rehashing at the next stateFingerprint.
// The mark is all a store or mutex operation pays, replays included.
func (s *System) fpTouch(o *fpObj) {
	if !o.dirty {
		o.dirty = true
		s.fpDirty = append(s.fpDirty, o)
	}
}

// Stream opcodes. Every opcode is below 256, so fpOpWord's packing is
// injective; fpOpUnlock is the last.
const (
	fpOpLoad uint64 = iota + 1
	fpOpStore
	fpOpRMW
	fpOpCASFail
	fpOpFence
	fpOpPlainStore
	fpOpRawStore
	fpOpYield
	fpOpSpawn
	fpOpJoin
	fpOpLock
	fpOpTryLock
	fpOpUnlock
)

// fpOpWord packs an opcode (below 256) and a 32-bit sequence number
// into one stream word.
func fpOpWord(op uint64, seq uint32) uint64 { return op | uint64(seq)<<8 }

// rfShards is the seen-set shard count (mutex-striped, like the spec
// cache's per-shard locking).
const rfShards = 16

// rfSeenSet is the shared registry of witnessed state fingerprints. Each
// shard's prefix table holds branch-point states with the sleep
// signatures they were registered under; its complete table holds
// finished feasible executions and backs the RFClasses counter.
type rfSeenSet struct {
	classes atomic.Int64
	shards  [rfShards]rfShard
}

type rfShard struct {
	mu sync.Mutex
	// prefix maps a branch-point state key to the sleep signatures it has
	// been registered (and therefore explored) under: refEmpty for the
	// empty signature, else i+1 for sleeps[i], the key's list of non-empty
	// signatures, each a sorted slice of per-sleeper entry hashes.
	prefix   fpTable
	sleeps   [][][]uint64
	complete fpTable
}

func newRFSeenSet() *rfSeenSet {
	s := &rfSeenSet{}
	for i := range s.shards {
		s.shards[i].prefix.init()
		s.shards[i].complete.init()
	}
	return s
}

func (s *rfSeenSet) shard(k fpKey) *rfShard { return &s.shards[k.a%rfShards] }

// fpTable is an open-addressing hash table from state keys to int32
// references, with linear probing from k.b (k.a already picked the
// shard). Its size is a power of two and it is at most 3/4 full, so
// every probe sequence ends at an empty slot.
type fpTable struct {
	slots []fpSlot
	used  int
}

// fpSlot is one table entry; ref 0 marks it empty.
type fpSlot struct {
	key fpKey
	ref int32
}

// refEmpty is the reference of a key registered under the empty sleep
// signature, and the mark of a complete-table member.
const refEmpty int32 = -1

func (t *fpTable) init() { t.slots = make([]fpSlot, 16) }

// find returns k's slot, or the empty slot where k belongs. The slot
// stays valid until the next insert.
func (t *fpTable) find(k fpKey) *fpSlot {
	mask := uint64(len(t.slots) - 1)
	for i := k.b & mask; ; i = (i + 1) & mask {
		if sl := &t.slots[i]; sl.ref == 0 || sl.key == k {
			return sl
		}
	}
}

// insert fills sl, the empty slot find returned for k, and doubles the
// table once it is more than 3/4 full.
func (t *fpTable) insert(sl *fpSlot, k fpKey, ref int32) {
	sl.key, sl.ref = k, ref
	if t.used++; 4*t.used <= 3*len(t.slots) {
		return
	}
	old := t.slots
	t.slots = make([]fpSlot, 2*len(old))
	for _, o := range old {
		if o.ref != 0 {
			*t.find(o.key) = o
		}
	}
}

// subsetOf reports whether sorted slice a is a subset of sorted slice b.
func subsetOf(a, b []uint64) bool {
	if len(a) > len(b) {
		return false
	}
	j := 0
	for _, x := range a {
		for j < len(b) && b[j] < x {
			j++
		}
		if j >= len(b) || b[j] != x {
			return false
		}
		j++
	}
	return true
}

// seenPrefix is the atomic check-and-register for a branch-point state.
// It returns true (prune) when the state was already registered under a
// sleep signature no larger than the caller's — the registered instance
// explores a superset of the caller's continuations. Otherwise it
// registers the caller (who must then explore) and returns false. The
// check and the insert share one critical section and one probe
// sequence, so exactly one of two racing equal-state workers explores;
// the loser prunes.
func (s *rfSeenSet) seenPrefix(k fpKey, sleep []uint64) bool {
	sh := s.shard(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sl := sh.prefix.find(k)
	switch sl.ref {
	case refEmpty:
		// Every caller's signature contains the empty one.
		return true
	case 0:
		ref := refEmpty
		if len(sleep) > 0 {
			sh.sleeps = append(sh.sleeps, [][]uint64{slices.Clone(sleep)})
			ref = int32(len(sh.sleeps))
		}
		sh.prefix.insert(sl, k, ref)
		return false
	}
	list := sh.sleeps[sl.ref-1]
	for _, reg := range list {
		if subsetOf(reg, sleep) {
			return true
		}
	}
	if len(sleep) == 0 {
		// The empty signature dominates every registered one.
		sh.sleeps[sl.ref-1] = nil
		sl.ref = refEmpty
		return false
	}
	// Register under our (incomparable or smaller) sleep signature,
	// dropping registered supersets we now dominate.
	kept := list[:0]
	for _, reg := range list {
		if !subsetOf(sleep, reg) {
			kept = append(kept, reg)
		}
	}
	sh.sleeps[sl.ref-1] = append(kept, slices.Clone(sleep))
	return false
}

// addComplete registers a feasible execution's end-state fingerprint and
// counts distinct equivalence classes.
func (s *rfSeenSet) addComplete(k fpKey) {
	sh := s.shard(k)
	sh.mu.Lock()
	sl := sh.complete.find(k)
	added := sl.ref == 0
	if added {
		sh.complete.insert(sl, k, refEmpty)
	}
	sh.mu.Unlock()
	if added {
		s.classes.Add(1)
	}
}

// symClass groups threads spawned with an identical closure (same
// funcval, i.e. same code and same captured environment). Members are
// interchangeable until they first act; canonical slot ids are handed
// out in first-action order, which is exactly the renaming that makes
// permuted schedules of symmetric threads collide in the fingerprint.
type symClass struct {
	key      unsafe.Pointer
	tids     []int
	assigned int
}

// fpRootCanon is the root thread's canonical id (never 0 — zero means
// "not yet assigned" for symmetry-class members).
const fpRootCanon = 0x5ca1ab1e0ddba11

// registerSymmetry classifies a freshly spawned thread by its closure
// identity. Closure pointers are only compared within one execution —
// they are per-execution addresses and never enter a fingerprint.
func (s *System) registerSymmetry(t *Thread, fn func(*Thread)) {
	key := *(*unsafe.Pointer)(unsafe.Pointer(&fn))
	for i := range s.symClasses {
		if s.symClasses[i].key == key {
			s.symClasses[i].tids = append(s.symClasses[i].tids, t.id)
			t.classIdx = i
			return
		}
	}
	s.symClasses = append(s.symClasses, symClass{key: key, tids: []int{t.id}})
	t.classIdx = len(s.symClasses) - 1
}

// symTwin reports whether t is a member of a multi-member symmetry
// class (and therefore interchangeable with its never-started twins).
func (s *System) symTwin(t *Thread) bool {
	return s.cfg.Reduce.Symmetry && t.classIdx >= 0 && len(s.symClasses[t.classIdx].tids) > 1
}

// assignCanon gives t its canonical id on first action. Members of a
// multi-member symmetry class draw slots in first-action order (the
// canonicalizing renaming); other spawned threads take their spawn-tree
// id; the root thread (never spawned) takes the fixed root id.
func (s *System) assignCanon(t *Thread) {
	if t.canon != 0 {
		return
	}
	switch {
	case s.symTwin(t):
		cl := &s.symClasses[t.classIdx]
		t.canon = mix64(fpTagUnstarted ^ mix64(uint64(t.classIdx)<<20|uint64(cl.assigned)))
		cl.assigned++
	case t.spawnKey != 0:
		t.canon = t.spawnKey
	default:
		t.canon = fpRootCanon
	}
}

// spawnCanon derives the canonical id of a non-symmetric child: a hash
// chain over (parent canonical id, per-parent spawn index), which is
// schedule-independent — unlike raw thread ids, whose assignment order
// leaks the interleaving of spawns on different parents.
func spawnCanon(parent uint64, seq uint32) uint64 {
	c := mix64(parent ^ mix64(uint64(seq)+fpLaneA))
	if c == 0 {
		c = 1
	}
	return c
}

// canonOf returns the canonical id of a thread whether or not it has
// acted: assigned id, else (for a never-started symmetry twin) a class
// id shared with its interchangeable twins, else the spawn-tree id, else
// the root id.
func (s *System) canonOf(tid int) uint64 {
	t := s.threads[tid]
	if t.canon != 0 {
		return t.canon
	}
	if s.symTwin(t) {
		return mix64(fpTagUnstarted ^ uint64(t.classIdx+1))
	}
	if t.spawnKey != 0 {
		return t.spawnKey
	}
	return fpRootCanon
}

// --- incremental stream hooks (called from system.go / ops.go) ---

// Every record below has a fixed length in its stream and starts with
// an fpOpWord, so a stream is an injective encoding of its records.

// fpThreadOp appends one operation to t's history stream. loc may be
// nil for fences/yields; a/b carry op-specific payload (rf index and
// value for loads, mo index and value for stores, ...).
func (s *System) fpThreadOp(t *Thread, op uint64, loc *location, a, b uint64) {
	if s.cfg.rfSeen == nil {
		return
	}
	var canonA uint64
	var canonSeq uint32
	if loc != nil {
		canonA, canonSeq = loc.canonA, loc.canonSeq
	}
	t.fp.push(fpOpWord(op, canonSeq))
	t.fp.push(canonA)
	t.fp.push(a)
	t.fp.push(b)
}

// fpMoOp appends one store to loc's modification-order stream.
func (s *System) fpMoOp(loc *location, op uint64, writer *Thread, val uint64) {
	if s.cfg.rfSeen == nil {
		return
	}
	loc.fpOrder.push(fpOpWord(op, writer.tseq))
	loc.fpOrder.push(writer.canon)
	loc.fpOrder.push(val)
	s.fpTouch(&loc.fpObj)
}

// fpSCOp appends one action to the global seq_cst order stream. Hooked
// in assignSCIndex, so whatever SC order the active model backend
// induces is captured automatically.
func (s *System) fpSCOp(t *Thread, kind memmodel.Kind) {
	if s.cfg.rfSeen == nil {
		return
	}
	s.fpSC.push(fpOpWord(uint64(kind), t.tseq))
	s.fpSC.push(t.canon)
}

// fpMutexOp appends one acquisition-order event to m's stream and
// mirrors it into the actor's thread stream.
func (s *System) fpMutexOp(m *Mutex, op uint64, t *Thread, outcome uint64) {
	if s.cfg.rfSeen == nil {
		return
	}
	m.fpOrder.push(fpOpWord(op, t.tseq))
	m.fpOrder.push(t.canon)
	m.fpOrder.push(outcome)
	s.fpTouch(&m.fpObj)
	t.fp.push(fpOpWord(op, m.canonSeq))
	t.fp.push(m.canonA)
	t.fp.push(outcome)
	t.fp.push(0)
}

// --- state fingerprint ---

// threadEnabledNow mirrors enabledThreads' schedulability rules for a
// single thread (plus running/finished states, which enabledThreads
// never sees).
func (s *System) threadEnabledNow(t *Thread) bool {
	switch t.state {
	case tsRunning, tsParked:
		return true
	case tsYield:
		return s.storeEpoch > t.yieldEpoch
	case tsLock:
		return t.waitMutex.owner == -1
	case tsJoin:
		return t.waitThread.state == tsFinished
	}
	return false
}

// threadResource identifies what a blocked thread waits on (the wait
// target changes the continuations even while the thread is disabled).
func (s *System) threadResource(t *Thread) (uint64, uint64) {
	switch t.state {
	case tsLock:
		return t.waitMutex.canonA, uint64(t.waitMutex.canonSeq)
	case tsJoin:
		return s.canonOf(t.waitThread.id), ^uint64(0)
	}
	return 0, 0
}

func boolW(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// threadBits packs the part of t's entry that can change without t
// bumping tseq: its state, whether it is enabled, whether it was woken
// as a last resort at the current store epoch, and skipNextPark.
func (s *System) threadBits(t *Thread) uint64 {
	return uint64(t.state) | boolW(s.threadEnabledNow(t))<<8 |
		boolW(t.lastResortEpoch == s.storeEpoch)<<9 | boolW(t.skipNextPark)<<10
}

// threadEntry returns t's multiset entry. Its head — canonical id,
// operation stream and tseq — changes only when t acts, and every action
// bumps tseq, so the head is cached under tseq (Thread.fpHead). The
// per-decision bits and, for a blocked thread, its wait resource are
// chained onto the head at every call.
func (s *System) threadEntry(t *Thread) fpKey {
	if t.canon == 0 && s.symTwin(t) {
		// Never-started symmetry-class member: interchangeable with its
		// unstarted twins, so the entry carries the class, not the
		// identity (the commutative fold handles multiplicity).
		return fpEntry(fpTagUnstarted, uint64(t.classIdx), uint64(t.state), boolW(s.threadEnabledNow(t)))
	}
	if t.fpHeadSeq != t.tseq+1 {
		h := fpEntry(fpTagThread, s.canonOf(t.id), t.fp.a, t.fp.b, uint64(t.tseq))
		t.fpHead, t.fpHeadSeq = fpPair(h), t.tseq+1
	}
	p := t.fpHead
	p.push(s.threadBits(t))
	if t.state == tsLock || t.state == tsJoin {
		ra, rb := s.threadResource(t)
		p.push(ra)
		p.push(rb)
	}
	return fpKey{p.a, p.b}
}

// stateFingerprint combines the current state into one key: per-thread
// streams and schedule-invariant thread state, per-location mo streams,
// per-mutex streams, the SC stream, the spec monitor's record, the step
// budget spent, and the decision site itself (kind + active thread +
// location). Everything is folded commutatively, so registry iteration
// order is irrelevant; each component is an order-sensitive stream
// internally.
//
// The location and mutex entries live in the running sum fpObjs; only
// the ones touched since the previous fingerprint are rehashed here, so
// a fingerprint costs O(threads + spec calls) plus the objects that
// changed. The from-scratch computation is the tests' reference
// (rebuildFingerprint in export_test.go).
func (s *System) stateFingerprint(kind byte, active *Thread, loc *location) fpKey {
	for _, o := range s.fpDirty {
		e := o.entry()
		s.fpObjs.sub(o.ent)
		s.fpObjs.add(e)
		o.ent, o.dirty = e, false
	}
	s.fpDirty = s.fpDirty[:0]
	acc := s.fpObjs
	for _, t := range s.threads {
		acc.add(s.threadEntry(t))
	}
	acc.add(fpEntry(fpTagSC, s.fpSC.a, s.fpSC.b))
	if af, ok := s.Aux.(AuxFingerprinter); ok {
		a, b := af.ReduceFingerprint()
		acc.add(fpEntry(fpTagAux, a, b))
	}
	acc.add(s.siteEntry(kind, active, loc))
	return acc
}

// siteEntry hashes the decision site: its kind, the global step count,
// the active thread and the location.
func (s *System) siteEntry(kind byte, active *Thread, loc *location) fpKey {
	var siteT, siteA, siteB uint64
	if active != nil {
		siteT = s.canonOf(active.id)
	}
	if loc != nil {
		siteA, siteB = loc.canonA, uint64(loc.canonSeq)
	}
	return fpEntry(fpTagSite, uint64(kind), uint64(s.stepCount), siteT, siteA, siteB)
}

// sleepSignature renders the current sleep set as a sorted slice of
// per-sleeper entry hashes (canonical thread id + pending-op signature
// with canonical resource identity). The returned slice aliases the
// system's scratch buffer — seenPrefix copies what it keeps.
func (s *System) sleepSignature() []uint64 {
	buf := s.fpSleepBuf[:0]
	for _, z := range s.sleep {
		ra, rb := s.sleepResource(z.sig)
		e := fpEntry(s.canonOf(z.tid), uint64(z.sig.class), ra, rb, boolW(z.sig.write), boolW(z.sig.sc))
		buf = append(buf, e.a^e.b)
	}
	slices.Sort(buf)
	s.fpSleepBuf = buf
	return buf
}

// sleepResource maps a pending-op signature's resource to canonical
// identity: sigMem carries a location id, sigMutex a 1-based mutex id.
func (s *System) sleepResource(sig pendSig) (uint64, uint64) {
	switch sig.class {
	case sigMem:
		if sig.loc >= 0 && sig.loc < len(s.locs) {
			l := s.locs[sig.loc]
			return l.canonA, uint64(l.canonSeq)
		}
	case sigMutex:
		if sig.loc >= 1 && sig.loc <= len(s.mutexes) {
			m := s.mutexes[sig.loc-1]
			return m.canonA, uint64(m.canonSeq)
		}
	}
	return ^uint64(0), ^uint64(0)
}

// rfStateSeen is the branch-point check: has an equal state (under a no-
// larger sleep set) already been registered? The first caller registers
// and must explore; later equal-state callers prune. Callers gate on a
// fresh decision (never a replay — a replayed branch node was registered
// by its own first visit and must not self-prune).
func (s *System) rfStateSeen(kind byte, active *Thread, loc *location) bool {
	if s.cfg.rfSeen == nil {
		return false
	}
	return s.cfg.rfSeen.seenPrefix(s.stateFingerprint(kind, active, loc), s.sleepSignature())
}

// rfCheck is the branch-point prune for value-nondeterminism sites: at a
// fresh decision with real fan-out, cut the subtree when an equal state
// was already registered (under a no-larger sleep set). Replayed sites
// are never re-checked — the branch node registered itself on its first
// visit and must not prune its own siblings' replays.
func (s *System) rfCheck(kind byte, t *Thread, loc *location, n int) {
	if n <= 1 || !s.cfg.Reduce.RF || s.cfg.rfSeen == nil || !s.chooser.freshDecision() {
		return
	}
	if s.rfStateSeen(kind, t, loc) {
		s.pruneReason = pruneRFEquiv
		s.prune()
	}
}

// countSpinBound counts one spinloop floor bump, once per branch node
// (fresh decisions only, so runs agree at every worker count).
func (s *System) countSpinBound() {
	if s.chooser.freshDecision() {
		s.redSpinBounds++
	}
}

// noteCompleteExecution registers a finished feasible execution's
// equivalence class.
func (s *System) noteCompleteExecution() {
	if s.cfg.rfSeen == nil {
		return
	}
	s.cfg.rfSeen.addComplete(s.stateFingerprint('e', nil, nil))
}

// --- spinloop/await bounding ---
//
// A spin iteration is the code a thread runs between two Yields. The
// Yield contract already declares such iterations to be retry loops
// ("spin loops must call it after an unsuccessful iteration"); the
// reduction additionally *verifies* an iteration was observably pure —
// no stores, RMWs, successful CAS, fences, mutex ops, allocations,
// spawns/joins, raw accesses, and no spec-monitor mutations by the
// thread (tracked via AuxMutTracker) — before treating its repetition
// as redundant. A pure iteration is a deterministic function of the
// values its loads read, so if none of the read locations has a newer
// store, re-running it provably re-reads the same stores, re-derives
// the same local computation, and re-yields: GenMC's spin-assume
// argument. (A loop that counts iterations and acts on the count is the
// one program shape this misreads; DESIGN.md §5c documents that caveat
// — such loops need -reduce without spinloop.)
//
// Two mechanisms build on that proof:
//
//   - spinBlocked: a yielded thread whose completed iteration was pure
//     and none of whose read locations has a newer store is excluded
//     from scheduling (awaiting, GenMC-style) even after storeEpoch
//     moved for unrelated locations. The unreduced explorer instead
//     schedules the futile iteration at every interleaving point.
//   - spinBound: when the pure iteration read exactly one location, the
//     next iteration's re-read of it may skip the store it already saw
//     if a newer one is visible — reading the old store only reproduces
//     the previous iteration. (With multiple locations the stale
//     re-read can combine with a fresh read elsewhere into a genuinely
//     new outcome, so the bound is restricted to single-location
//     iterations.)

// AuxMutTracker is implemented by System.Aux owners that mutate spec
// state outside the checker's view (the CDSSpec monitor): it reports a
// per-thread mutation counter so the spinloop reduction can verify an
// iteration made no spec-layer mutations.
type AuxMutTracker interface {
	ReduceThreadMuts(tid int) uint64
}

// auxThreadMuts reads the Aux owner's per-thread mutation counter (0
// when no tracker is installed — litmus programs without a monitor).
func (s *System) auxThreadMuts(tid int) uint64 {
	if m, ok := s.Aux.(AuxMutTracker); ok {
		return m.ReduceThreadMuts(tid)
	}
	return 0
}

// spinClear marks the current iteration impure. Called from every
// side-effecting operation; cheap enough to run unconditionally.
func (t *Thread) spinClear() {
	t.spinPure = false
	t.spinLoc = nil
}

// spinPark freezes the purity verdict for the iteration that is about
// to yield, and arms the single-location re-read bound when it applies.
// Called from Yield before parking; recentReads still holds the
// completed iteration's loads.
func (t *Thread) spinPark() {
	t.spinIterPure = t.spinPure && t.sys.auxThreadMuts(t.id) == t.spinMuts
	t.spinLoc = nil
	if !t.spinIterPure || len(t.recentReads) == 0 {
		return
	}
	loc, rf := t.recentReads[0].loc, t.recentReads[0].rfMO
	for _, r := range t.recentReads[1:] {
		if r.loc != loc {
			return
		}
		if r.rfMO > rf {
			rf = r.rfMO
		}
	}
	t.spinLoc, t.spinRF = loc, rf
}

// spinWake starts purity tracking for the next iteration. Called from
// Yield after waking (recentReads has just been reset).
func (t *Thread) spinWake() {
	t.spinPure = true
	t.spinMuts = t.sys.auxThreadMuts(t.id)
}

// spinBound bumps a load's visibility floor past the store the previous
// (pure, single-location) iteration read when a newer store is visible.
// The caller resolves and clears the armed bound deterministically on
// both the fresh and the replayed path (see doLoad), so replays remain
// bit-identical.
func (s *System) spinBound(t *Thread, loc *location, prevRF, floor int) int {
	if loc.lastStoreIdx() > prevRF && prevRF+1 > floor {
		return prevRF + 1
	}
	return floor
}

// reduceCandidates applies the scheduling-side reductions to pickThread's
// candidate list, filtering in place. It is a deterministic function of
// the execution state, so replays and frozen-prefix re-drives recompute
// identical candidate sets at every node. fresh gates the prune counters:
// counted once per fresh visit, never on replays, so totals agree at
// every worker count.
//
// Spinloop: provably futile spinners (spinBlocked) are dropped — unless
// that would drop every candidate, in which case the list is kept whole
// so a futile spinner still runs its last identical iteration and the
// livelock/deadlock detection in reportStuck fires as without reduction.
//
// Symmetry: among the never-started members of one symmetry class, only
// the first may take its first step at this node. Starting twin B before
// twin A yields an execution identical to the A-first one up to the
// canonical thread renaming, under the symmetry contract (DESIGN.md §5c):
// same-closure threads are treated symmetrically by the rest of the
// program (batch spawn, batch join, no effects between the joins).
func (s *System) reduceCandidates(cands []int, fresh bool) []int {
	if s.cfg.Reduce.Spinloop {
		live := 0
		for _, tid := range cands {
			if !s.spinBlocked(s.threads[tid]) {
				live++
			}
		}
		if live > 0 && live < len(cands) {
			if fresh {
				s.redSpinBounds += len(cands) - live
			}
			out := cands[:0]
			for _, tid := range cands {
				if !s.spinBlocked(s.threads[tid]) {
					out = append(out, tid)
				}
			}
			cands = out
		}
	}
	if s.cfg.Reduce.Symmetry && len(s.symClasses) > 0 && len(s.symClasses) <= 64 {
		var seen uint64
		out := cands[:0]
		for _, tid := range cands {
			t := s.threads[tid]
			if t.tseq == 0 && s.symTwin(t) {
				if seen&(1<<uint(t.classIdx)) != 0 {
					if fresh {
						s.redSymPrunes++
					}
					continue
				}
				seen |= 1 << uint(t.classIdx)
			}
			out = append(out, tid)
		}
		cands = out
	}
	return cands
}

// spinBlocked reports whether scheduling yielded thread t is provably
// futile: its completed iteration was pure and none of the locations it
// read has a newer store, so re-running it re-derives the identical
// iteration and re-yields. The check is a deterministic function of the
// state (recentReads is frozen while the thread is parked), so replays
// and checkpoint resumes see identical candidate sets.
func (s *System) spinBlocked(t *Thread) bool {
	if !s.cfg.Reduce.Spinloop || t.state != tsYield || !t.spinIterPure || len(t.recentReads) == 0 {
		return false
	}
	for _, r := range t.recentReads {
		if r.loc.lastStoreIdx() != r.rfMO {
			return false
		}
	}
	return true
}
