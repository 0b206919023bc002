package checker

// pendSig describes the visible operation a parked thread is about to
// perform — enough to decide dependency for the sleep-set reduction.
type pendSig struct {
	// class partitions operations for the dependency check.
	class sigClass
	// loc is the location id (memory ops) or mutex id (lock ops), -1
	// otherwise.
	loc int
	// write reports whether the op may write the location (store/RMW).
	write bool
	// sc reports whether the op participates in the seq_cst order.
	sc bool
}

type sigClass uint8

const (
	sigNone  sigClass = iota // join, thread start: op unknown or opaque
	sigMem                   // atomic load/store/RMW
	sigMutex                 // lock/trylock/unlock
	sigFence                 // stand-alone fence
	sigYield
)

// dependent reports whether the sleeping thread's pending operation a
// may not commute with the just-executed operation b: exploring both
// orders is then necessary, so the sleeper must be woken. wake is the
// only caller, always as dependent(sleeper, executed).
//
// The relation is deliberately conservative where starvation is at
// stake (dependence where unsure): a thread parked at its start point
// or at a join has an unknown next visible operation (sigNone) and is
// treated as dependent with everything, and a thread parked at a fence
// is woken by every other fence and every seq_cst memory operation.
// Those are the operations a fence can observe across threads: SC
// memory operations and SC fences move the seq_cst total order and the
// per-location visibility floors derived from it, and fence/fence
// pairs are kept dependent defensively. A fence-pending sleeper is
// therefore re-interleaved with them rather than starved — the old
// relation left fences independent of everything except an sc×sc
// pair, so such a sleeper could sleep through the entire subtree.
//
// Two directions are deliberately kept precise, because a fence's
// remaining effects (release-fence store tagging, acquire-fence load
// upgrades) are local to its own thread and reach other threads only
// through that thread's surrounding stores and loads, which mem×mem
// dependence already re-interleaves: a fence-pending sleeper is not
// woken by non-SC memory operations, and an executed fence does not
// wake a memory-pending sleeper. Widening either direction is sound
// but defeats the reduction on fence-heavy structures (the Chase-Lev
// unit test explores >70× more executions with fences fully dependent
// and >20× with the sleeper direction alone; the relation below costs
// ~2.5×).
func dependent(a, b pendSig) bool {
	if a.class == sigNone || b.class == sigNone {
		return true
	}
	// Two seq_cst operations never commute: their positions in the
	// total order S are observable (IRIW-style).
	if a.sc && b.sc {
		return true
	}
	switch {
	case a.class == sigMem && b.class == sigMem:
		return a.loc == b.loc && (a.write || b.write)
	case a.class == sigMutex && b.class == sigMutex:
		return a.loc == b.loc
	case a.class == sigFence:
		return b.class == sigFence || (b.class == sigMem && b.sc)
	}
	return false
}

// sleepSet tracks threads that are asleep in the current subtree: their
// next operation was already explored in an earlier sibling, and running
// them now would reproduce an equivalent interleaving. A sleeping thread
// wakes when a dependent operation executes.
//
// The set is a slice of (thread id, pending-op signature) pairs: it holds
// at most one entry per thread (maxThreads), and every visible operation
// calls wake, so an empty set must cost a length check, not a map
// iteration. The zero value is an empty set.
type sleepSet []sleeper

type sleeper struct {
	tid int
	sig pendSig
}

// clear empties the set in place, so a pooled execution reuses its
// backing array.
func (s *sleepSet) clear() { *s = (*s)[:0] }

func (s *sleepSet) sleep(tid int, sig pendSig) {
	for i := range *s {
		if (*s)[i].tid == tid {
			(*s)[i].sig = sig
			return
		}
	}
	*s = append(*s, sleeper{tid, sig})
}

func (s *sleepSet) asleep(tid int) bool {
	for _, e := range *s {
		if e.tid == tid {
			return true
		}
	}
	return false
}

// wake removes every sleeper whose pending operation is dependent with
// the operation that just executed.
func (s *sleepSet) wake(executed pendSig) {
	kept := (*s)[:0]
	for _, e := range *s {
		if !dependent(e.sig, executed) {
			kept = append(kept, e)
		}
	}
	*s = kept
}
