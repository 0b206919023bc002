// Package memmodel defines the vocabulary of the C/C++11 memory model as
// used by the checker: memory orders, action kinds, actions, and vector
// clocks for the happens-before relation.
//
// The package is purely descriptive — the operational semantics (visible
// stores, coherence, release sequences, fences, the seq_cst order) live in
// internal/checker, which manipulates these values while exploring
// executions.
package memmodel

import "fmt"

// MemOrder is a C/C++11 memory order (std::memory_order). The value a
// structure reads from its order table (OrderTable.Order) also carries
// the site it came from, in the byte above the order; Split takes the
// two apart. The constants below carry the anonymous site 0: a bare
// order is a plain order. The predicates read the order alone, but ==
// compares the site too, so compare plain orders.
type MemOrder uint16

// orderMask selects the plain order; the byte above it holds a SiteID.
const (
	orderMask MemOrder = 0xff
	siteShift          = 8
)

const (
	// Relaxed is memory_order_relaxed: atomicity only, no ordering.
	Relaxed MemOrder = iota
	// Consume is memory_order_consume. The checker promotes it to
	// Acquire, which is what every production compiler does.
	Consume
	// Acquire is memory_order_acquire.
	Acquire
	// Release is memory_order_release.
	Release
	// AcqRel is memory_order_acq_rel.
	AcqRel
	// SeqCst is memory_order_seq_cst.
	SeqCst
)

// tagged returns o, which must be plain, carrying site id.
func (o MemOrder) tagged(id SiteID) MemOrder { return o | MemOrder(id)<<siteShift }

// Split returns the plain order and the site o came from (0 for a bare
// order).
func (o MemOrder) Split() (MemOrder, SiteID) { return o & orderMask, SiteID(o >> siteShift) }

// String returns the C++11 spelling of the order, followed by "@" and
// the site index when o carries a site.
func (o MemOrder) String() string {
	if plain, id := o.Split(); id != 0 {
		return fmt.Sprintf("%s@%d", plain, id)
	}
	switch o {
	case Relaxed:
		return "relaxed"
	case Consume:
		return "consume"
	case Acquire:
		return "acquire"
	case Release:
		return "release"
	case AcqRel:
		return "acq_rel"
	case SeqCst:
		return "seq_cst"
	default:
		return fmt.Sprintf("MemOrder(%d)", uint16(o))
	}
}

// IsAcquire reports whether a load (or the load half of an RMW, or a
// fence) with this order performs acquire synchronization.
func (o MemOrder) IsAcquire() bool {
	switch o & orderMask {
	case Acquire, Consume, AcqRel, SeqCst:
		return true
	}
	return false
}

// IsRelease reports whether a store (or the store half of an RMW, or a
// fence) with this order performs release synchronization.
func (o MemOrder) IsRelease() bool {
	switch o & orderMask {
	case Release, AcqRel, SeqCst:
		return true
	}
	return false
}

// IsSeqCst reports whether the order participates in the single total
// order S of seq_cst operations.
func (o MemOrder) IsSeqCst() bool { return o&orderMask == SeqCst }

// OpClass describes what an atomic operation does to memory, for the
// purpose of computing the next-weaker memory order during bug injection.
type OpClass uint8

const (
	// OpLoad is an atomic load.
	OpLoad OpClass = iota
	// OpStore is an atomic store.
	OpStore
	// OpRMW is a read-modify-write (CAS, exchange, fetch_add, ...).
	OpRMW
	// OpFence is a stand-alone fence.
	OpFence
)

// String returns a short name for the class.
func (c OpClass) String() string {
	switch c {
	case OpLoad:
		return "load"
	case OpStore:
		return "store"
	case OpRMW:
		return "rmw"
	case OpFence:
		return "fence"
	default:
		return fmt.Sprintf("OpClass(%d)", uint8(c))
	}
}

// Weaken returns the next-weaker memory order for an operation of class c,
// following the injection ladder of the paper (§6.4.2): seq_cst → acq_rel,
// acq_rel → release/acquire, and acquire/release → relaxed. The second
// result is false when the order is already the weakest meaningful order
// for the class (no further weakening possible).
//
// Loads skip orders that are meaningless for them (a load cannot be
// release), and symmetrically for stores. o must be plain.
func Weaken(c OpClass, o MemOrder) (MemOrder, bool) {
	switch c {
	case OpLoad:
		switch o {
		case SeqCst:
			return Acquire, true
		case AcqRel, Acquire, Consume:
			return Relaxed, true
		}
	case OpStore:
		switch o {
		case SeqCst:
			return Release, true
		case AcqRel, Release:
			return Relaxed, true
		}
	case OpRMW:
		switch o {
		case SeqCst:
			return AcqRel, true
		case AcqRel:
			return Release, true
		case Release, Acquire, Consume:
			return Relaxed, true
		}
	case OpFence:
		switch o {
		case SeqCst:
			return AcqRel, true
		case AcqRel:
			return Release, true
		case Release, Acquire:
			return Relaxed, true
		}
	}
	return o, false
}

// WeakenLadder returns the full sequence of successively weaker orders for
// an operation of class c starting from (and excluding) o.
func WeakenLadder(c OpClass, o MemOrder) []MemOrder {
	var ladder []MemOrder
	cur := o
	for {
		next, ok := Weaken(c, cur)
		if !ok {
			return ladder
		}
		ladder = append(ladder, next)
		cur = next
	}
}
