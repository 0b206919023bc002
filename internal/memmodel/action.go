package memmodel

import "fmt"

// Kind classifies an action in an execution trace.
type Kind uint8

const (
	// KindAtomicLoad is an atomic load.
	KindAtomicLoad Kind = iota
	// KindAtomicStore is an atomic store.
	KindAtomicStore
	// KindAtomicRMW is a successful read-modify-write (CAS success,
	// exchange, fetch_add, ...). A failed CAS is recorded as
	// KindAtomicLoad.
	KindAtomicRMW
	// KindFence is a stand-alone memory fence.
	KindFence
	// KindPlainLoad is a non-atomic load (subject to race detection).
	KindPlainLoad
	// KindPlainStore is a non-atomic store (subject to race detection).
	KindPlainStore
	// KindLock is a mutex acquisition.
	KindLock
	// KindUnlock is a mutex release.
	KindUnlock
	// KindThreadCreate is the creation of a child thread.
	KindThreadCreate
	// KindThreadStart is the first action of a thread.
	KindThreadStart
	// KindThreadJoin is a join with a finished thread.
	KindThreadJoin
	// KindThreadFinish is the last action of a thread.
	KindThreadFinish
	// KindYield marks a voluntary yield in a spin loop.
	KindYield
)

// String returns a short name for the kind.
func (k Kind) String() string {
	switch k {
	case KindAtomicLoad:
		return "atomic-load"
	case KindAtomicStore:
		return "atomic-store"
	case KindAtomicRMW:
		return "atomic-rmw"
	case KindFence:
		return "fence"
	case KindPlainLoad:
		return "plain-load"
	case KindPlainStore:
		return "plain-store"
	case KindLock:
		return "lock"
	case KindUnlock:
		return "unlock"
	case KindThreadCreate:
		return "thread-create"
	case KindThreadStart:
		return "thread-start"
	case KindThreadJoin:
		return "thread-join"
	case KindThreadFinish:
		return "thread-finish"
	case KindYield:
		return "yield"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// IsWrite reports whether the action writes memory.
func (k Kind) IsWrite() bool {
	return k == KindAtomicStore || k == KindAtomicRMW || k == KindPlainStore
}

// IsRead reports whether the action reads memory.
func (k Kind) IsRead() bool {
	return k == KindAtomicLoad || k == KindAtomicRMW || k == KindPlainLoad
}

// IsAtomic reports whether the action is an atomic memory access.
func (k Kind) IsAtomic() bool {
	return k == KindAtomicLoad || k == KindAtomicStore || k == KindAtomicRMW
}

// Value is the word type stored in simulated memory locations. Pointers
// are modeled as opaque handles packed into a Value.
type Value = uint64

// Action is one event in an execution trace.
type Action struct {
	// ID is the global index of the action in the execution trace.
	ID int
	// Thread is the id of the thread that performed the action.
	Thread int
	// TSeq is the 1-based per-thread sequence number.
	TSeq uint32
	// Kind classifies the action.
	Kind Kind
	// Site is the memory-order site that issued the action's order: its
	// index in the structure's SiteList, or 0, the anonymous site, for a
	// bare order (litmus tests, init stores, CAS failure orders) and for
	// every non-atomic, lock and thread action.
	Site SiteID
	// Order is the plain memory order for atomic actions and fences.
	Order MemOrder
	// LocID identifies the memory location (-1 for fences/thread ops).
	LocID int
	// LocName is the debug name of the location.
	LocName string
	// Value is the value written (stores/RMWs) or read (loads).
	Value Value
	// RF is the store the action read from (loads and RMWs).
	RF *Action
	// MOIndex is the index of this store in its location's modification
	// order (stores and RMWs only).
	MOIndex int
	// SCIndex is the position in the seq_cst total order S, or -1.
	SCIndex int
	// Clock is the happens-before clock at this action, inclusive of the
	// action itself and of any synchronization the action performed.
	Clock *ClockVector
}

// HappensBefore reports whether a happens-before b. It relies on b.Clock
// including everything that happens-before b.
func (a *Action) HappensBefore(b *Action) bool {
	if a == b {
		return false
	}
	return b.Clock.Contains(a.Thread, a.TSeq)
}

// SCBefore reports whether a precedes b in the seq_cst total order
// (both must be seq_cst actions).
func (a *Action) SCBefore(b *Action) bool {
	return a.SCIndex >= 0 && b.SCIndex >= 0 && a.SCIndex < b.SCIndex
}

// String renders the action for diagnostics.
func (a *Action) String() string {
	switch {
	case a.Kind.IsAtomic() || a.Kind == KindPlainLoad || a.Kind == KindPlainStore:
		s := fmt.Sprintf("#%d T%d %s %s(%s)=%d", a.ID, a.Thread, a.Kind, a.LocName, a.Order, a.Value)
		if a.RF != nil {
			s += fmt.Sprintf(" rf=#%d", a.RF.ID)
		}
		return s
	case a.Kind == KindFence:
		return fmt.Sprintf("#%d T%d fence(%s)", a.ID, a.Thread, a.Order)
	default:
		return fmt.Sprintf("#%d T%d %s", a.ID, a.Thread, a.Kind)
	}
}
