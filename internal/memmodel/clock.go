package memmodel

// inlineClockSize is the number of thread slots a ClockVector stores
// inline, without a heap-allocated backing array. Paper benchmarks run
// 2-5 simulated threads, so virtually every clock in an exploration fits;
// clocks only spill to the heap past this size.
const inlineClockSize = 8

// ClockVector is a vector clock indexed by thread id. Entry t holds the
// per-thread sequence number (TSeq) of the latest action of thread t that
// happens-before the point the clock describes (0 = none).
//
// Vector clocks implement happens-before exactly for the fragment the
// checker explores: hb is the transitive closure of sequenced-before and
// synchronizes-with edges, both of which the checker applies by merging
// clocks at the moment the edge is created.
//
// Storage discipline: clocks up to inlineClockSize entries live in the
// struct itself (c aliases inline); larger clocks use a heap slice. A
// clock owns its storage: snapshots are copies (Clone, or CopyFrom into
// a recycled clock), never aliases.
type ClockVector struct {
	c      []uint32
	inline [inlineClockSize]uint32
}

// NewClockVector returns an empty clock (all zeros).
func NewClockVector() *ClockVector { return &ClockVector{} }

// Get returns the clock entry for thread tid.
func (v *ClockVector) Get(tid int) uint32 {
	if tid < 0 || tid >= len(v.c) {
		return 0
	}
	return v.c[tid]
}

// Set raises the entry for thread tid to seq. It never lowers an entry.
func (v *ClockVector) Set(tid int, seq uint32) {
	if tid < len(v.c) && v.c[tid] >= seq {
		return
	}
	v.grow(tid + 1)
	if seq > v.c[tid] {
		v.c[tid] = seq
	}
}

// Merge raises every entry of v to at least the corresponding entry of o
// and reports whether any entry changed, so callers can invalidate
// epoch-keyed caches precisely. A nil o is a no-op, and a merge that
// changes nothing leaves v's length alone.
func (v *ClockVector) Merge(o *ClockVector) bool {
	if o == nil {
		return false
	}
	changed := false
	for i, s := range o.c {
		if s > v.Get(i) {
			if !changed {
				v.grow(len(o.c))
				changed = true
			}
			v.c[i] = s
		}
	}
	return changed
}

// Clone returns an independent deep copy of v.
func (v *ClockVector) Clone() *ClockVector {
	n := &ClockVector{}
	n.CopyFrom(v)
	return n
}

// CopyFrom overwrites v with o's value, reusing v's storage when it has
// the capacity. The execution pool uses it to snapshot clocks into
// recycled ClockVectors without allocating.
func (v *ClockVector) CopyFrom(o *ClockVector) {
	n := len(o.c)
	switch {
	case cap(v.c) >= n:
		v.c = v.c[:n]
	case n <= inlineClockSize:
		v.c = v.inline[:n]
	default:
		v.c = make([]uint32, n)
	}
	copy(v.c, o.c)
}

// Reset empties the clock (all zeros, length 0), retaining capacity for
// reuse.
func (v *ClockVector) Reset() {
	for i := range v.c {
		v.c[i] = 0
	}
	v.c = v.c[:0]
}

// Contains reports whether the action identified by (tid, seq)
// happens-before (or is) the point described by v.
func (v *ClockVector) Contains(tid int, seq uint32) bool {
	return v.Get(tid) >= seq
}

// DominatedBy reports whether every entry of v is <= the corresponding
// entry of o (v ⊑ o). It is the component-wise partial order on clocks.
func (v *ClockVector) DominatedBy(o *ClockVector) bool {
	for i, s := range v.c {
		if s == 0 {
			continue
		}
		if o == nil || o.Get(i) < s {
			return false
		}
	}
	return true
}

// Len returns the number of thread slots the clock currently tracks.
func (v *ClockVector) Len() int { return len(v.c) }

// grow extends the clock to at least n entries in a single step: within
// existing capacity it zeroes the extension (recycled storage may hold
// stale values), otherwise it allocates once with doubling growth.
func (v *ClockVector) grow(n int) {
	if n <= len(v.c) {
		return
	}
	if cap(v.c) >= n {
		old := len(v.c)
		v.c = v.c[:n]
		for i := old; i < n; i++ {
			v.c[i] = 0
		}
		return
	}
	if n <= inlineClockSize && v.c == nil {
		v.c = v.inline[:n]
		return
	}
	newCap := 2 * cap(v.c)
	if newCap < n {
		newCap = n
	}
	nc := make([]uint32, n, newCap)
	copy(nc, v.c)
	v.c = nc
}
