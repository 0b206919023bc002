package memmodel

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestClockSetGet(t *testing.T) {
	v := NewClockVector()
	if v.Get(3) != 0 {
		t.Error("fresh clock should be zero everywhere")
	}
	v.Set(3, 7)
	if v.Get(3) != 7 {
		t.Errorf("Get(3) = %d, want 7", v.Get(3))
	}
	v.Set(3, 5) // never lowers
	if v.Get(3) != 7 {
		t.Errorf("Set must not lower: got %d", v.Get(3))
	}
	if v.Get(100) != 0 {
		t.Error("out-of-range Get should be zero")
	}
}

func TestClockMerge(t *testing.T) {
	a := NewClockVector()
	a.Set(0, 5)
	a.Set(2, 1)
	b := NewClockVector()
	b.Set(0, 3)
	b.Set(1, 9)
	a.Merge(b)
	for i, want := range []uint32{5, 9, 1} {
		if a.Get(i) != want {
			t.Errorf("merged[%d] = %d, want %d", i, a.Get(i), want)
		}
	}
	a.Merge(nil) // nil merge is a no-op
	if a.Get(0) != 5 {
		t.Error("nil merge changed the clock")
	}
}

func TestClockCloneIndependence(t *testing.T) {
	a := NewClockVector()
	a.Set(1, 4)
	c := a.Clone()
	c.Set(1, 10)
	if a.Get(1) != 4 {
		t.Error("Clone is not independent")
	}
}

func TestClockContains(t *testing.T) {
	a := NewClockVector()
	a.Set(2, 6)
	if !a.Contains(2, 6) || !a.Contains(2, 1) {
		t.Error("Contains should accept seq <= entry")
	}
	if a.Contains(2, 7) || a.Contains(0, 1) {
		t.Error("Contains accepted future action")
	}
}

func TestClockDominatedBy(t *testing.T) {
	a := NewClockVector()
	a.Set(0, 2)
	b := NewClockVector()
	b.Set(0, 3)
	b.Set(1, 1)
	if !a.DominatedBy(b) {
		t.Error("a should be dominated by b")
	}
	if b.DominatedBy(a) {
		t.Error("b should not be dominated by a")
	}
	if !NewClockVector().DominatedBy(nil) {
		t.Error("empty clock is dominated by nil")
	}
}

// clockFromSlice builds a clock from raw entries for property tests.
func clockFromSlice(s []uint32) *ClockVector {
	v := NewClockVector()
	for i, x := range s {
		v.Set(i, x)
	}
	return v
}

// TestClockMergeIsJoin (property): merge computes the least upper bound —
// it dominates both inputs and is dominated by any other upper bound —
// and reports a change exactly when b was not already below a, leaving a
// clock it does not change untouched.
func TestClockMergeIsJoin(t *testing.T) {
	f := func(xs, ys []uint32) bool {
		if len(xs) > 8 {
			xs = xs[:8]
		}
		if len(ys) > 8 {
			ys = ys[:8]
		}
		a := clockFromSlice(xs)
		b := clockFromSlice(ys)
		m := a.Clone()
		changed := m.Merge(b)
		if !a.DominatedBy(m) || !b.DominatedBy(m) {
			return false
		}
		if changed == b.DominatedBy(a) || (!changed && m.Len() != a.Len()) {
			return false
		}
		n := max(len(xs), len(ys))
		for i := 0; i < n; i++ {
			if m.Get(i) != max(a.Get(i), b.Get(i)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestClockMergeCommutative (property).
func TestClockMergeCommutative(t *testing.T) {
	f := func(xs, ys []uint32) bool {
		a1 := clockFromSlice(xs)
		a1.Merge(clockFromSlice(ys))
		a2 := clockFromSlice(ys)
		a2.Merge(clockFromSlice(xs))
		return a1.DominatedBy(a2) && a2.DominatedBy(a1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestClockMergeIdempotent (property).
func TestClockMergeIdempotent(t *testing.T) {
	f := func(xs []uint32) bool {
		a := clockFromSlice(xs)
		b := a.Clone()
		a.Merge(a)
		return a.DominatedBy(b) && b.DominatedBy(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestActionHappensBefore(t *testing.T) {
	w := &Action{Thread: 1, TSeq: 3}
	rClock := NewClockVector()
	rClock.Set(1, 3)
	rClock.Set(2, 5)
	r := &Action{Thread: 2, TSeq: 5, Clock: rClock}
	if !w.HappensBefore(r) {
		t.Error("w should happen before r")
	}
	w2 := &Action{Thread: 1, TSeq: 4}
	if w2.HappensBefore(r) {
		t.Error("w2 should not happen before r")
	}
	if r.HappensBefore(r) {
		t.Error("hb is irreflexive")
	}
}

func TestActionSCBefore(t *testing.T) {
	a := &Action{SCIndex: 2}
	b := &Action{SCIndex: 5}
	c := &Action{SCIndex: -1}
	if !a.SCBefore(b) || b.SCBefore(a) {
		t.Error("SCBefore ordering wrong")
	}
	if a.SCBefore(c) || c.SCBefore(a) {
		t.Error("non-SC action must not be SC-ordered")
	}
}

func TestClockGrowZeroesRecycledCapacity(t *testing.T) {
	v := NewClockVector()
	for i := 0; i < 2*inlineClockSize; i++ {
		v.Set(i, uint32(i+1))
	}
	v.Reset()
	if v.Len() != 0 {
		t.Fatalf("Reset left Len=%d", v.Len())
	}
	v.Set(2*inlineClockSize-1, 1) // regrow into retained capacity
	for i := 0; i < 2*inlineClockSize-1; i++ {
		if v.Get(i) != 0 {
			t.Fatalf("stale value survived Reset+grow at %d: %d", i, v.Get(i))
		}
	}
}

func TestClockCopyFromReusesStorage(t *testing.T) {
	src := NewClockVector()
	src.Set(1, 4)
	src.Set(5, 2)
	dst := NewClockVector()
	dst.Set(2, 99)
	dst.CopyFrom(src)
	if !dst.DominatedBy(src) || !src.DominatedBy(dst) {
		t.Error("CopyFrom did not produce an equal clock")
	}
	if dst.Get(2) != 0 {
		t.Errorf("CopyFrom left stale entry: %d", dst.Get(2))
	}
	dst.Set(0, 50)
	if src.Get(0) != 0 {
		t.Error("CopyFrom aliased the source")
	}
	allocs := testing.AllocsPerRun(100, func() {
		dst.CopyFrom(src)
	})
	if allocs != 0 {
		t.Errorf("CopyFrom into sized storage allocated %.0f times", allocs)
	}
}

func TestClockInlineOpsDoNotAllocate(t *testing.T) {
	a := NewClockVector()
	a.Set(3, 5)
	b := NewClockVector()
	b.Set(inlineClockSize-1, 2)
	allocs := testing.AllocsPerRun(100, func() {
		a.Merge(b)
		a.Set(0, a.Get(0)+1)
	})
	if allocs != 0 {
		t.Errorf("inline Merge/Set allocated %.0f times per run", allocs)
	}
}

// BenchmarkClockGrow measures extending a fresh clock to n entries — the
// satellite fix replacing one-append-per-entry growth with a single
// make+copy.
func BenchmarkClockGrow(b *testing.B) {
	for _, n := range []int{8, 64, 512} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				v := NewClockVector()
				v.Set(n-1, 1)
			}
		})
	}
}

func BenchmarkClockMerge(b *testing.B) {
	a := NewClockVector()
	o := NewClockVector()
	for i := 0; i < 4; i++ {
		a.Set(i, uint32(2*i))
		o.Set(i, uint32(2*i+1))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.Merge(o)
	}
}

func BenchmarkClockSnapshot(b *testing.B) {
	big := NewClockVector()
	for i := 0; i < 4*inlineClockSize; i++ {
		big.Set(i, uint32(i+1))
	}
	b.Run("clone-heap", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = big.Clone()
		}
	})
}
