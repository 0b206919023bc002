package checker

import (
	"math/rand"
	"testing"

	"repro/internal/memmodel"
)

// refVisibleFloor is the full-window floor computation visibleFloorScan
// replaced: the maximum over every covered store, every covered load
// record and every SC floor before scIdx, each found by a pass over the
// whole slice. TestVisibleFloorMatchesFullScan holds the newest-covered
// stop and the running SC maximum to it.
func refVisibleFloor(t *Thread, loc *location, scIdx int) (floor int, published bool) {
	floor = loc.moBase
	published = loc.moBase > 0
	for i, st := range loc.stores {
		if t.clock.Contains(st.act.Thread, st.act.TSeq) {
			published = true
			if mo := loc.moBase + i; mo > floor {
				floor = mo
			}
		}
	}
	if loc.maxLoadRF > floor {
		for _, lr := range loc.loads {
			if lr.rfMO > floor && t.clock.Contains(lr.tid, lr.tseq) {
				floor = lr.rfMO
			}
		}
	}
	if scIdx >= 0 {
		for _, f := range loc.scFloors {
			if f.scIdx < scIdx && f.moIdx > floor {
				floor = f.moIdx
			}
		}
	}
	return floor, published
}

// TestVisibleFloorMatchesFullScan: on random fast-mode location states,
// visibleFloorScan returns the reference's (floor, published) for random
// reader clocks at SC positions -1, a fence's index and the SC count.
// Each state comes from up to five threads storing (some seq_cst),
// loading and issuing SC fences in random order, through the kernel's own
// addSCFloor, addLoad and maybeEvict; store windows of 2 to 12 evict
// often, so moBase > 0 and SC floors are filtered. A fence adds its
// thread's last store, often older than the SC floors before it, which is
// what the running maximum is for.
func TestVisibleFloorMatchesFullScan(t *testing.T) {
	const threads = 5
	rng := rand.New(rand.NewSource(1))
	cases, evicted, unordered := 0, 0, 0
	for state := 0; state < 2000; state++ {
		s := &System{cfg: &Config{FastMode: true, storeBound: 2 + rng.Intn(11)}}
		loc := &location{atomic: true, maxLoadRF: -1}
		nThreads := 1 + rng.Intn(threads)
		ts := make([]*Thread, nThreads)
		for i := range ts {
			ts[i] = &Thread{id: i}
		}
		scCount := 0
		var fences []int
		for op := rng.Intn(60); op > 0; op-- {
			th := ts[rng.Intn(nThreads)]
			th.tseq++
			switch k := rng.Intn(10); {
			case k < 5: // store, seq_cst one time in three
				mo := loc.moNext()
				loc.stores = append(loc.stores, storeRec{act: &memmodel.Action{Thread: th.id, TSeq: th.tseq}})
				loc.setLastStoreByThread(th.id, mo)
				if rng.Intn(3) == 0 {
					loc.addSCFloor(scCount, mo)
					scCount++
				}
				s.maybeEvict(loc)
			case k < 8: // load of a random retained store
				if len(loc.stores) > 0 {
					s.addLoad(th, loc, loc.moBase+rng.Intn(len(loc.stores)))
				}
			default: // SC fence
				if mo := loc.lastStoreByThread(th.id); mo >= 0 {
					loc.addSCFloor(scCount, mo)
				}
				fences = append(fences, scCount)
				scCount++
			}
		}
		if loc.moBase > 0 {
			evicted++
		}
		for i := 1; i < len(loc.scFloors); i++ {
			if loc.scFloors[i].moIdx < loc.scFloors[i-1].moIdx {
				unordered++
				break
			}
		}
		for reader := 0; reader < 3; reader++ {
			clock := memmodel.NewClockVector()
			for _, th := range ts {
				clock.Set(th.id, uint32(rng.Intn(int(th.tseq)+2)))
			}
			rt := &Thread{clock: clock}
			scIdxs := []int{-1, scCount}
			if len(fences) > 0 {
				scIdxs = append(scIdxs, fences[rng.Intn(len(fences))])
			}
			for _, scIdx := range scIdxs {
				cases++
				gotF, gotP := s.visibleFloorScan(rt, loc, scIdx)
				wantF, wantP := refVisibleFloor(rt, loc, scIdx)
				if gotF != wantF || gotP != wantP {
					t.Fatalf("state %d, reader clock %v, scIdx %d: got (%d, %v), want (%d, %v)\nstores from mo %d: %d, scFloors %+v",
						state, clock, scIdx, gotF, gotP, wantF, wantP, loc.moBase, len(loc.stores), loc.scFloors)
				}
			}
		}
	}
	if cases < 10000 || evicted < 500 || unordered < 200 {
		t.Fatalf("%d cases, %d states with evictions, %d with an SC floor older than the one before it: want at least 10000, 500 and 200",
			cases, evicted, unordered)
	}
	t.Logf("%d cases, %d states with evictions, %d with an SC floor older than the one before it", cases, evicted, unordered)
}
