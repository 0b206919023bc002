package core

import (
	"testing"

	"repro/internal/checker"
	"repro/internal/memmodel"
)

// pinRecord records a fixed call record in one deterministic execution:
// aux keys set out of order with one key overwritten, a nested call,
// ordering points and a pending potential, and calls on two threads.
// open is the monitor's reduction fingerprint while thread 1's call is
// still open (nonzero nesting depth, call not ended), and openRebuilt
// the same fingerprint computed without the per-call cache.
func pinRecord(t *testing.T) (m *Monitor, open, openRebuilt [2]uint64) {
	t.Helper()
	cfg := checker.Config{
		MaxExecutions: 1,
		OnRunStart:    func(sys *checker.System) { Install(sys, trivialSpec()) },
		OnExecution: func(sys *checker.System) []*checker.Failure {
			m = FromSys(sys)
			return nil
		},
	}
	res := checker.Explore(cfg, func(root *checker.Thread) {
		mon := Of(root)
		x := root.NewAtomicInit("x", 0)
		c := mon.Begin(root, "m", 5)
		x.Store(root, memmodel.Release, 1)
		c.OPDefine(root, true)
		c.SetAux("pos", 1)
		c.SetAux("a", 2)
		c.SetAux("pos", 3)
		in := mon.Begin(root, "n") // nested: inert
		in.SetAux("ignored", 9)
		in.End(root, 0)
		c.End(root, 7)
		w := root.Spawn("w", func(tt *checker.Thread) {
			d := mon.Begin(tt, "n", 1, 2)
			v := x.Load(tt, memmodel.Acquire)
			d.OPDefine(tt, true)
			d.PotentialOP(tt, "p", true)
			d.SetAux("z", 4)
			open[0], open[1] = mon.ReduceFingerprint()
			openRebuilt[0], openRebuilt[1] = reduceFingerprintRebuild(mon)
			d.End(tt, v)
		})
		root.Join(w)
	})
	if res.Feasible != 1 || m == nil {
		t.Fatalf("pin program did not record: %v", res)
	}
	return m, open, openRebuilt
}

// TestFingerprintPins: the spec-check fingerprint and the reduction
// fingerprint of a fixed call record are pinned values. Fuzz triage
// buckets and spec-cache keys hash these bytes, so a change to how calls
// are stored must not move them. The reduction fingerprint is never
// persisted (checkpoints do not carry the seen-set), so its pins move
// only with its hash construction; both must equal the rebuild.
func TestFingerprintPins(t *testing.T) {
	m, open, openRebuilt := pinRecord(t)
	calls := m.Calls()
	if len(calls) != 2 {
		t.Fatalf("recorded %d calls, want 2 (the nested call is inert)", len(calls))
	}
	if got, want := m.Fingerprint(), uint64(0x338ed1cb16b70bfb); got != want {
		t.Errorf("Fingerprint() = %#x, want %#x", got, want)
	}
	var closed, closedRebuilt [2]uint64
	closed[0], closed[1] = m.ReduceFingerprint()
	closedRebuilt[0], closedRebuilt[1] = reduceFingerprintRebuild(m)
	if want := [2]uint64{0xa1acff03d1ce5778, 0x1ba659b48b5bb01f}; closed != want {
		t.Errorf("ReduceFingerprint() = %#x, want %#x", closed, want)
	}
	if want := [2]uint64{0xeafd38c4dfff622, 0x9e6d7fa1a42199e7}; open != want {
		t.Errorf("ReduceFingerprint() with a call open = %#x, want %#x", open, want)
	}
	if closed != closedRebuilt || open != openRebuilt {
		t.Errorf("ReduceFingerprint() = %#x and %#x with a call open; rebuilt %#x and %#x",
			closed, open, closedRebuilt, openRebuilt)
	}
	for tid, want := range []uint64{8, 5, 0} {
		if got := m.ReduceThreadMuts(tid); got != want {
			t.Errorf("ReduceThreadMuts(%d) = %d, want %d", tid, got, want)
		}
	}
	c := calls[0]
	for key, want := range map[string]memmodel.Value{"pos": 3, "a": 2, "absent": 0, "ignored": 0} {
		if got := c.GetAux(key); got != want {
			t.Errorf("GetAux(%q) = %d, want %d", key, got, want)
		}
	}
}
