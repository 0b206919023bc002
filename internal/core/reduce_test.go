package core

import (
	"math/rand/v2"
	"testing"

	"repro/internal/checker"
	"repro/internal/memmodel"
)

// reduceFingerprintRebuild is ReduceFingerprint computed from scratch,
// the reference for the per-call cache: every call's entry is rehashed
// from its fields, and no Call.fp is read or written.
func reduceFingerprintRebuild(m *Monitor) (uint64, uint64) {
	var sa, sb uint64
	for _, c := range m.calls {
		var p reducePair
		p.push(uint64(c.ID))
		p.push(uint64(c.Thread))
		p.pushString(c.Name)
		p.push(uint64(len(c.Args)))
		for _, a := range c.Args {
			p.push(uint64(a))
		}
		p.push(reduceBool(c.HasRet))
		p.push(uint64(c.Ret))
		p.push(reduceBool(c.ended))
		p.push(uint64(len(c.OPs)))
		for _, a := range c.OPs {
			p.push(uint64(a.Thread))
			p.push(uint64(a.TSeq))
		}
		p.push(uint64(len(c.potentials)))
		for _, pot := range c.potentials {
			p.pushString(pot.label)
			p.push(uint64(pot.act.Thread))
			p.push(uint64(pot.act.TSeq))
		}
		p.push(uint64(len(c.aux)))
		for _, a := range c.aux {
			p.pushString(a.key)
			p.push(uint64(a.v))
		}
		sa += p.a
		sb += p.b
	}
	var da, db uint64
	for tid, d := range m.depth {
		if d == 0 {
			continue
		}
		var e reducePair
		e.push(uint64(tid))
		e.push(uint64(d))
		da += e.a
		db += e.b
	}
	var p reducePair
	p.push(uint64(len(m.calls)))
	p.push(sa)
	p.push(sb)
	p.push(da)
	p.push(db)
	return p.a, p.b
}

// TestReduceFingerprintCacheMatchesRebuild applies seeded random monitor
// mutations from three threads — Begin (nested ones included), End,
// EndVoid, SetAux, OPDefine, OPClear, OPClearDefine, PotentialOP,
// OPCheck, and a direct Call.SetAux on any recorded call — and after
// each one compares ReduceFingerprint with the rebuild. Every mutation
// but the first lands on entries the previous comparison cached, and
// each exploration records many executions into one reused monitor, so
// stale entries on recycled Call records would show too.
func TestReduceFingerprintCacheMatchesRebuild(t *testing.T) {
	checks := 0
	for seed := range uint64(20) {
		var m *Monitor
		cfg := checker.Config{
			MaxExecutions: 25,
			OnRunStart:    func(sys *checker.System) { m = Install(sys, trivialSpec()) },
		}
		compare := func(tt *checker.Thread, step int, op string) {
			checks++
			a, b := m.ReduceFingerprint()
			ra, rb := reduceFingerprintRebuild(m)
			if a != ra || b != rb {
				t.Errorf("seed %d, T%d step %d, after %s: cached %#x %#x, rebuilt %#x %#x",
					seed, tt.ID(), step, op, a, b, ra, rb)
			}
		}
		script := func(x *checker.Atomic, salt uint64) func(*checker.Thread) {
			return func(tt *checker.Thread) {
				rng := rand.New(rand.NewPCG(seed, salt))
				var open []*CallCtx
				for step := range 30 {
					op := "Begin"
					if len(open) == 0 || rng.IntN(4) == 0 {
						open = append(open, m.Begin(tt, []string{"m", "n"}[rng.IntN(2)], memmodel.Value(rng.IntN(3))))
						compare(tt, step, op)
						continue
					}
					top := open[len(open)-1]
					label := []string{"p", "q"}[rng.IntN(2)]
					switch rng.IntN(9) {
					case 0:
						op = "End"
						top.End(tt, memmodel.Value(rng.IntN(3)))
						open = open[:len(open)-1]
					case 1:
						op = "EndVoid"
						top.EndVoid(tt)
						open = open[:len(open)-1]
					case 2:
						op = "SetAux"
						top.SetAux([]string{"a", "b", "c"}[rng.IntN(3)], memmodel.Value(rng.IntN(3)))
					case 3:
						op = "OPDefine"
						x.Load(tt, memmodel.Acquire)
						top.OPDefine(tt, true)
					case 4:
						op = "OPClear"
						top.OPClear(tt, true)
					case 5:
						op = "OPClearDefine"
						x.Store(tt, memmodel.Release, memmodel.Value(rng.IntN(3)))
						top.OPClearDefine(tt, true)
					case 6:
						op = "PotentialOP"
						x.Load(tt, memmodel.Acquire)
						top.PotentialOP(tt, label, true)
					case 7:
						op = "OPCheck"
						top.OPCheck(tt, label, true)
					case 8:
						op = "Call.SetAux"
						calls := m.Calls()
						calls[rng.IntN(len(calls))].SetAux([]string{"a", "d"}[rng.IntN(2)], memmodel.Value(rng.IntN(3)))
					}
					compare(tt, step, op)
				}
				for i := len(open) - 1; i >= 0; i-- {
					open[i].EndVoid(tt)
					compare(tt, -1, "EndVoid")
				}
			}
		}
		res := checker.Explore(cfg, func(root *checker.Thread) {
			x := root.NewAtomicInit("x", 0)
			a := root.Spawn("a", script(x, 1))
			b := root.Spawn("b", script(x, 2))
			script(x, 3)(root)
			root.Join(a)
			root.Join(b)
		})
		if res.Feasible == 0 {
			t.Fatalf("seed %d: no feasible execution: %v", seed, res)
		}
	}
	if checks < 10000 {
		t.Errorf("only %d comparisons", checks)
	}
}

// TestReducePairLanes: each lane of the monitor's stream hash keeps zero
// streams of different lengths apart (the lane constants; both
// finalizers map 0 to 0), and the two lanes disagree (different
// finalizers and constants), so a false merge needs a collision in both.
func TestReducePairLanes(t *testing.T) {
	seenA, seenB := map[uint64]int{}, map[uint64]int{}
	var p reducePair
	for n := 0; n <= 16; n++ {
		if n > 0 {
			p.push(0)
			if p.a == p.b {
				t.Errorf("the lanes agree on the zero stream of length %d", n)
			}
		}
		if m, ok := seenA[p.a]; ok {
			t.Errorf("lane A: the zero streams of lengths %d and %d collide", m, n)
		}
		if m, ok := seenB[p.b]; ok {
			t.Errorf("lane B: the zero streams of lengths %d and %d collide", m, n)
		}
		seenA[p.a], seenB[p.b] = n, n
	}
}
