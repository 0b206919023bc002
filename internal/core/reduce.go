package core

// This file implements the checker's reduction-layer hooks on Monitor
// (checker.AuxFingerprinter and checker.AuxMutTracker, matched
// structurally — the checker never imports this package). The
// execution-equivalence reduction may only merge two exploration prefixes
// when their *entire* observable state matches, and the monitor's call
// record is part of that state: call IDs are assigned in global begin
// order, so two prefixes that interleaved spec calls differently must
// hash differently. Likewise the spinloop reduction may only call an
// iteration pure if the spinning thread performed no spec-layer mutation
// in it, which the per-thread mutation counter witnesses.

// reduceMix is the splitmix64 finalizer (mirrors the checker's mix64),
// lane A's bijection.
func reduceMix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// reduceFmix is murmur3's 64-bit finalizer (mirrors the checker's
// fmix64), lane B's bijection.
func reduceFmix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// reducePair is a two-lane order-sensitive hash stream (mirrors the
// checker's fpPair; two lanes make accidental collisions — which would
// cause an unsound prune — a 128-bit event). The lane constants keep
// zero streams of different lengths apart.
type reducePair struct{ a, b uint64 }

// push chains one word into the stream: one finalizer round per lane.
func (p *reducePair) push(w uint64) {
	p.a = reduceMix(p.a ^ w ^ 0x9e3779b97f4a7c15)
	p.b = reduceFmix(p.b ^ w ^ 0xc2b2ae3d27d4eb4f)
}

func (p *reducePair) pushString(s string) {
	p.push(uint64(len(s)))
	for i := 0; i < len(s); i += 8 {
		var w uint64
		for j := i; j < len(s) && j < i+8; j++ {
			w = w<<8 | uint64(s[j])
		}
		p.push(w)
	}
}

func reduceBool(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// ReduceFingerprint hashes the monitor's full recorded state — every
// call with identity, arguments, return, ordering points, pending
// potentials, aux values, and open/closed status, plus the call count
// and the per-thread nesting depths. It implements
// checker.AuxFingerprinter.
//
// Each call's entry is cached on the call (Call.fp) until a mutator
// invalidates it, so a fingerprint rehashes only the calls that changed
// and sums the rest. The entry includes the call's ID, which is its
// position in begin order, so the sum stays order-sensitive.
//
// Thread identity is the raw tid (the same identity the spec-check
// fingerprint in cache.go serializes), not the checker's canonical id:
// once spec calls exist, states that differ only by a symmetric-thread
// renaming therefore do not rf-merge — a deliberate loss of reduction
// that keeps the merged states' spec fingerprints byte-identical.
// Ordering points are identified by (thread, per-thread sequence
// number), which replay reproduces exactly; trace IDs are not used (they
// shift with unrelated interleaving).
func (m *Monitor) ReduceFingerprint() (uint64, uint64) {
	var sa, sb uint64
	for _, c := range m.calls {
		if !c.fpOK {
			c.fp, c.fpOK = c.reduceEntry(), true
		}
		sa += c.fp.a
		sb += c.fp.b
	}
	// Nesting depths fold commutatively; zero depths are
	// absent-equivalent and skipped.
	var da, db uint64
	for tid, d := range m.depth {
		if d == 0 {
			continue
		}
		e := reducePair{}
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

// reduceEntry hashes one call's record from its fields.
func (c *Call) reduceEntry() reducePair {
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
	return p
}

// invalidate drops the call's cached fingerprint entry; every mutator of
// a field reduceEntry hashes calls it.
func (c *Call) invalidate() { c.fpOK = false }

// ReduceThreadMuts reports how many spec-layer mutations thread tid has
// performed (checker.AuxMutTracker). The counter is per-thread — other
// threads' spec calls while one thread spins must not spoil that
// thread's iteration purity — and bumps on every monitor mutator:
// Begin/End (including nested pairs, conservatively), SetAux, and the
// ordering-point annotations.
func (m *Monitor) ReduceThreadMuts(tid int) uint64 {
	if tid < len(m.muts) {
		return m.muts[tid]
	}
	return 0
}

// mut bumps tid's spec-mutation counter, first growing the per-thread
// slices to cover tid.
func (m *Monitor) mut(tid int) {
	for len(m.muts) <= tid {
		m.muts = append(m.muts, 0)
		m.depth = append(m.depth, 0)
	}
	m.muts[tid]++
}
