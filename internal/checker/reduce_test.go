package checker

import (
	"math/rand/v2"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/memmodel"
)

// TestParseReduce: flag-value parsing round-trips through the canonical
// String form, and garbage is rejected with the valid values named.
func TestParseReduce(t *testing.T) {
	cases := []struct {
		in   string
		want ReduceSet
	}{
		{"", ReduceSet{}},
		{"none", ReduceSet{}},
		{"all", ReduceAll()},
		{"rf", ReduceSet{RF: true}},
		{"symmetry", ReduceSet{Symmetry: true}},
		{"spinloop", ReduceSet{Spinloop: true}},
		{"rf,spinloop", ReduceSet{RF: true, Spinloop: true}},
		{"spinloop, rf", ReduceSet{RF: true, Spinloop: true}}, // order/space insensitive
		{"rf,rf", ReduceSet{RF: true}},
		{"rf,symmetry,spinloop", ReduceAll()},
	}
	for _, tc := range cases {
		got, err := ParseReduce(tc.in)
		if err != nil {
			t.Errorf("ParseReduce(%q): %v", tc.in, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ParseReduce(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
		// The canonical String form must parse back to the same set.
		back, err := ParseReduce(got.String())
		if err != nil || back != got {
			t.Errorf("ParseReduce(%q).String() = %q does not round-trip (%+v, %v)",
				tc.in, got.String(), back, err)
		}
	}
	for _, bad := range []string{"bogus", "rf,bogus", "rf;spinloop", "ALL"} {
		if _, err := ParseReduce(bad); err == nil {
			t.Errorf("ParseReduce(%q) accepted", bad)
		}
	}
	if got := (ReduceSet{}).String(); got != "none" {
		t.Errorf("zero set String() = %q, want none", got)
	}
	if got := ReduceAll().String(); got != "rf,symmetry,spinloop" {
		t.Errorf("ReduceAll().String() = %q", got)
	}
}

// TestReduceConfigValidate: FastMode has no frontier to prune, so it
// rejects every reduction; the DFS engine accepts everything.
func TestReduceConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"fastmode+rf", Config{FastMode: true, MaxExecutions: 1, Reduce: ReduceSet{RF: true}}, false},
		{"fastmode+symmetry", Config{FastMode: true, MaxExecutions: 1, Reduce: ReduceSet{Symmetry: true}}, false},
		{"fastmode+spinloop", Config{FastMode: true, MaxExecutions: 1, Reduce: ReduceSet{Spinloop: true}}, false},
		{"sequential+all", Config{Reduce: ReduceAll()}, true},
		{"worksteal+all", Config{Parallelism: 4, Reduce: ReduceAll()}, true},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: Validate() = %v, want nil", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: Validate() accepted", tc.name)
		}
	}
}

// TestFingerprintCacheMatchesRebuild: along seeded random walks, the
// incremental state fingerprint equals the from-scratch rebuild at every
// decision. The programs are the kernel suite (mutexes, fences,
// spawn/join, races) and one with identical-closure siblings, whose
// never-started twins take the unstarted entry while the others run.
func TestFingerprintCacheMatchesRebuild(t *testing.T) {
	twins := kernelProg{"identical-closure-twins", func(root *Thread, report func(string)) {
		m := root.NewMutex("m")
		x := root.NewAtomicInit("x", 0)
		body := func(tt *Thread) {
			m.Lock(tt)
			x.FetchAdd(tt, memmodel.AcqRel, 1)
			m.Unlock(tt)
		}
		a := root.Spawn("a", body)
		b := root.Spawn("b", body)
		w := root.Spawn("w", func(tt *Thread) {
			for x.Load(tt, memmodel.Acquire) < 2 {
				tt.Yield()
			}
		})
		c := root.Spawn("c", body)
		root.Join(a)
		root.Join(b)
		root.Join(c)
		root.Join(w)
	}}
	for _, p := range append(slices.Clone(kernelProgs), twins) {
		n, err := WalkFingerprints(Config{}, func(root *Thread) { p.prog(root, func(string) {}) }, 1, 300)
		if err != nil {
			t.Errorf("%s: %v", p.name, err)
		}
		if n < 300 {
			t.Errorf("%s: %d checks over 300 walks", p.name, n)
		}
	}
}

// TestFingerprintStreamLanes: each lane of the stream hash keeps zero
// streams of different lengths apart (the lane constants; both
// finalizers map 0 to 0), and the two lanes disagree (different
// finalizers and constants), so a false merge needs a collision in both.
func TestFingerprintStreamLanes(t *testing.T) {
	seenA, seenB := map[uint64]int{}, map[uint64]int{}
	var p fpPair
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

// TestFpOpWord: every stream opcode is below 256, so fpOpWord's packing
// of an opcode and a 32-bit sequence number is injective — both come
// back out of the word.
func TestFpOpWord(t *testing.T) {
	for op := fpOpLoad; op <= fpOpUnlock; op++ {
		for _, seq := range []uint32{0, 1, 1 << 31, ^uint32(0)} {
			if w := fpOpWord(op, seq); w&0xff != op || w>>8 != uint64(seq) {
				t.Errorf("fpOpWord(%d, %d) = %#x does not unpack to its opcode and sequence number", op, seq, w)
			}
		}
	}
}

// seenPrefixRef is the seen-set's check-and-register over a Go map from
// state keys to registered sleep signatures, the reference for the
// table: a registration under a subset of the caller's signature
// prunes, and a new registration drops the supersets it dominates.
type seenPrefixRef map[fpKey][][]uint64

func (r seenPrefixRef) seenPrefix(k fpKey, sleep []uint64) bool {
	list := r[k]
	for _, reg := range list {
		if subsetOf(reg, sleep) {
			return true
		}
	}
	var kept [][]uint64
	for _, reg := range list {
		if !subsetOf(sleep, reg) {
			kept = append(kept, reg)
		}
	}
	r[k] = append(kept, slices.Clone(sleep))
	return false
}

// registeredSleeps returns the sleep signatures s holds for k.
func registeredSleeps(s *rfSeenSet, k fpKey) [][]uint64 {
	sh := s.shard(k)
	switch sl := sh.prefix.find(k); sl.ref {
	case 0:
		return nil
	case refEmpty:
		return [][]uint64{nil}
	default:
		return sh.sleeps[sl.ref-1]
	}
}

// randomKeys returns n distinct pseudo-random state keys.
func randomKeys(n int, seed uint64) []fpKey {
	rng := rand.New(rand.NewPCG(seed, 1))
	keys := make([]fpKey, n)
	for i := range keys {
		keys[i] = fpKey{rng.Uint64(), rng.Uint64()}
	}
	return keys
}

// TestSeenSetGrowth: 10^5 random keys, half registered under the empty
// sleep signature and half under a non-empty one, plus a cluster of keys
// that share a shard and a probe start at the table's last slot, all
// survive the doublings of both tables; each is found again, and each
// table stays a power of two at most 3/4 full.
func TestSeenSetGrowth(t *testing.T) {
	keys := randomKeys(100000, 1)
	for i := range 1000 {
		keys = append(keys, fpKey{uint64(i) * rfShards, ^uint64(0)})
	}
	s := newRFSeenSet()
	sleep := []uint64{7}
	for i, k := range keys {
		sig := sleep[:i%2]
		if s.seenPrefix(k, sig) {
			t.Fatalf("key %d pruned before it was registered", i)
		}
		s.addComplete(k)
	}
	for i, k := range keys {
		if !s.seenPrefix(k, sleep) {
			t.Fatalf("key %d lost after growth", i)
		}
		if got, want := registeredSleeps(s, k), [][]uint64{sleep[:i%2]}; !slices.EqualFunc(got, want, slices.Equal[[]uint64]) {
			t.Fatalf("key %d: registered %v, want %v", i, got, want)
		}
		s.addComplete(k)
	}
	if got := s.classes.Load(); got != int64(len(keys)) {
		t.Errorf("classes = %d, want %d", got, len(keys))
	}
	for i := range s.shards {
		for _, tb := range []*fpTable{&s.shards[i].prefix, &s.shards[i].complete} {
			if n := len(tb.slots); n&(n-1) != 0 || n < 4096 || 4*tb.used > 3*n {
				t.Errorf("shard %d: %d of %d slots used", i, tb.used, n)
			}
		}
	}
}

// TestSeenSetEmptySignature: a state registered under the empty sleep
// signature prunes every later equal state, whatever its sleep set, and
// registering the empty signature replaces every non-empty one.
func TestSeenSetEmptySignature(t *testing.T) {
	later := [][]uint64{nil, {}, {3}, {1, 2, 3}}
	s := newRFSeenSet()
	k := fpKey{1, 2}
	if s.seenPrefix(k, nil) {
		t.Fatal("a fresh key pruned")
	}
	for _, sig := range later {
		if !s.seenPrefix(k, sig) {
			t.Errorf("state registered under the empty signature did not prune a later one under %v", sig)
		}
	}
	k = fpKey{3, 4}
	for _, sig := range [][]uint64{{5}, {6}, nil} {
		if s.seenPrefix(k, sig) {
			t.Fatalf("registration under %v pruned", sig)
		}
	}
	if got := registeredSleeps(s, k); len(got) != 1 || len(got[0]) != 0 {
		t.Errorf("after the empty signature: registered %v, want only the empty one", got)
	}
	for _, sig := range later {
		if !s.seenPrefix(k, sig) {
			t.Errorf("state re-registered under the empty signature did not prune a later one under %v", sig)
		}
	}
}

// TestSeenSetMatchesMap: over random keys and sleep signatures, the
// table prunes exactly when the map reference does and, after every
// step, holds the same signatures for the key, in the same order — the
// subset rule and the drop of dominated supersets.
func TestSeenSetMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 1))
	keys := randomKeys(64, 2)
	s, ref := newRFSeenSet(), seenPrefixRef{}
	var sig []uint64
	for i := range 50000 {
		k := keys[rng.IntN(len(keys))]
		sig = sig[:0]
		for e := uint64(1); e <= 8; e++ {
			if rng.IntN(2) == 0 {
				sig = append(sig, e)
			}
		}
		if got, want := s.seenPrefix(k, sig), ref.seenPrefix(k, sig); got != want {
			t.Fatalf("step %d: seenPrefix(%v) = %v, the reference says %v", i, sig, got, want)
		}
		if got, want := registeredSleeps(s, k), ref[k]; !slices.EqualFunc(got, want, slices.Equal[[]uint64]) {
			t.Fatalf("step %d: registered %v, the reference holds %v", i, got, want)
		}
	}
}

// TestSeenSetRace: eight goroutines register the same keys, half under
// the empty sleep signature and half under a non-empty one, and add
// them as complete states, in different orders while the tables grow.
// Each key is registered exactly once and counted as one class.
func TestSeenSetRace(t *testing.T) {
	keys := randomKeys(5000, 3)
	s := newRFSeenSet()
	wins := make([]atomic.Int32, len(keys))
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, i := range rand.New(rand.NewPCG(uint64(g), 3)).Perm(len(keys)) {
				if !s.seenPrefix(keys[i], []uint64{1, 2}[:i%2*2]) {
					wins[i].Add(1)
				}
				s.addComplete(keys[i])
			}
		}()
	}
	wg.Wait()
	for i := range wins {
		if n := wins[i].Load(); n != 1 {
			t.Errorf("key %d registered %d times", i, n)
		}
	}
	if got := s.classes.Load(); got != int64(len(keys)) {
		t.Errorf("classes = %d, want %d", got, len(keys))
	}
}

// BenchmarkRFSeenSet registers 2^14 random state keys in a fresh
// seen-set and probes each again, under the empty sleep signature and
// under a two-sleeper one. Each iteration is one fresh set.
func BenchmarkRFSeenSet(b *testing.B) {
	keys := randomKeys(1<<14, 4)
	for _, bc := range []struct {
		name  string
		sleep []uint64
	}{{"empty", nil}, {"sleep", []uint64{1, 2}}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				s := newRFSeenSet()
				for _, k := range keys {
					if s.seenPrefix(k, bc.sleep) {
						b.Fatal("a fresh key pruned")
					}
				}
				for _, k := range keys {
					if !s.seenPrefix(k, bc.sleep) {
						b.Fatal("a registered key did not prune")
					}
				}
			}
		})
	}
}
