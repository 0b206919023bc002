package checker

import (
	"slices"
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
