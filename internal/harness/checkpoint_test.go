package harness

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/checker"
	"repro/internal/core"
)

// The ISSUE's end-to-end determinism suite: full spec-checked
// explorations of real benchmarks must produce bit-identical
// Result/Stats across worker counts and across checkpoint/resume
// boundaries. MPMC Queue is the imbalanced 159k-execution workload, so
// it only runs in full (non -short) mode.

// exploreBench explores the benchmark's primary workload under cfg.
func exploreBench(b *Benchmark, cfg checker.Config) *checker.Result {
	spec := b.Spec()
	return core.Explore(spec, cfg, b.Progs(b.Orders())[0])
}

// requireSameResult asserts the cross-worker bit-identity contract:
// every Result field and every Stats counter except the timings and
// scheduler telemetry.
func requireSameResult(t *testing.T, name string, want, got *checker.Result, resumed bool) {
	t.Helper()
	if want.Executions != got.Executions || want.Feasible != got.Feasible ||
		want.Pruned != got.Pruned || want.Exhausted != got.Exhausted ||
		want.FailureCount != got.FailureCount {
		t.Fatalf("%s: result differs:\n  want: %v (exhausted=%v)\n  got:  %v (exhausted=%v)",
			name, want, want.Exhausted, got, got.Exhausted)
	}
	// Across a resume boundary the spec-cache hit/miss split shifts (the
	// cache restarts cold); within one run it is exact.
	ws, gs := want.Stats.WithoutTimings(), got.Stats.WithoutTimings()
	if resumed {
		ws, gs = ResumeComparableStats(want.Stats), ResumeComparableStats(got.Stats)
	}
	if ws != gs {
		t.Fatalf("%s: stats differ:\n  want: %+v\n  got:  %+v", name, ws, gs)
	}
	if len(want.Failures) != len(got.Failures) {
		t.Fatalf("%s: retained failures differ: %d vs %d", name, len(want.Failures), len(got.Failures))
	}
	for i := range want.Failures {
		wf, gf := want.Failures[i], got.Failures[i]
		if wf.Kind != gf.Kind || wf.Execution != gf.Execution {
			t.Fatalf("%s: failure %d differs: %v@%d vs %v@%d",
				name, i, wf.Kind, wf.Execution, gf.Kind, gf.Execution)
		}
	}
}

// determinismBenchmarks returns the ISSUE's required trio, with the
// heavyweight MPMC row dropped under -short.
func determinismBenchmarks(t *testing.T) []string {
	names := []string{"M&S Queue", "RCU"}
	if testing.Short() {
		t.Log("-short: skipping the MPMC Queue workload (~10s per exploration)")
	} else {
		names = append(names, "MPMC Queue")
	}
	return names
}

// TestWorkStealDeterminismAcrossWorkers: workers 4 and 16 reproduce the
// one-worker exploration bit-for-bit (TestC11GoldenStats pins that one
// against reference data).
func TestWorkStealDeterminismAcrossWorkers(t *testing.T) {
	for _, name := range determinismBenchmarks(t) {
		b := BenchmarkByName(name)
		if b == nil {
			t.Fatalf("benchmark %q missing", name)
		}
		seq := exploreBench(b, checker.Config{})
		if !seq.Exhausted {
			t.Fatalf("%s: one-worker exploration did not exhaust", name)
		}
		for _, workers := range []int{4, 16} {
			par := exploreBench(b, checker.Config{Parallelism: workers})
			requireSameResult(t, fmt.Sprintf("%s workers=%d", name, workers), seq, par, false)
		}
	}
}

// TestWorkStealDeterminismAcrossResume: for each benchmark, cut the
// exploration at several points, round-trip the checkpoint through the
// on-disk envelope, resume at a different worker count, and require the
// final result to match the uninterrupted one-worker run.
func TestWorkStealDeterminismAcrossResume(t *testing.T) {
	dir := t.TempDir()
	for _, name := range determinismBenchmarks(t) {
		b := BenchmarkByName(name)
		if b == nil {
			t.Fatalf("benchmark %q missing", name)
		}
		seq := exploreBench(b, checker.Config{})
		for _, frac := range []int{10, 2} { // cut at 1/10th and half
			cut := seq.Executions / frac
			if cut == 0 {
				cut = 1
			}
			var cp *checker.Checkpoint
			partial := exploreBench(b, checker.Config{
				Parallelism:   4,
				MaxExecutions: cut,
				Checkpoint:    func(c *checker.Checkpoint) { cp = c },
			})
			if partial.Executions != cut || cp == nil || cp.Complete() {
				t.Fatalf("%s: bad cut at %d: executions=%d cp=%v", name, cut, partial.Executions, cp)
			}

			// Round-trip through the on-disk envelope, exactly as the CLI
			// does.
			path := filepath.Join(dir, "cp.json")
			if err := WriteCheckpointFile(path, &CheckpointFile{
				Schema: CheckpointFileSchema, Benchmark: name, State: cp,
			}); err != nil {
				t.Fatal(err)
			}
			cf, err := ReadCheckpointFile(path)
			if err != nil {
				t.Fatal(err)
			}

			resumed := exploreBench(b, checker.Config{Parallelism: 8, ResumeFrom: cf.State})
			requireSameResult(t, fmt.Sprintf("%s cut=1/%d", name, frac), seq, resumed, true)
		}
	}
}

// TestCheckpointNoKernelOptsBackCompat: envelopes written by earlier
// versions carry "nokernelopts": true when the kernel optimizations were
// off. That switch selected slow paths with identical results and is
// gone; the reader ignores the field, and the resume is bit-identical to
// an uninterrupted run.
func TestCheckpointNoKernelOptsBackCompat(t *testing.T) {
	b := BenchmarkByName("RCU")
	seq := exploreBench(b, checker.Config{})
	var cp *checker.Checkpoint
	exploreBench(b, checker.Config{
		MaxExecutions: seq.Executions / 2,
		Checkpoint:    func(c *checker.Checkpoint) { cp = c },
	})
	if cp == nil || cp.Complete() {
		t.Fatalf("bad cut: checkpoint %v", cp)
	}
	path := writeFile(t, t.TempDir(), "cp.json", v1Envelope(t, "RCU", cp, `"workers":1,"nokernelopts":true,`))
	cf, err := ReadCheckpointFile(path)
	if err != nil {
		t.Fatalf("envelope with nokernelopts rejected: %v", err)
	}
	resumed := exploreBench(b, checker.Config{Parallelism: 2, ResumeFrom: cf.State})
	requireSameResult(t, "nokernelopts envelope", seq, resumed, true)
}

// TestCheckpointFileValidation: the envelope reader rejects missing
// files, foreign schemas, absent state, unknown benchmarks and unknown
// reductions, and reads a v1 envelope's reduction set into the state.
// Whether a resume may continue the state is the checker's call
// (TestCheckpointReduceIdentity).
func TestCheckpointFileValidation(t *testing.T) {
	dir := t.TempDir()
	if _, err := ReadCheckpointFile(filepath.Join(dir, "absent.json")); err == nil {
		t.Error("missing file accepted")
	}
	state := `{"schema":"` + checker.CheckpointSchema + `","cells":[{"pending":true}]}`
	v1 := `{"schema":"` + checkpointFileSchemaV1 + `","benchmark":"RCU",`
	cases := map[string]string{
		"garbage.json":     `{`,
		"schema.json":      `{"schema":"cdsspec-checkpoint-file/v9","benchmark":"RCU","state":` + state + `}`,
		"nostate.json":     `{"schema":"` + CheckpointFileSchema + `","benchmark":"RCU"}`,
		"badstate.json":    `{"schema":"` + CheckpointFileSchema + `","benchmark":"RCU","state":{"schema":"nope"}}`,
		"nobench.json":     `{"schema":"` + CheckpointFileSchema + `","benchmark":"No Such Structure","state":` + state + `}`,
		"badreduce.json":   v1 + `"reduce":"bogus","state":` + state + `}`,
		"badreducev2.json": `{"schema":"` + CheckpointFileSchema + `","benchmark":"RCU","state":{"schema":"` + checker.CheckpointSchema + `","reduce":"bogus","cells":[{"pending":true}]}}`,
	}
	for name, content := range cases {
		if _, err := ReadCheckpointFile(writeFile(t, dir, name, content)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	good := writeFile(t, dir, "good.json", `{"schema":"`+CheckpointFileSchema+`","benchmark":"RCU","state":`+state+`}`)
	cf, err := ReadCheckpointFile(good)
	if err != nil {
		t.Fatalf("valid envelope rejected: %v", err)
	}
	if cf.Benchmark != "RCU" || cf.State.Pending() != 1 || cf.State.Reduce.Any() {
		t.Errorf("round trip mangled the envelope: %+v", cf)
	}
	cf, err = ReadCheckpointFile(writeFile(t, dir, "reduced.json", v1+`"reduce":"rf,spinloop","state":`+state+`}`))
	if err != nil {
		t.Fatalf("reduced v1 envelope rejected: %v", err)
	}
	if got := cf.State.Reduce; got != (checker.ReduceSet{RF: true, Spinloop: true}) {
		t.Errorf("v1 reduce read as %+v, want rf+spinloop", got)
	}
}

// TestWriteCheckpointFileDurability: an empty path is refused outright
// (it used to surface as an opaque rename error into the working
// directory), a successful write round-trips through the full
// fsync-file + rename + fsync-dir path, and a failed write leaves the
// previous checkpoint intact with no temp-file litter.
func TestWriteCheckpointFileDurability(t *testing.T) {
	cf := &CheckpointFile{
		Schema:    CheckpointFileSchema,
		Benchmark: "RCU",
		State:     &checker.Checkpoint{Schema: checker.CheckpointSchema, Cells: []checker.CheckpointCell{{Pending: true}}},
	}
	if err := WriteCheckpointFile("", cf); err == nil {
		t.Error("empty checkpoint path accepted")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "cp.json")
	if err := WriteCheckpointFile(path, cf); err != nil {
		t.Fatalf("durable write failed: %v", err)
	}
	got, err := ReadCheckpointFile(path)
	if err != nil {
		t.Fatalf("written checkpoint unreadable: %v", err)
	}
	if got.Benchmark != "RCU" || got.State.Pending() != 1 {
		t.Errorf("round trip mangled the envelope: %+v", got)
	}
	// A write into a missing directory fails without touching path.
	bad := filepath.Join(dir, "no-such-dir", "cp.json")
	if err := WriteCheckpointFile(bad, cf); err == nil {
		t.Error("write into a missing directory succeeded")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "cp.json" {
		t.Errorf("temp-file litter or lost checkpoint after failed write: %v", entries)
	}
}
