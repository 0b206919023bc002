package main

import (
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fuzz"
	"repro/internal/harness"
)

// TestListVerbose: list -v prints each benchmark's ops, roles, and
// memory-order sites.
func TestListVerbose(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"list", "-v"}, &out, &errOut); code != 0 {
		t.Fatalf("list -v exited %d: %s", code, errOut.String())
	}
	for _, want := range []string{
		"Chase-Lev Deque", "role owner (max 1)", "op push/1 [owner]",
		"op enq/1 [producer] produces=1", "site enq_store_next (default release)",
		"op lock_inc_unlock", "site take_cas_top (default seq_cst)",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("list -v missing %q:\n%s", want, out.String())
		}
	}
}

// TestFuzzJSONSnapshot: fuzz -json over one benchmark emits a schema-v3
// snapshot whose Fuzz summaries carry the campaign counts.
func TestFuzzJSONSnapshot(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"fuzz", "-json", "-model", "c11", "-reduce", "none", "-seed", "5", "-count", "6", "-budget", "1500", "SPSC Queue"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("fuzz -json exited %d: %s", code, errOut.String())
	}
	var snap harness.BenchSnapshot
	if err := json.Unmarshal([]byte(out.String()), &snap); err != nil {
		t.Fatalf("output is not a snapshot: %v\n%s", err, out.String())
	}
	if snap.Schema != harness.SnapshotSchema {
		t.Errorf("schema = %q, want %q", snap.Schema, harness.SnapshotSchema)
	}
	if len(snap.Fuzz) != 1 {
		t.Fatalf("expected one fuzz summary: %+v", snap)
	}
	s := snap.Fuzz[0]
	if s.Benchmark != "SPSC Queue" || s.Seed != 5 || s.Programs != 6 || s.Executions == 0 {
		t.Errorf("implausible summary: %+v", s)
	}
	if s.Failing != 0 {
		t.Errorf("campaign against correct orders found failures: %+v", s)
	}
}

// TestFuzzSeededBugExitCodes: a -weaken campaign that finds the seeded
// bug exits 0 (the hunt succeeded); the same failures against the
// correct orders would exit 3. Also checks the human-readable report.
func TestFuzzSeededBugExitCodes(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"fuzz", "-count", "10", "-budget", "3000", "-weaken", "enq_store_next", "SPSC Queue"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("fuzz -weaken exited %d: %s", code, errOut.String())
	}
	for _, want := range []string{"=== fuzz campaign", "SPSC Queue", "bucket builtin/", "program: t0["} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("fuzz report missing %q:\n%s", want, out.String())
		}
	}
}

// TestFuzzBadWeaken: an unknown site name exits 2 and lists the valid
// sites; -weaken without a single benchmark exits 2.
func TestFuzzBadWeaken(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"fuzz", "-weaken", "no_such_site", "SPSC Queue"}, &out, &errOut); code != 2 {
		t.Fatalf("fuzz -weaken no_such_site exited %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), `unknown memory-order site "no_such_site"`) ||
		!strings.Contains(errOut.String(), "enq_store_next") {
		t.Errorf("missing site listing:\n%s", errOut.String())
	}
	errOut.Reset()
	if code := run([]string{"fuzz", "-weaken", "enq_store_next"}, &out, &errOut); code != 2 {
		t.Errorf("fuzz -weaken without a benchmark exited %d, want 2", code)
	}
}

// TestShrinkCLIEndToEnd: fuzz -corpus persists the seeded-bug failures,
// shrink -corpus minimizes entry 0 and saves the shrunk form back, and
// the report carries the Go-closure rendering.
func TestShrinkCLIEndToEnd(t *testing.T) {
	corpus := filepath.Join(t.TempDir(), "corpus.json")
	var out, errOut strings.Builder
	code := run([]string{"fuzz", "-count", "10", "-budget", "3000",
		"-weaken", "enq_store_next", "-corpus", corpus, "SPSC Queue"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("fuzz -corpus exited %d: %s", code, errOut.String())
	}
	c, err := fuzz.LoadCorpus(corpus)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.ForBenchmark("SPSC Queue")) == 0 {
		t.Fatal("campaign persisted no corpus entries")
	}

	out.Reset()
	errOut.Reset()
	code = run([]string{"shrink", "-weaken", "enq_store_next", "-corpus", corpus, "-index", "0",
		"-budget", "3000", "SPSC Queue"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("shrink exited %d: %s", code, errOut.String())
	}
	for _, want := range []string{"=== shrink: SPSC Queue", "minimal ", "func(root *checker.Thread)", "spsc.New(root, orders)"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("shrink report missing %q:\n%s", want, out.String())
		}
	}
	c, err = fuzz.LoadCorpus(corpus)
	if err != nil {
		t.Fatal(err)
	}
	entry := c.ForBenchmark("SPSC Queue")[0]
	if entry.Shrunk == nil {
		t.Fatal("shrink did not save the minimal program back to the corpus")
	}
	if entry.Shrunk.OpCount() > entry.Program.OpCount() {
		t.Errorf("shrunk program (%d ops) larger than the original (%d)",
			entry.Shrunk.OpCount(), entry.Program.OpCount())
	}

	// shrink -json emits the machine-readable ShrinkResult.
	out.Reset()
	errOut.Reset()
	code = run([]string{"shrink", "-json", "-weaken", "enq_store_next", "-corpus", corpus,
		"-budget", "3000", "SPSC Queue"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("shrink -json exited %d: %s", code, errOut.String())
	}
	var res fuzz.ShrinkResult
	if err := json.Unmarshal([]byte(out.String()), &res); err != nil {
		t.Fatalf("shrink -json output invalid: %v\n%s", err, out.String())
	}
	if res.Minimal == nil || res.Kind.String() == "" {
		t.Errorf("implausible shrink result: %+v", res)
	}
}

// TestShrinkNoFailure: shrinking a benchmark whose campaign finds no
// failure reports the situation instead of succeeding vacuously.
func TestShrinkNoFailure(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"shrink", "-count", "3", "-budget", "1000", "SPSC Queue"}, &out, &errOut); code != 1 {
		t.Fatalf("shrink without failures exited %d, want 1", code)
	}
	if !strings.Contains(errOut.String(), "no failure to shrink") {
		t.Errorf("missing explanation:\n%s", errOut.String())
	}
}
