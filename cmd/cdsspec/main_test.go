package main

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/harness"
)

// TestListSucceeds: list prints every benchmark name and exits zero.
func TestListSucceeds(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"list"}, &out, &errOut); code != 0 {
		t.Fatalf("list exited %d: %s", code, errOut.String())
	}
	for _, b := range harness.Benchmarks() {
		if !strings.Contains(out.String(), b.Name) {
			t.Errorf("list output missing %q:\n%s", b.Name, out.String())
		}
	}
}

// TestUnknownBenchmark: run/dot/json with a bogus name exit non-zero and
// list the available benchmarks so the caller need not guess.
func TestUnknownBenchmark(t *testing.T) {
	for _, cmd := range []string{"run", "dot", "json"} {
		var out, errOut strings.Builder
		code := run([]string{cmd, "no-such-benchmark"}, &out, &errOut)
		if code == 0 {
			t.Errorf("%s with unknown benchmark exited 0", cmd)
		}
		msg := errOut.String()
		if !strings.Contains(msg, `unknown benchmark "no-such-benchmark"`) {
			t.Errorf("%s: missing unknown-benchmark message:\n%s", cmd, msg)
		}
		for _, b := range harness.Benchmarks() {
			if !strings.Contains(msg, b.Name) {
				t.Errorf("%s: available-benchmark listing missing %q:\n%s", cmd, b.Name, msg)
			}
		}
	}
}

// TestBadInvocations: no arguments, an unknown subcommand, and a missing
// positional argument all exit 2 with usage on stderr.
func TestBadInvocations(t *testing.T) {
	for _, args := range [][]string{
		nil,
		{"frobnicate"},
		{"run"},
		{"dot"},
		{"json"},
	} {
		var out, errOut strings.Builder
		if code := run(args, &out, &errOut); code != 2 {
			t.Errorf("run(%q) exited %d, want 2", args, code)
		}
		if errOut.Len() == 0 {
			t.Errorf("run(%q) printed nothing to stderr", args)
		}
	}
}

// TestRunJSONSnapshot: trailing subcommand flags parse (cdsspec run
// -json <bench>) and produce a valid bench snapshot with stats.
func TestRunJSONSnapshot(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"run", "-json", "SPSC Queue"}, &out, &errOut); code != 0 {
		t.Fatalf("run -json exited %d: %s", code, errOut.String())
	}
	var snap harness.BenchSnapshot
	if err := json.Unmarshal([]byte(out.String()), &snap); err != nil {
		t.Fatalf("output is not a snapshot: %v\n%s", err, out.String())
	}
	if snap.Schema != harness.SnapshotSchema {
		t.Errorf("schema = %q, want %q", snap.Schema, harness.SnapshotSchema)
	}
	if len(snap.Fig7) != 1 || len(snap.Fig8) != 1 {
		t.Fatalf("expected one fig7 and one fig8 row: %+v", snap)
	}
	if snap.Fig7[0].Name != "SPSC Queue" || snap.Fig7[0].Executions == 0 {
		t.Errorf("implausible fig7 row: %+v", snap.Fig7[0])
	}
	if snap.Fig7[0].Stats.TotalSteps == 0 {
		t.Errorf("fig7 row missing stats: %+v", snap.Fig7[0].Stats)
	}
}

// TestJSONSubcommand: cdsspec json <bench> emits the full result plus a
// machine-readable trace of one execution.
func TestJSONSubcommand(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"json", "SPSC Queue"}, &out, &errOut); code != 0 {
		t.Fatalf("json exited %d: %s", code, errOut.String())
	}
	var doc struct {
		Benchmark string `json:"benchmark"`
		Result    struct {
			Executions int `json:"executions"`
			Stats      struct {
				Histories int `json:"histories"`
			} `json:"stats"`
		} `json:"result"`
		Trace struct {
			Actions []json.RawMessage `json:"actions"`
		} `json:"trace"`
	}
	if err := json.Unmarshal([]byte(out.String()), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out.String())
	}
	if doc.Benchmark != "SPSC Queue" || doc.Result.Executions == 0 {
		t.Errorf("implausible document header: %+v", doc)
	}
	if doc.Result.Stats.Histories == 0 {
		t.Errorf("result stats missing spec-layer counters: %+v", doc.Result)
	}
	if len(doc.Trace.Actions) == 0 {
		t.Error("document missing the execution trace")
	}
}

// TestProgressFlag: -progress emits progress lines on stderr, ending
// with the final "done" line carrying the spec-cache hit count.
func TestProgressFlag(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"run", "-progress", "SPSC Queue"}, &out, &errOut); code != 0 {
		t.Fatalf("run -progress exited %d: %s", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "[SPSC Queue] done:") {
		t.Errorf("no final progress line on stderr:\n%s", errOut.String())
	}
	if !strings.Contains(errOut.String(), "spec-cache hits)") {
		t.Errorf("final progress line missing spec-cache hits:\n%s", errOut.String())
	}
}

// TestDotHonorsModel: dot explores under -model, so the first feasible
// execution it prints differs between c11 and sc.
func TestDotHonorsModel(t *testing.T) {
	dot := func(args ...string) string {
		var out, errOut strings.Builder
		if code := run(append([]string{"dot"}, args...), &out, &errOut); code != 0 {
			t.Fatalf("dot %q exited %d: %s", args, code, errOut.String())
		}
		return out.String()
	}
	if c11, sc := dot("SPSC Queue"), dot("-model", "sc", "SPSC Queue"); c11 == sc {
		t.Errorf("dot -model sc printed the c11 graph:\n%s", sc)
	}
}

// TestReportVerbs runs the report verbs no other test drives through the
// CLI and checks each exits 0 with its header line.
func TestReportVerbs(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		header string
	}{
		{[]string{"dot", "SPSC Queue"}, "digraph execution {"},
		{[]string{"knownbugs"}, "=== §6.4.1: known bugs ==="},
		{[]string{"specstats"}, "=== §6.2: specification statistics ==="},
	} {
		var out, errOut strings.Builder
		if code := run(tc.args, &out, &errOut); code != 0 {
			t.Errorf("%q exited %d: %s", tc.args, code, errOut.String())
			continue
		}
		if first, _, _ := strings.Cut(out.String(), "\n"); first != tc.header {
			t.Errorf("%q: first line %q, want %q", tc.args, first, tc.header)
		}
	}
}
