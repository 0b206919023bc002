package main

import (
	"encoding/json"
	"flag"
	"maps"
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

// TestBadInvocations: no arguments and an unknown subcommand exit 2 with
// usage on stderr; a missing or extra positional argument, and a flag
// the verb does not read, exit 2 with one line naming it.
func TestBadInvocations(t *testing.T) {
	for _, tc := range []struct {
		args []string
		name string // what the one-line error names; "" for usage
	}{
		{nil, ""},
		{[]string{"frobnicate"}, ""},
		{[]string{"run"}, "<benchmark>"},
		{[]string{"dot"}, "<benchmark>"},
		{[]string{"json"}, "<benchmark>"},
		{[]string{"fastrun", "-checkpoint", "cp.json", "-max", "10", "SPSC Queue"}, "-checkpoint"},
		{[]string{"run", "-weaken", "no_such_site", "-verify", "SPSC Queue"}, "-weaken"},
		{[]string{"fastrun", "SPSC Queue", "-max", "5"}, "-max"},
		{[]string{"specstats", "-model", "sc"}, "-model"},
		{[]string{"list", "-reduce", "all"}, "-reduce"},
		{[]string{"list", "extra"}, `"extra"`},
		{[]string{"knownbugs", "-json"}, "-json"},
		{[]string{"dot", "-workers", "4", "SPSC Queue"}, "-workers"},
		{[]string{"all", "-model", "sc"}, "-model"},
		{[]string{"all", "-json"}, "-json"},
		{[]string{"-workers", "4", "list"}, "-workers"},
		{[]string{"fuzz", "-model", "c11", "-count", "1", "SPSC Queue"}, "-model"},
	} {
		var out, errOut strings.Builder
		if code := run(tc.args, &out, &errOut); code != 2 {
			t.Errorf("run(%q) exited %d, want 2", tc.args, code)
		}
		msg := errOut.String()
		switch {
		case tc.name == "" && msg == "":
			t.Errorf("run(%q) printed nothing to stderr", tc.args)
		case tc.name != "" && (strings.Count(msg, "\n") != 1 || !strings.Contains(msg, tc.name)):
			t.Errorf("run(%q) printed %q, want one line naming %s", tc.args, msg, tc.name)
		}
	}
}

// TestVerbFlagSets: every verb refuses each flag some other verb reads
// and it does not, with exit 2 and one line naming the flag, before any
// work starts; and `cdsspec <verb> -h` exits 0 listing exactly the
// verb's own flags.
func TestVerbFlagSets(t *testing.T) {
	own := map[string]map[string]bool{}
	all := map[string]bool{}
	for _, v := range verbs {
		own[v.name] = map[string]bool{}
		v.flagSet(&cli{}).VisitAll(func(f *flag.Flag) {
			own[v.name][f.Name] = true
			all[f.Name] = true
		})
	}
	for _, v := range verbs {
		for name := range all {
			if own[v.name][name] {
				continue
			}
			var out, errOut strings.Builder
			if code := run([]string{v.name, "-" + name}, &out, &errOut); code != 2 {
				t.Errorf("%s -%s exited %d, want 2", v.name, name, code)
			}
			if msg := errOut.String(); strings.Count(msg, "\n") != 1 || !strings.Contains(msg, "-"+name) {
				t.Errorf("%s -%s printed %q, want one line naming the flag", v.name, name, msg)
			}
		}

		var out, errOut strings.Builder
		if code := run([]string{v.name, "-h"}, &out, &errOut); code != 0 {
			t.Errorf("%s -h exited %d, want 0: %s", v.name, code, errOut.String())
		}
		listed := map[string]bool{}
		for _, line := range strings.Split(out.String(), "\n") {
			if name, ok := strings.CutPrefix(line, "  -"); ok {
				listed[strings.Fields(name)[0]] = true
			}
		}
		if !maps.Equal(listed, own[v.name]) {
			t.Errorf("%s -h lists %v, want %v", v.name, listed, own[v.name])
		}
	}

	var out, errOut strings.Builder
	if code := run([]string{"-h"}, &out, &errOut); code != 0 || !strings.Contains(out.String(), "verbs:") {
		t.Errorf("cdsspec -h exited %d with %q, want 0 and the verb list", code, out.String())
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
