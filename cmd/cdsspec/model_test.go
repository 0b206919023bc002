package main

import (
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/checker"
	"repro/internal/checker/model"
	"repro/internal/harness"
)

// runDiffJSON runs `cdsspec diff -json` with args and decodes the report.
func runDiffJSON(t *testing.T, wantCode int, args ...string) harness.DiffReport {
	t.Helper()
	var out, errOut strings.Builder
	if code := run(append([]string{"diff", "-json"}, args...), &out, &errOut); code != wantCode {
		t.Fatalf("diff -json %q exited %d, want %d: %s", args, code, wantCode, errOut.String())
	}
	var rep harness.DiffReport
	if err := json.Unmarshal([]byte(out.String()), &rep); err != nil {
		t.Fatalf("decoding report: %v\n%s", err, out.String())
	}
	return rep
}

// TestModelDiffCLI: the diff subcommand on SB reports the relaxed
// store-buffering outcome as c11-only, in both renderings; a model
// diffed against itself is identical and exits 0; and -b with -reduce
// turns it into the reduction soundness check.
func TestModelDiffCLI(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"diff", "SB"}, &out, &errOut); code != 0 {
		t.Fatalf("diff SB exited %d: %s", code, errOut.String())
	}
	for _, want := range []string{"only c11: r1=0 r2=0", "c11 vs sc"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}

	rep := runDiffJSON(t, 0, "-a", "c11", "-b", "sc", "SB")
	if rep.OnlyACount < 1 || rep.OnlyBCount != 0 || rep.Identical {
		t.Errorf("unexpected diff counts: %+v", rep)
	}

	rep = runDiffJSON(t, 0, "-a", "sc", "-b", "sc", "MP")
	if !rep.Identical || rep.A.Model != "sc" || rep.B.Model != "sc" {
		t.Errorf("sc vs sc on MP should be identical: %+v", rep)
	}

	rep = runDiffJSON(t, 0, "-b", "c11", "-reduce=all", "MP")
	if !rep.Identical || rep.A.Reduce != "none" || rep.B.Reduce != "rf,symmetry,spinloop" ||
		rep.A.Executions != 25 || rep.B.Executions != 15 {
		t.Errorf("reduced MP diff: identical=%v a=%s/%d b=%s/%d, want true none/25 rf,symmetry,spinloop/15",
			rep.Identical, rep.A.Reduce, rep.A.Executions, rep.B.Reduce, rep.B.Executions)
	}
}

// TestModelDiffCLIErrors: unknown targets and models, and an explicit
// -model on diff (which names its models with -a and -b), exit 2 with a
// message on stderr.
func TestModelDiffCLIErrors(t *testing.T) {
	cases := [][]string{
		{"diff"},
		{"diff", "no-such-target"},
		{"diff", "-a", "tso", "SB"},
		{"diff", "-b", "tso", "SB"},
		{"diff", "-model", "sc", "SB"},
		{"explore", "-model", "tso", "M&S Queue"},
	}
	for _, args := range cases {
		var out, errOut strings.Builder
		if code := run(args, &out, &errOut); code != 2 {
			t.Errorf("run(%q) exited %d, want 2: %s", args, code, errOut.String())
		}
		if errOut.Len() == 0 {
			t.Errorf("run(%q) printed nothing to stderr", args)
		}
	}
}

// TestResumeModelMismatchCLI: a checkpoint explored under one model is
// stamped with it, refuses an explicitly different -model on resume, and
// resumes cleanly when the flag is omitted (the checkpoint's model is
// adopted).
func TestResumeModelMismatchCLI(t *testing.T) {
	cp := filepath.Join(t.TempDir(), "cp.json")
	var out, errOut strings.Builder
	if code := run([]string{"explore", "-workers", "2", "-max", "100", "-model", "sc", "-checkpoint", cp, "M&S Queue"}, &out, &errOut); code != 0 {
		t.Fatalf("explore exited %d: %s", code, errOut.String())
	}
	cf, err := harness.ReadCheckpointFile(cp)
	if err != nil {
		t.Fatal(err)
	}
	if cf.State.Model != model.SC {
		t.Fatalf("checkpoint model = %q, want sc", cf.State.Model)
	}

	out.Reset()
	errOut.Reset()
	if code := run([]string{"resume", "-model", "c11", cp}, &out, &errOut); code == 0 {
		t.Fatal("resume under a mismatched model exited 0")
	}
	if msg := errOut.String(); !strings.Contains(msg, `explored under memory model "sc"`) || !strings.Contains(msg, `"c11"`) {
		t.Errorf("mismatch error should name both models:\n%s", msg)
	}

	out.Reset()
	errOut.Reset()
	if code := run([]string{"resume", "-workers", "2", cp}, &out, &errOut); code != 0 {
		t.Fatalf("flagless resume exited %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "exhausted") {
		t.Errorf("adopted-model resume did not exhaust:\n%s", out.String())
	}
}

// TestResumeReduceMismatchCLI: explore's default reduction set is stamped
// into the checkpoint; a flagless resume adopts it, an explicit -reduce
// that differs is refused naming both sets, and -verify is refused under
// the rf reduction.
func TestResumeReduceMismatchCLI(t *testing.T) {
	cp := filepath.Join(t.TempDir(), "cp.json")
	var out, errOut strings.Builder
	if code := run([]string{"explore", "-max", "100", "-checkpoint", cp, "M&S Queue"}, &out, &errOut); code != 0 {
		t.Fatalf("explore exited %d: %s", code, errOut.String())
	}
	cf, err := harness.ReadCheckpointFile(cp)
	if err != nil {
		t.Fatal(err)
	}
	if cf.State.Reduce != checker.ReduceAll() {
		t.Fatalf("checkpoint reduce = %v, want all", cf.State.Reduce)
	}

	errOut.Reset()
	if code := run([]string{"resume", "-reduce=none", cp}, &out, &errOut); code == 0 {
		t.Fatal("resume under a mismatched reduction set exited 0")
	}
	if msg := errOut.String(); !strings.Contains(msg, `"rf,symmetry,spinloop"`) || !strings.Contains(msg, `"none"`) {
		t.Errorf("mismatch error should name both sets:\n%s", msg)
	}
	if code := run([]string{"resume", "-verify", cp}, &out, &errOut); code != 2 {
		t.Errorf("resume -verify under rf exited %d, want 2", code)
	}

	out.Reset()
	errOut.Reset()
	if code := run([]string{"resume", cp}, &out, &errOut); code != 0 {
		t.Fatalf("flagless resume exited %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "exhausted") || !strings.Contains(out.String(), "rf classes") {
		t.Errorf("adopted-reduction resume did not exhaust reduced:\n%s", out.String())
	}
}
