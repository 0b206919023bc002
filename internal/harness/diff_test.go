package harness

import (
	"strings"
	"testing"

	"repro/internal/checker"
	"repro/internal/checker/model"
)

// TestModelDiffSB is the acceptance check for a model diff: the
// store-buffering litmus must report at least one outcome present under
// c11 and absent under sc — specifically the relaxed r1=0 r2=0 weak
// behavior — and nothing sc-only.
func TestModelDiffSB(t *testing.T) {
	rep, err := RunDiff("SB", Options{Model: model.C11}, Options{Model: model.SC})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.A.Exhausted || !rep.B.Exhausted {
		t.Fatalf("legs not exhausted: %+v", rep)
	}
	if rep.OnlyACount < 1 {
		t.Fatalf("expected at least one c11-only outcome, got %+v", rep)
	}
	found := false
	for _, o := range rep.OnlyA {
		if o == "r1=0 r2=0" {
			found = true
		}
	}
	if !found {
		t.Errorf("r1=0 r2=0 not among the c11-only outcomes: %v", rep.OnlyA)
	}
	if rep.OnlyBCount != 0 {
		t.Errorf("sc admitted outcomes c11 forbids: %v", rep.OnlyB)
	}
	if rep.Common != 3 {
		t.Errorf("SB interleaving outcomes should be the 3 common ones, got %d", rep.Common)
	}
	if rep.B.Executions >= rep.A.Executions || rep.Ratio <= 1 {
		t.Errorf("sc should explore fewer executions than c11: %d vs %d (ratio %.2f)",
			rep.B.Executions, rep.A.Executions, rep.Ratio)
	}
	if rep.Identical {
		t.Error("SB under c11 and sc reported identical")
	}
	if rep.A.Model != model.C11 || rep.B.Model != model.SC || rep.A.Reduce != "none" || rep.B.Reduce != "none" {
		t.Errorf("legs record the wrong configuration: a=%s/%s b=%s/%s", rep.A.Model, rep.A.Reduce, rep.B.Model, rep.B.Reduce)
	}
	out := rep.Render()
	for _, want := range []string{"diff SB (litmus): c11 vs sc", "only c11: r1=0 r2=0", "behaviors: 3 common, 1 only under c11"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q:\n%s", want, out)
		}
	}
}

// TestModelDiffBenchmark runs a benchmark target: on SPSC Queue sc's
// spec-fingerprint behaviors are a subset of c11's, with a shared common
// core and no failures on either side. (Fingerprint inclusion does not
// hold on every benchmark — the ~r~ relation a fingerprint hashes is
// model-dependent; EXPERIMENTS.md has the per-benchmark table.)
func TestModelDiffBenchmark(t *testing.T) {
	rep, err := RunDiff("SPSC Queue", Options{Model: model.C11}, Options{Model: model.SC})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Kind != "benchmark" {
		t.Fatalf("kind = %q, want benchmark", rep.Kind)
	}
	if !rep.A.Exhausted || !rep.B.Exhausted {
		t.Fatalf("legs not exhausted: %+v", rep)
	}
	if rep.Common < 1 {
		t.Errorf("no common behaviors between c11 and sc: %+v", rep)
	}
	if rep.OnlyBCount != 0 {
		t.Errorf("sc produced spec behaviors c11 cannot: %v", rep.OnlyB)
	}
	if len(rep.FailOnlyA) != 0 || len(rep.FailOnlyB) != 0 || rep.FailCommon != 0 {
		t.Errorf("SPSC Queue should be failure-free under both models: %+v", rep)
	}
}

// TestModelDiffSelf diffs a model against itself: identical legs, empty
// diff. This doubles as a determinism check on the fingerprint keys.
func TestModelDiffSelf(t *testing.T) {
	rep, err := RunDiff("MP", Options{Model: model.SC}, Options{Model: model.SC})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OnlyACount != 0 || rep.OnlyBCount != 0 || !rep.Identical || rep.Ratio != 1 {
		t.Errorf("self-diff is non-empty: %+v", rep)
	}
	if !strings.Contains(rep.Render(), "identical: same behavior and failure-signature sets") {
		t.Errorf("Render of an empty diff should say so:\n%s", rep.Render())
	}
}

// TestReduceDiffRender: a reduction diff (one model, B reduced) names the
// legs by reduction set and reports B's reduction counters.
func TestReduceDiffRender(t *testing.T) {
	rep, err := RunDiff("MP", Options{}, Options{Reduce: checker.ReduceAll()})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Identical || rep.B.Reduce != "rf,symmetry,spinloop" {
		t.Fatalf("unexpected report: %+v", rep)
	}
	out := rep.Render()
	for _, want := range []string{"diff MP (litmus): reduce=none vs reduce=rf,symmetry,spinloop", "rf-equiv prunes", "identical"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q:\n%s", want, out)
		}
	}
}

// TestModelDiffErrors pins the error surface: unknown targets list the
// valid names, unknown models are rejected before any exploration.
func TestModelDiffErrors(t *testing.T) {
	_, err := RunDiff("nope", Options{}, Options{Model: model.SC})
	if err == nil || !strings.Contains(err.Error(), "unknown target") || !strings.Contains(err.Error(), "SB") {
		t.Errorf("unknown target error should list valid names, got: %v", err)
	}
	for _, legs := range [][2]Options{{{Model: "tso"}, {Model: model.SC}}, {{}, {Model: "tso"}}} {
		_, err = RunDiff("SB", legs[0], legs[1])
		if err == nil || !strings.Contains(err.Error(), "unknown memory model") {
			t.Errorf("unknown model error missing, got: %v", err)
		}
	}
}

// TestLitmusRegistry: every litmus target resolves and no litmus name
// shadows a benchmark name.
func TestLitmusRegistry(t *testing.T) {
	for _, lt := range LitmusTests() {
		if LitmusByName(lt.Name) == nil {
			t.Errorf("litmus %q does not resolve", lt.Name)
		}
		if BenchmarkByName(lt.Name) != nil {
			t.Errorf("litmus %q shadows a benchmark of the same name", lt.Name)
		}
	}
}
