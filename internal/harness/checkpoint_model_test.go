package harness

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/checker"
	"repro/internal/checker/model"
)

// captureCheckpoint runs the SPSC workload under cfg far enough to cut a
// valid frontier snapshot for the envelope tests.
func captureCheckpoint(t *testing.T, cfg checker.Config) *checker.Checkpoint {
	t.Helper()
	var cp *checker.Checkpoint
	cfg.Checkpoint = func(c *checker.Checkpoint) { cp = c }
	exploreBench(BenchmarkByName("SPSC Queue"), cfg)
	if cp == nil {
		t.Fatal("exploration delivered no checkpoint")
	}
	return cp
}

// v1Envelope renders cp the way a v1 writer did: the state without the
// model and reduce fields, and fields (e.g. `"model":"sc",`) beside it.
func v1Envelope(t *testing.T, benchmark string, cp *checker.Checkpoint, fields string) string {
	t.Helper()
	blob, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	var state map[string]json.RawMessage
	if err := json.Unmarshal(blob, &state); err != nil {
		t.Fatal(err)
	}
	delete(state, "model")
	delete(state, "reduce")
	if blob, err = json.Marshal(state); err != nil {
		t.Fatal(err)
	}
	return `{"schema":"` + checkpointFileSchemaV1 + `","benchmark":"` + benchmark + `",` + fields + `"state":` + string(blob) + `}`
}

// writeFile writes content to name under dir and returns its path.
func writeFile(t *testing.T, dir, name, content string) string {
	t.Helper()
	p := filepath.Join(dir, name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestCheckpointModelRoundTrip: the state records the model it was
// explored under, the envelope round-trips it, and a resume under the
// same model is accepted.
func TestCheckpointModelRoundTrip(t *testing.T) {
	cp := captureCheckpoint(t, checker.Config{Model: model.SC})
	path := filepath.Join(t.TempDir(), "cp.json")
	if err := WriteCheckpointFile(path, &CheckpointFile{Schema: CheckpointFileSchema, Benchmark: "SPSC Queue", State: cp}); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.State.Model != model.SC {
		t.Fatalf("state model = %q, want sc", got.State.Model)
	}
	if err := (&checker.Config{Model: model.SC, ResumeFrom: got.State}).Validate(); err != nil {
		t.Errorf("same-model resume rejected: %v", err)
	}
}

// TestCheckpointModelBackCompat: v1 envelopes written before model
// identity existed omit the model and reduce fields; they read back as c11
// and unreduced, and resume under c11, spelled or defaulted.
func TestCheckpointModelBackCompat(t *testing.T) {
	cp := captureCheckpoint(t, checker.Config{})
	path := writeFile(t, t.TempDir(), "cp.json", v1Envelope(t, "SPSC Queue", cp, ""))
	got, err := ReadCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != CheckpointFileSchema {
		t.Errorf("v1 envelope read as schema %q, want %q", got.Schema, CheckpointFileSchema)
	}
	if got.State.Model.OrDefault() != model.C11 || got.State.Reduce.Any() {
		t.Fatalf("absent fields resolved to model %q, reduce %v; want c11, none", got.State.Model, got.State.Reduce)
	}
	for _, id := range []model.ID{"", model.C11} {
		if err := (&checker.Config{Model: id, ResumeFrom: got.State}).Validate(); err != nil {
			t.Errorf("resume of a v1 envelope under %q rejected: %v", id, err)
		}
	}
	if err := (&checker.Config{Model: model.SCAtomics, ResumeFrom: got.State}).Validate(); err == nil {
		t.Error("scatomics resume of a c11 envelope accepted")
	}
}

// TestCheckpointModelGarbage: a checkpoint naming an unknown model is
// rejected at read time, before any resume logic runs, whether the name
// sits in a v1 envelope or in the state.
func TestCheckpointModelGarbage(t *testing.T) {
	cp := captureCheckpoint(t, checker.Config{})
	dir := t.TempDir()
	v1 := writeFile(t, dir, "v1.json", v1Envelope(t, "SPSC Queue", cp, `"model":"tso",`))
	cp.Model = "tso"
	v2 := filepath.Join(dir, "v2.json")
	if err := WriteCheckpointFile(v2, &CheckpointFile{Schema: CheckpointFileSchema, Benchmark: "SPSC Queue", State: cp}); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{v1, v2} {
		if _, err := ReadCheckpointFile(path); err == nil || !strings.Contains(err.Error(), "unknown memory model") {
			t.Errorf("%s: garbage model accepted at read time: %v", filepath.Base(path), err)
		}
	}
}

// TestCheckpointV1EnvelopeResume: a v1 envelope that records its model and
// reduction set beside the state, with the retired nocache and workers
// fields, reads as a state under that identity. Its resume is
// bit-identical to resuming the same frontier stamped by the engine, and
// matches the uninterrupted run on every count and counter but the
// spec-cache split and RFClasses: checkpoints carry neither the spec
// cache nor the rf seen-set, whose size RFClasses is, so the resumed run
// counts only the classes it registers itself.
func TestCheckpointV1EnvelopeResume(t *testing.T) {
	red := checker.ReduceSet{RF: true, Spinloop: true}
	b := BenchmarkByName("RCU")
	full := exploreBench(b, checker.Config{Model: model.SC, Reduce: red})
	var cut *checker.Checkpoint
	exploreBench(b, checker.Config{
		Model:         model.SC,
		Reduce:        red,
		MaxExecutions: full.Executions / 2,
		Checkpoint:    func(c *checker.Checkpoint) { cut = c },
	})
	if cut == nil || cut.Complete() {
		t.Fatalf("bad cut: checkpoint %v", cut)
	}
	path := writeFile(t, t.TempDir(), "cp.json",
		v1Envelope(t, "RCU", cut, `"model":"sc","reduce":"rf,spinloop","nocache":true,"workers":4,`))
	cf, err := ReadCheckpointFile(path)
	if err != nil {
		t.Fatalf("v1 envelope rejected: %v", err)
	}
	if cf.State.Model != model.SC || cf.State.Reduce != red {
		t.Fatalf("v1 identity read as model %q, reduce %v; want sc, rf,spinloop", cf.State.Model, cf.State.Reduce)
	}
	cfg := checker.Config{Model: model.SC, Reduce: red}
	cfg.ResumeFrom = cf.State
	resumed := exploreBench(b, cfg)
	cfg.ResumeFrom = cut
	requireSameResult(t, "v1 envelope vs stamped state", exploreBench(b, cfg), resumed, false)
	resumed.Stats.RFClasses = full.Stats.RFClasses
	requireSameResult(t, "v1 envelope vs uninterrupted", full, resumed, true)
}
