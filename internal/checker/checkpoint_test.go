package checker

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/checker/model"
)

// A frontier is only valid under the model and reduction set that
// produced it. The engine stamps both into every checkpoint, and
// Config.Validate refuses a ResumeFrom whose identity differs.

// requireResumeRefused asserts that Validate refuses cfg with an error
// naming every one of names, and that Explore panics with that error.
func requireResumeRefused(t *testing.T, cfg Config, names ...string) {
	t.Helper()
	err := cfg.Validate()
	if err == nil {
		t.Fatal("resume under a different identity accepted")
	}
	for _, name := range names {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("refusal should name %s: %v", name, err)
		}
	}
	defer func() {
		if r := recover(); r != err.Error() {
			t.Errorf("Explore panicked with %v, want %q", r, err)
		}
	}()
	Explore(cfg, manyExecProgram)
}

// TestResumeUnderOtherModelRefused: a relaxed store-buffering run cut
// after 5 executions under c11 and resumed under sc used to return 13
// executions marked exhausted; c11 explores 28 and sc 10.
func TestResumeUnderOtherModelRefused(t *testing.T) {
	cp := checkpointAt(t, Config{}, manyExecProgram, 5, 1)
	requireResumeRefused(t, Config{Model: model.SC, ResumeFrom: cp}, `"c11"`, `"sc"`)
}

// TestResumeUnreducedOfReducedRefused: the same program cut under every
// reduction and resumed unreduced used to return 27 of its 28 executions.
func TestResumeUnreducedOfReducedRefused(t *testing.T) {
	cp := checkpointAt(t, Config{Reduce: ReduceAll()}, manyExecProgram, 5, 1)
	requireResumeRefused(t, Config{ResumeFrom: cp}, `"rf,symmetry,spinloop"`, `"none"`)
}

// TestCheckpointModelMismatch: a frontier is refused under a different
// model in either direction, and the error names both models.
func TestCheckpointModelMismatch(t *testing.T) {
	sc := checkpointAt(t, Config{Model: model.SC}, manyExecProgram, 5, 1)
	requireResumeRefused(t, Config{Model: model.C11, ResumeFrom: sc}, `"sc"`, `"c11"`)
	requireResumeRefused(t, Config{ResumeFrom: sc}, `"sc"`, `"c11"`)
	c11 := checkpointAt(t, Config{}, manyExecProgram, 5, 1)
	requireResumeRefused(t, Config{Model: model.SCAtomics, ResumeFrom: c11}, `"c11"`, `"scatomics"`)
}

// TestCheckpointReduceIdentity: a frontier is only valid under the exact
// reduction set that produced it — a subset or superset is refused, and
// the error names both sets.
func TestCheckpointReduceIdentity(t *testing.T) {
	red := ReduceSet{RF: true, Spinloop: true}
	cp := checkpointAt(t, Config{Reduce: red}, manyExecProgram, 5, 1)
	if err := (&Config{Reduce: red, ResumeFrom: cp}).Validate(); err != nil {
		t.Errorf("matching reduction refused: %v", err)
	}
	for _, other := range []ReduceSet{{}, {RF: true}, ReduceAll()} {
		requireResumeRefused(t, Config{Reduce: other, ResumeFrom: cp}, `"rf,spinloop"`, fmt.Sprintf("%q", other))
	}
}

// TestCheckpointIdentity: the engine stamps the identity, JSON carries it
// in the form the CLI's checkpoint files show, the same identity is
// accepted spelled out or defaulted, absent fields mean c11 and no
// reduction, and unknown names are rejected when a checkpoint is read.
func TestCheckpointIdentity(t *testing.T) {
	cp := checkpointAt(t, Config{Model: model.SC, Reduce: ReduceAll()}, manyExecProgram, 5, 4)
	if cp.Model != model.SC || cp.Reduce != ReduceAll() {
		t.Fatalf("checkpoint stamped model %q, reduce %v; want sc, all", cp.Model, cp.Reduce)
	}
	blob, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"model":"sc"`, `"reduce":"rf,symmetry,spinloop"`} {
		if !strings.Contains(string(blob), want) {
			t.Errorf("checkpoint JSON lacks %s", want)
		}
	}
	var back Checkpoint
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if err := (&Config{Model: model.SC, Reduce: ReduceAll(), ResumeFrom: &back}).Validate(); err != nil {
		t.Errorf("same identity refused after a JSON round trip: %v", err)
	}

	c11 := checkpointAt(t, Config{}, manyExecProgram, 5, 1)
	if c11.Model != model.C11 || c11.Reduce.Any() {
		t.Errorf("default run stamped model %q, reduce %v; want c11, none", c11.Model, c11.Reduce)
	}
	for _, id := range []model.ID{"", model.C11} {
		if err := (&Config{Model: id, ResumeFrom: c11}).Validate(); err != nil {
			t.Errorf("c11 frontier refused under model %q: %v", id, err)
		}
	}

	var old Checkpoint
	if err := json.Unmarshal([]byte(`{"schema":"`+CheckpointSchema+`","cells":[{"pending":true}]}`), &old); err != nil {
		t.Fatal(err)
	}
	if old.Model.OrDefault() != model.C11 || old.Reduce.Any() {
		t.Errorf("absent fields read as model %q, reduce %v; want c11, none", old.Model, old.Reduce)
	}
	if err := (&Config{ResumeFrom: &old}).Validate(); err != nil {
		t.Errorf("unstamped frontier refused under the defaults: %v", err)
	}
	requireResumeRefused(t, Config{Model: model.SC, ResumeFrom: &old}, `"c11"`, `"sc"`)
	requireResumeRefused(t, Config{Reduce: ReduceSet{RF: true}, ResumeFrom: &old}, `"none"`, `"rf"`)

	if err := json.Unmarshal([]byte(`{"schema":"`+CheckpointSchema+`","reduce":"bogus","cells":[{"pending":true}]}`), &old); err == nil {
		t.Error("unknown reduction accepted when read")
	}
	tso := Checkpoint{Schema: CheckpointSchema, Model: "tso", Cells: []CheckpointCell{{Pending: true}}}
	if err := tso.Validate(); err == nil || !strings.Contains(err.Error(), "unknown memory model") {
		t.Errorf("unknown model accepted by Validate: %v", err)
	}
}

// TestProgressAfterResume: a resumed run's snapshots count from the
// checkpoint's completed work, so the final snapshot equals the Result,
// as Progress documents. The tracker used to start at zero: this program
// cut at 10 and resumed reported 18 executions and 14 feasible against
// the Result's 28 and 24.
func TestProgressAfterResume(t *testing.T) {
	// Every feasible execution reports a spec-cache hit, and those with
	// an even action count fail, so every mirrored counter moves.
	onExec := func(sys *System) []*Failure {
		sys.ReportSpecStats(SpecReport{CacheHits: 1})
		if len(sys.Actions())%2 == 0 {
			return []*Failure{{Kind: FailAssertion, Msg: "even"}}
		}
		return nil
	}
	for _, red := range []ReduceSet{{}, ReduceAll()} {
		for _, par := range []int{1, 4} {
			name := fmt.Sprintf("reduce=%s par=%d", red, par)
			cp := checkpointAt(t, Config{Reduce: red, OnExecution: onExec, MaxFailures: 1 << 20}, manyExecProgram, 10, 1)
			var last Progress
			res := Explore(Config{
				Reduce:      red,
				Parallelism: par,
				ResumeFrom:  cp,
				OnExecution: onExec,
				MaxFailures: 1 << 20,
				Progress: func(p Progress) {
					if p.Final {
						last = p
					}
				},
			}, manyExecProgram)
			want := Progress{
				Executions:     res.Executions,
				Feasible:       res.Feasible,
				Pruned:         res.Pruned,
				Failures:       res.FailureCount,
				SpecCacheHits:  res.Stats.SpecCacheHits,
				Steals:         res.Stats.Steals,
				RFEquivPrunes:  res.Stats.RFEquivPrunes,
				SymmetryPrunes: res.Stats.SymmetryPrunes,
				SpinloopBounds: res.Stats.SpinloopBounds,
				RFClasses:      res.Stats.RFClasses,
				Final:          true,
			}
			got := last
			got.Frontier, got.Elapsed, got.ExecsPerSec, got.ETA = 0, 0, 0, 0
			if got != want {
				t.Errorf("%s: final snapshot %+v, want the Result's %+v", name, got, want)
			}
			if res.Executions <= cp.Executions || res.Stats.SpecCacheHits == 0 || res.FailureCount == 0 ||
				red.RF && res.Stats.RFEquivPrunes == 0 {
				t.Errorf("%s: resume did not exercise the counters: %v", name, res)
			}
			if last.Elapsed < cp.Elapsed {
				t.Errorf("%s: final Elapsed %v below the checkpoint's %v", name, last.Elapsed, cp.Elapsed)
			}
		}
	}
}
