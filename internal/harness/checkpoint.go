package harness

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/checker"
	"repro/internal/checker/model"
)

// This file wraps the checker's exploration checkpoint in an on-disk
// envelope. The checker's Checkpoint serializes only the decision
// frontier — it has no idea which benchmark it belongs to — so the
// envelope pins the benchmark name and the spec-affecting switches, and
// Read refuses to resume a checkpoint under a configuration that would
// change the explored space (resuming a -nocache checkpoint with the
// cache on would, for instance, break the spec_cache_* counters' bit-
// identity guarantee).

// CheckpointFileSchema identifies the on-disk envelope layout. The inner
// state carries the checker's own schema (checker.CheckpointSchema) and
// is validated separately.
const CheckpointFileSchema = "cdsspec-checkpoint-file/v1"

// ResumeComparableStats normalizes a Stats record for comparison across
// a checkpoint/resume boundary: timings and scheduler telemetry are
// dropped (WithoutTimings), and the spec-cache hit/miss split is folded
// into SpecCacheHits as the hits+misses total. The split itself is not
// resume-stable — checkpoints carry the decision frontier but not the
// in-memory memoization caches, so a resumed run re-misses fingerprints
// it saw before the cut — but the total equals the feasible executions
// that reached the checker and must match exactly. Entries (distinct
// fingerprints, also cache-lifetime-dependent) are dropped.
func ResumeComparableStats(s checker.Stats) checker.Stats {
	s = s.WithoutTimings()
	s.SpecCacheHits += s.SpecCacheMisses
	s.SpecCacheMisses = 0
	s.SpecCacheEntries = 0
	return s
}

// CheckpointFile is the on-disk form of a suspended exploration.
type CheckpointFile struct {
	Schema string `json:"schema"`
	// Benchmark names the Figure 7 row the checkpoint belongs to; resume
	// rebuilds the program from the registry rather than trusting the
	// file.
	Benchmark string `json:"benchmark"`
	// Workers records the parallelism of the run that wrote the file —
	// informational only, a resume may use any worker count and still
	// produce the identical Result.
	Workers int `json:"workers,omitempty"`
	// Model names the consistency model the frontier was explored under.
	// Unlike the spec-cache switch it changes the explored space itself,
	// so a resume under a different model would silently mix incompatible
	// explorations — ValidateModel refuses it. Files written before model
	// identity existed omit the field; absence means c11 (the only model
	// that existed when v1 envelopes were introduced).
	Model string `json:"model,omitempty"`
	// NoCache records the spec-cache switch. It doesn't change the
	// explored space's Results, but it changes the spec_cache_* counters,
	// so a resume adopts it. Envelopes written by earlier versions may
	// also carry a "nokernelopts" field; it selected slow paths with
	// identical results, and the decoder ignores it.
	NoCache bool `json:"nocache,omitempty"`
	// Reduce records the execution-equivalence reduction set the frontier
	// was explored under (checker.ReduceSet canonical string). Like Model
	// it shapes the explored space — a reduced frontier has already pruned
	// subtrees an unreduced resume would expect to visit — so a resume
	// must match (ValidateReduce). Files written before the reduction
	// layer existed omit the field; absence means no reduction.
	Reduce string `json:"reduce,omitempty"`
	// State is the checker's frontier snapshot.
	State *checker.Checkpoint `json:"state"`
}

// ModelID resolves the envelope's model with v1 back-compat: an absent
// field means the checkpoint predates model identity and was necessarily
// explored under c11.
func (cf *CheckpointFile) ModelID() model.ID {
	return model.ID(cf.Model).OrDefault()
}

// ValidateModel checks that a resume requested under the given model can
// legally continue this checkpoint's frontier. It returns a nil error
// only when the models agree; the error spells out both sides, since the
// usual cause is an absent or mistyped -model flag.
func (cf *CheckpointFile) ValidateModel(requested model.ID) error {
	if requested.OrDefault() != cf.ModelID() {
		return fmt.Errorf("checkpoint was explored under memory model %q but resume requested %q: a frontier is only valid under the model that produced it (re-explore from scratch to switch models)",
			cf.ModelID(), requested.OrDefault())
	}
	return nil
}

// ReduceSet resolves the envelope's reduction set with back-compat: an
// absent field means the checkpoint predates the reduction layer and was
// necessarily explored unreduced (ParseReduce maps "" to the zero set).
func (cf *CheckpointFile) ReduceSet() checker.ReduceSet {
	r, err := checker.ParseReduce(cf.Reduce)
	if err != nil {
		// ReadCheckpointFile validates the field; an invalid value can only
		// reach here through a hand-built envelope.
		return checker.ReduceSet{}
	}
	return r
}

// ValidateReduce checks that a resume requested under the given reduction
// set can legally continue this checkpoint's frontier. Like the model, the
// reduction shapes the explored space: a reduced frontier has already cut
// subtrees an unreduced continuation would need to visit, and vice versa.
func (cf *CheckpointFile) ValidateReduce(requested checker.ReduceSet) error {
	if requested != cf.ReduceSet() {
		return fmt.Errorf("checkpoint was explored with reduction %q but resume requested %q: a frontier is only valid under the reduction set that produced it (re-explore from scratch to change reductions)",
			cf.ReduceSet(), requested)
	}
	return nil
}

// WriteCheckpointFile atomically and durably writes the envelope to
// path: the blob lands in a same-directory temp file first, is fsynced,
// and is renamed over the target — so a SIGKILL mid-write leaves the
// previous checkpoint intact rather than a truncated JSON document — and
// the containing directory is fsynced after the rename, so a power loss
// after Write returns cannot observe the acknowledged checkpoint missing
// (the rename itself lives in the directory's metadata, which the
// file-level fsync does not cover).
func WriteCheckpointFile(path string, cf *CheckpointFile) error {
	if path == "" {
		return fmt.Errorf("checkpoint path is empty")
	}
	blob, err := json.MarshalIndent(cf, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding checkpoint: %w", err)
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".cdsspec-checkpoint-*")
	if err != nil {
		return fmt.Errorf("creating checkpoint temp file: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(append(blob, '\n')); err != nil {
		tmp.Close()
		return fmt.Errorf("writing checkpoint: %w", err)
	}
	// Sync before rename: without it the rename can become durable
	// before the data blocks, and a crash leaves an empty or partial
	// file under the final name — exactly the torn state the temp-file
	// dance exists to prevent.
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("syncing checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("closing checkpoint temp file: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("committing checkpoint: %w", err)
	}
	return SyncDir(dir)
}

// SyncDir fsyncs a directory, making durable any renames or creates
// committed inside it. The service journal and job store share it with
// the checkpoint writer.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("opening directory for sync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("syncing directory %s: %w", dir, err)
	}
	return nil
}

// ReadCheckpointFile reads and fully validates a checkpoint envelope:
// the envelope schema, the presence and internal consistency of the
// inner state, and that the benchmark still exists in the registry.
func ReadCheckpointFile(path string) (*CheckpointFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading checkpoint: %w", err)
	}
	var cf CheckpointFile
	if err := json.Unmarshal(data, &cf); err != nil {
		return nil, fmt.Errorf("decoding checkpoint %s: %w", path, err)
	}
	if cf.Schema != CheckpointFileSchema {
		return nil, fmt.Errorf("%s: unsupported checkpoint schema %q (want %q)",
			path, cf.Schema, CheckpointFileSchema)
	}
	if cf.State == nil {
		return nil, fmt.Errorf("%s: checkpoint has no exploration state", path)
	}
	if err := cf.State.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if BenchmarkByName(cf.Benchmark) == nil {
		return nil, fmt.Errorf("%s: unknown benchmark %q", path, cf.Benchmark)
	}
	if _, err := model.Parse(cf.Model); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if _, err := checker.ParseReduce(cf.Reduce); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &cf, nil
}
