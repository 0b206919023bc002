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
// envelope. The checker's Checkpoint serializes the decision frontier and
// the model and reduction set it was explored under, but not which
// program it explored, so the envelope pins the benchmark name.

// CheckpointFileSchema identifies the on-disk envelope layout. The inner
// state carries the checker's own schema (checker.CheckpointSchema) and
// is validated separately. v2 moved the model and reduction set from the
// envelope into the state, so a reader that predates v2 refuses the file
// instead of resuming it under the wrong identity.
const CheckpointFileSchema = "cdsspec-checkpoint-file/v2"

// checkpointFileSchemaV1 is the envelope written before v2. It recorded
// the model and reduction set beside the state, and also "nocache",
// "workers" and "nokernelopts" fields, which no longer affect a resume.
const checkpointFileSchemaV1 = "cdsspec-checkpoint-file/v1"

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
	// State is the checker's frontier snapshot, including the model and
	// reduction set a resume must match.
	State *checker.Checkpoint `json:"state"`
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
// inner state (a model or reduction it names must exist), and that the
// benchmark still exists in the registry. A v1 envelope is returned as
// v2, its model and reduction set moved into the state.
func ReadCheckpointFile(path string) (*CheckpointFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading checkpoint: %w", err)
	}
	var cf CheckpointFile
	if err := json.Unmarshal(data, &cf); err != nil {
		return nil, fmt.Errorf("decoding checkpoint %s: %w", path, err)
	}
	switch cf.Schema {
	case CheckpointFileSchema:
	case checkpointFileSchemaV1:
		// An absent model means c11 and an absent reduce no reduction,
		// the same defaults the state applies.
		var v1 struct {
			Model  model.ID          `json:"model"`
			Reduce checker.ReduceSet `json:"reduce"`
		}
		if err := json.Unmarshal(data, &v1); err != nil {
			return nil, fmt.Errorf("decoding checkpoint %s: %w", path, err)
		}
		if cf.State != nil {
			cf.State.Model, cf.State.Reduce = v1.Model, v1.Reduce
		}
		cf.Schema = CheckpointFileSchema
	default:
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
	return &cf, nil
}
