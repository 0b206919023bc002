package service

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/checker"
	"repro/internal/checker/model"
	"repro/internal/core"
	"repro/internal/harness"
)

// startServer opens and starts a daemon against dir, registering
// cleanup. Tests drive it through the HTTP client like real callers.
func startServer(t *testing.T, dir string, workers int) (*Server, *Client) {
	t.Helper()
	srv, err := Open(Config{
		StateDir:        dir,
		Workers:         workers,
		CheckpointEvery: 10 * time.Millisecond,
		ProgressEvery:   5 * time.Millisecond,
		Logf:            t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	return srv, &Client{Base: srv.Addr()}
}

// waitState polls until the job reaches want (or any terminal state)
// and returns its view.
func waitState(t *testing.T, cl *Client, id string, want JobState) JobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		v, err := cl.Job(id)
		if err != nil {
			t.Fatalf("polling %s: %v", id, err)
		}
		if v.State == want {
			return v
		}
		if v.State.Terminal() {
			t.Fatalf("job %s reached %s (error %q) while waiting for %s", id, v.State, v.Error, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
	return JobView{}
}

// exploreReference runs the benchmark's primary workload directly, the
// way the daemon's explore jobs do, as the bit-identity reference.
func exploreReference(t *testing.T, name string) *checker.Result {
	t.Helper()
	b := harness.BenchmarkByName(name)
	if b == nil {
		t.Fatalf("benchmark %q missing", name)
	}
	return core.Explore(b.Spec(), checker.Config{}, b.Progs(b.Orders())[0])
}

// readResult loads and decodes a job's persisted result.json.
func readResult(t *testing.T, dir, id string) *resultPayload {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join(dir, "jobs", id, "result.json"))
	if err != nil {
		t.Fatal(err)
	}
	var p resultPayload
	if err := json.Unmarshal(blob, &p); err != nil {
		t.Fatalf("decoding result.json: %v", err)
	}
	return &p
}

// requireResumeIdentical asserts the resume-boundary bit-identity
// contract between a reference run and a (possibly resumed) job result.
func requireResumeIdentical(t *testing.T, name string, want, got *checker.Result) {
	t.Helper()
	if want.Executions != got.Executions || want.Feasible != got.Feasible ||
		want.Pruned != got.Pruned || want.Exhausted != got.Exhausted ||
		want.FailureCount != got.FailureCount {
		t.Fatalf("%s: result differs:\n  want %v (exhausted=%v)\n  got  %v (exhausted=%v)",
			name, want, want.Exhausted, got, got.Exhausted)
	}
	ws, gs := harness.ResumeComparableStats(want.Stats), harness.ResumeComparableStats(got.Stats)
	if ws != gs {
		t.Fatalf("%s: stats differ:\n  want %+v\n  got  %+v", name, ws, gs)
	}
}

// TestServiceExploreJob: submit → run → done, with the persisted result
// bit-identical to a direct exploration and the metrics reflecting it.
func TestServiceExploreJob(t *testing.T) {
	dir := t.TempDir()
	srv, cl := startServer(t, dir, 2)
	defer srv.Drain()

	if err := cl.Health(); err != nil {
		t.Fatal(err)
	}
	v, err := cl.Submit(JobSpec{Benchmark: "RCU", Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if v.ID == "" || v.State != StateQueued && v.State != StateRunning {
		t.Fatalf("bad submit ack: %+v", v)
	}
	final := waitState(t, cl, v.ID, StateDone)
	if final.Summary == nil || !final.Summary.Exhausted {
		t.Fatalf("done job has no exhausted summary: %+v", final.Summary)
	}

	ref := exploreReference(t, "RCU")
	payload := readResult(t, dir, v.ID)
	if payload.Kind != KindExplore || payload.Benchmark != "RCU" || payload.Result == nil {
		t.Fatalf("bad result payload: kind=%s benchmark=%s", payload.Kind, payload.Benchmark)
	}
	requireResumeIdentical(t, "RCU", ref, payload.Result)

	m, err := cl.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.Schema != MetricsSchema || m.JobsByState["done"] != 1 || m.Executions != ref.Executions {
		t.Fatalf("metrics don't reflect the finished job: %+v", m)
	}
}

// TestServiceFastAndTriageJobs: the other two kinds run to done and
// persist kind-appropriate payloads.
func TestServiceFastAndTriageJobs(t *testing.T) {
	dir := t.TempDir()
	srv, cl := startServer(t, dir, 1)
	defer srv.Drain()

	fast, err := cl.Submit(JobSpec{Kind: KindFast, Benchmark: "SPSC Queue", Seed: 7, MaxExecutions: 200})
	if err != nil {
		t.Fatal(err)
	}
	tri, err := cl.Submit(JobSpec{Kind: KindTriage, Benchmark: "Ticket Lock", Seed: 1, Count: 4, FastRuns: 50})
	if err != nil {
		t.Fatal(err)
	}

	fv := waitState(t, cl, fast.ID, StateDone)
	if fv.Summary == nil || fv.Summary.Executions != 200 {
		t.Fatalf("fast job summary: %+v", fv.Summary)
	}
	if p := readResult(t, dir, fast.ID); p.Kind != KindFast || p.Result == nil {
		t.Fatalf("fast payload: %+v", p)
	}

	tv := waitState(t, cl, tri.ID, StateDone)
	if tv.Summary == nil || tv.Summary.Screened != 4 {
		t.Fatalf("triage job summary: %+v", tv.Summary)
	}
	if p := readResult(t, dir, tri.ID); p.Kind != KindTriage || p.Triage == nil || p.Triage.Screened != 4 {
		t.Fatalf("triage payload: %+v", p)
	}
}

// TestServiceSubmitValidation: the API boundary rejects bad specs and
// unknown jobs without creating journal entries.
func TestServiceSubmitValidation(t *testing.T) {
	dir := t.TempDir()
	srv, cl := startServer(t, dir, 1)
	defer srv.Drain()

	bad := []JobSpec{
		{},                                 // no benchmark
		{Benchmark: "No Such Structure"},   // unknown benchmark
		{Benchmark: "RCU", Kind: "exhume"}, // unknown kind
		{Benchmark: "RCU", Model: "tso"},   // unknown model
		{Benchmark: "RCU", MaxExecutions: -1},
		{Benchmark: "RCU", Deadline: -time.Second},
	}
	for i, spec := range bad {
		if _, err := cl.Submit(spec); err == nil {
			t.Errorf("bad spec %d accepted: %+v", i, spec)
		}
	}
	if _, err := cl.Job("j999999"); err == nil || !strings.Contains(err.Error(), "unknown job") {
		t.Errorf("unknown job lookup: %v", err)
	}
	if _, err := cl.Cancel("j999999"); err == nil {
		t.Error("canceling an unknown job succeeded")
	}
	jobs, err := cl.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 0 {
		t.Fatalf("rejected submissions created jobs: %+v", jobs)
	}
}

// TestServiceCancel: canceling a queued job is immediate; canceling a
// running one interrupts the engine; canceling a terminal job errors.
func TestServiceCancel(t *testing.T) {
	dir := t.TempDir()
	srv, cl := startServer(t, dir, 1) // one worker, so the second job queues
	defer srv.Drain()

	running, err := cl.Submit(JobSpec{Benchmark: "Linux RW Lock"})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := cl.Submit(JobSpec{Benchmark: "Seqlock"})
	if err != nil {
		t.Fatal(err)
	}

	if _, err := cl.Cancel(queued.ID); err != nil {
		t.Fatalf("canceling queued job: %v", err)
	}
	if v, _ := cl.Job(queued.ID); v.State != StateCanceled {
		t.Fatalf("queued job after cancel: %s", v.State)
	}
	if _, err := cl.Cancel(queued.ID); err == nil {
		t.Error("canceling a terminal job succeeded")
	}

	waitState(t, cl, running.ID, StateRunning)
	if _, err := cl.Cancel(running.ID); err != nil {
		t.Fatalf("canceling running job: %v", err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		v, err := cl.Job(running.ID)
		if err != nil {
			t.Fatal(err)
		}
		if v.State.Terminal() {
			if v.State != StateCanceled {
				t.Fatalf("canceled running job landed in %s", v.State)
			}
			if v.Summary == nil || v.Summary.Exhausted {
				t.Fatalf("canceled job should report a partial summary: %+v", v.Summary)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("cancel never took effect")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestServiceDeadline: a job whose wall-clock budget expires lands in
// the first-class deadline state with its partial result persisted.
func TestServiceDeadline(t *testing.T) {
	dir := t.TempDir()
	srv, cl := startServer(t, dir, 1)
	defer srv.Drain()

	v, err := cl.Submit(JobSpec{Benchmark: "Seqlock", Deadline: 80 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		cur, err := cl.Job(v.ID)
		if err != nil {
			t.Fatal(err)
		}
		if cur.State.Terminal() {
			if cur.State != StateDeadline {
				t.Fatalf("deadline job landed in %s (error %q)", cur.State, cur.Error)
			}
			if cur.Summary == nil || cur.Summary.Exhausted {
				t.Fatalf("deadline summary should be partial: %+v", cur.Summary)
			}
			if p := readResult(t, dir, v.ID); p.Result == nil || p.Result.Exhausted {
				t.Fatalf("deadline job result should be partial: %+v", p.Result)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("deadline never fired")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServiceWatch: the SSE stream delivers progress and ends with the
// terminal event carrying the summary.
func TestServiceWatch(t *testing.T) {
	dir := t.TempDir()
	srv, cl := startServer(t, dir, 1)
	defer srv.Drain()

	v, err := cl.Submit(JobSpec{Benchmark: "Linux RW Lock"})
	if err != nil {
		t.Fatal(err)
	}
	var progressEvents int
	last, err := cl.Watch(v.ID, func(ev Event) bool {
		if ev.Progress != nil {
			progressEvents++
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if last.State != StateDone || last.Summary == nil {
		t.Fatalf("watch ended on %s (summary %v)", last.State, last.Summary)
	}
	if progressEvents == 0 {
		t.Error("watch saw no progress events over a ~250ms exploration")
	}
	if _, err := cl.Watch("j999999", nil); err == nil {
		t.Error("watching an unknown job succeeded")
	}
}

// TestServiceMetricsRunningJobs: the metrics read a running job's
// progress Stats the way they read a finished job's summary. They used to
// add a running job's spec-cache hits but none of its misses or busy
// time, so any running job pushed the hit rate to 100%.
func TestServiceMetricsRunningJobs(t *testing.T) {
	running := &job{id: "j000001", state: StateRunning, progress: &checker.Progress{
		Executions: 10, ExecsPerSec: 100,
		Stats: checker.Stats{SpecCacheHits: 3, SpecCacheMisses: 1, Steals: 2, WorkerBusy: time.Second},
	}}
	done := &job{id: "j000002", state: StateDone, summary: &Summary{
		Executions: 20,
		Stats:      &checker.Stats{SpecCacheHits: 1, SpecCacheMisses: 3, Steals: 5, WorkerBusy: 2 * time.Second},
	}}
	m := (&Server{order: []*job{running, done}}).Metrics()
	if m.SpecCacheHits != 4 || m.SpecCacheMisses != 4 || m.CacheHitRate != 50 {
		t.Errorf("spec cache: %d hits, %d misses, %d%%; want 4, 4, 50%%", m.SpecCacheHits, m.SpecCacheMisses, m.CacheHitRate)
	}
	if m.Executions != 30 || m.ExecsPerSec != 100 || m.Steals != 7 || m.WorkerBusy != 3*time.Second {
		t.Errorf("metrics %+v, want 30 executions at 100/s, 7 steals, 3s busy", m)
	}
}

// TestServiceDrainResume: the in-process half of the restart-recovery
// contract. Drain a daemon mid-exploration (job suspends with a
// checkpoint), reopen the same state directory, and the resumed job's
// final result is bit-identical to an uninterrupted run.
func TestServiceDrainResume(t *testing.T) {
	dir := t.TempDir()
	srv, cl := startServer(t, dir, 1)

	v, err := cl.Submit(JobSpec{Benchmark: "Linux RW Lock", Parallelism: 2, CheckpointEvery: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the exploration is demonstrably mid-flight: far enough
	// in to have checkpointed, far from the benchmark's 6762 executions.
	deadline := time.Now().Add(30 * time.Second)
	for {
		cur, err := cl.Job(v.ID)
		if err != nil {
			t.Fatal(err)
		}
		if cur.State == StateRunning && cur.Progress != nil && cur.Progress.Executions >= 500 {
			break
		}
		if cur.State.Terminal() {
			t.Fatalf("job finished (%s) before the drain window", cur.State)
		}
		if time.Now().After(deadline) {
			t.Fatal("job never reached the drain window")
		}
		time.Sleep(time.Millisecond)
	}
	if err := srv.Drain(); err != nil {
		t.Fatal(err)
	}

	// The journal now records the suspension and the checkpoint is on
	// disk.
	if _, err := os.Stat(filepath.Join(dir, "jobs", v.ID, "checkpoint.json")); err != nil {
		t.Fatalf("suspended job has no checkpoint: %v", err)
	}

	srv2, cl2 := startServer(t, dir, 1)
	defer srv2.Drain()
	final := waitState(t, cl2, v.ID, StateDone)
	if !final.Resumed || final.Attempts != 2 {
		t.Fatalf("recovered job should be a second, resumed attempt: resumed=%v attempts=%d",
			final.Resumed, final.Attempts)
	}
	ref := exploreReference(t, "Linux RW Lock")
	payload := readResult(t, dir, v.ID)
	requireResumeIdentical(t, "Linux RW Lock drain+resume", ref, payload.Result)

	m, err := cl2.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.Resumes != 1 {
		t.Fatalf("metrics should count the resume: %+v", m)
	}
}

// TestServiceModelMismatchOnResume: a suspended job whose checkpoint was
// produced under a different model is refused on resume (the job fails
// instead of silently exploring an incompatible frontier).
func TestServiceModelMismatchOnResume(t *testing.T) {
	dir := t.TempDir()
	srv, cl := startServer(t, dir, 1)

	v, err := cl.Submit(JobSpec{Benchmark: "Seqlock", CheckpointEvery: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		cur, err := cl.Job(v.ID)
		if err != nil {
			t.Fatal(err)
		}
		if cur.State == StateRunning && cur.Progress != nil && cur.Progress.Executions >= 500 {
			break
		}
		if cur.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("no drain window: %+v", cur)
		}
		time.Sleep(time.Millisecond)
	}
	if err := srv.Drain(); err != nil {
		t.Fatal(err)
	}

	// Corrupt the world: rewrite the checkpoint's model, as if the state
	// directory were shared with a differently-configured run.
	cpPath := filepath.Join(dir, "jobs", v.ID, "checkpoint.json")
	cf, err := harness.ReadCheckpointFile(cpPath)
	if err != nil {
		t.Fatal(err)
	}
	cf.State.Model = model.SC
	if err := harness.WriteCheckpointFile(cpPath, cf); err != nil {
		t.Fatal(err)
	}

	srv2, cl2 := startServer(t, dir, 1)
	defer srv2.Drain()
	deadline = time.Now().Add(30 * time.Second)
	for {
		cur, err := cl2.Job(v.ID)
		if err != nil {
			t.Fatal(err)
		}
		if cur.State.Terminal() {
			if cur.State != StateFailed || !strings.Contains(cur.Error, "model") {
				t.Fatalf("mismatched resume should fail with a model error, got %s %q", cur.State, cur.Error)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("mismatched resume never resolved")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestServiceRecoversV1StateDir: a state directory written before the
// checkpoint envelope's v2 still recovers. Its journal submits an explore
// job with the retired "nocache" switch and suspends it, and its v1
// checkpoint records the model, nocache and workers beside the state. The
// switch is ignored and the job resumes to the uninterrupted result.
func TestServiceRecoversV1StateDir(t *testing.T) {
	dir := t.TempDir()
	const id = "j000001"
	b := harness.BenchmarkByName("M&S Queue")
	var cp *checker.Checkpoint
	core.Explore(b.Spec(), checker.Config{
		MaxExecutions: 500,
		Checkpoint:    func(c *checker.Checkpoint) { cp = c },
	}, b.Progs(b.Orders())[0])
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
	if err := os.MkdirAll(filepath.Join(dir, "jobs", id), 0o755); err != nil {
		t.Fatal(err)
	}
	envelope := `{"schema":"cdsspec-checkpoint-file/v1","benchmark":"M&S Queue","workers":2,"model":"c11","nocache":true,"state":` + string(blob) + "}\n"
	journal := `{"schema":"cdsspec-journal/v1","seq":1,"event":"submit","id":"` + id + `","spec":{"benchmark":"M&S Queue","parallelism":2,"nocache":true}}
{"seq":2,"event":"state","id":"` + id + `","state":"running"}
{"seq":3,"event":"state","id":"` + id + `","state":"suspended"}
`
	for name, content := range map[string]string{
		filepath.Join("jobs", id, "checkpoint.json"): envelope,
		"journal.jsonl": journal,
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	srv, cl := startServer(t, dir, 1)
	defer srv.Drain()
	final := waitState(t, cl, id, StateDone)
	if !final.Resumed || final.Attempts != 2 {
		t.Fatalf("recovered job should be a second, resumed attempt: resumed=%v attempts=%d", final.Resumed, final.Attempts)
	}
	requireResumeIdentical(t, "v1 state directory", exploreReference(t, "M&S Queue"), readResult(t, dir, id).Result)
}

// TestServiceDrainRejectsSubmit: a draining daemon refuses new work.
func TestServiceDrainRejectsSubmit(t *testing.T) {
	dir := t.TempDir()
	srv, cl := startServer(t, dir, 1)
	if err := srv.Drain(); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Submit(JobSpec{Benchmark: "RCU"}); err == nil {
		t.Error("draining daemon accepted a job")
	}
}

// TestStoreReplay: journal replay rebuilds the job table, tolerates a
// torn final line, and refuses corruption anywhere earlier.
func TestStoreReplay(t *testing.T) {
	dir := t.TempDir()
	st, err := openStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := &JobSpec{Benchmark: "RCU"}
	records := []journalRecord{
		{Event: "submit", ID: "j000001", Spec: spec},
		{Event: "state", ID: "j000001", State: StateRunning},
		{Event: "state", ID: "j000001", State: StateDone, Summary: &Summary{Executions: 79}},
		{Event: "submit", ID: "j000002", Spec: spec},
		{Event: "state", ID: "j000002", State: StateRunning},
		{Event: "state", ID: "j000002", State: StateSuspended},
	}
	for _, rec := range records {
		if err := st.append(rec); err != nil {
			t.Fatal(err)
		}
	}
	st.close()

	jpath := filepath.Join(dir, "journal.jsonl")
	// A torn final line — half a record, no newline — must be dropped.
	f, err := os.OpenFile(jpath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprint(f, `{"seq":7,"event":"sta`)
	f.Close()

	st2, err := openStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := st2.replay()
	if err != nil {
		t.Fatalf("torn final line should be tolerated: %v", err)
	}
	st2.close()
	if len(jobs) != 2 {
		t.Fatalf("replay found %d jobs, want 2", len(jobs))
	}
	if jobs[0].state != StateDone || jobs[0].summary == nil || jobs[0].summary.Executions != 79 {
		t.Fatalf("job 1 replayed wrong: %+v", jobs[0])
	}
	if jobs[1].state != StateSuspended || jobs[1].attempts != 1 {
		t.Fatalf("job 2 replayed wrong: state=%s attempts=%d", jobs[1].state, jobs[1].attempts)
	}

	// Garbage in the middle is corruption, not tearing.
	blob, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(blob), "\n"), "\n")
	lines[2] = `{"seq":`
	if err := os.WriteFile(jpath, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	st3, err := openStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st3.close()
	if _, err := st3.replay(); err == nil {
		t.Fatal("mid-journal corruption accepted")
	}
}
