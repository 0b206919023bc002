package service

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/checker"
	"repro/internal/core"
	"repro/internal/fuzz"
	"repro/internal/harness"
)

// Config configures a daemon instance.
type Config struct {
	// StateDir is the directory holding the journal and per-job
	// artifacts (required). Reopening an existing directory recovers its
	// queue and resumes checkpointed jobs.
	StateDir string
	// Addr is the listen address (host:port). Empty means
	// "127.0.0.1:0"; the bound address is written to StateDir/addr
	// either way, so clients and tests can discover an ephemeral port.
	Addr string
	// Workers is the job worker-pool size (default 1). Each running job
	// additionally parallelizes internally per its spec's Parallelism.
	Workers int
	// CheckpointEvery is the default periodic checkpoint interval for
	// explore jobs (default 2s; a job spec may override it).
	CheckpointEvery time.Duration
	// ProgressEvery is the progress snapshot period fed to watchers and
	// the metrics endpoint (default 250ms).
	ProgressEvery time.Duration
	// Logf, when set, receives daemon log lines (default: discard).
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 2 * time.Second
	}
	if c.ProgressEvery <= 0 {
		c.ProgressEvery = 250 * time.Millisecond
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// job is the server-side state of one submission. All mutable fields
// are guarded by the server mutex; stop is closed at most once (via
// stopOnce) with stopReason recorded first.
type job struct {
	id   string
	spec JobSpec

	state    JobState
	attempts int
	resumed  bool
	err      string
	summary  *Summary
	progress *checker.Progress

	stop       chan struct{}
	stopOnce   *sync.Once
	stopReason string // "cancel" | "drain" | "deadline"

	subs map[chan Event]struct{}
}

func (j *job) view() JobView {
	v := JobView{
		ID:       j.id,
		Spec:     j.spec,
		State:    j.state,
		Attempts: j.attempts,
		Resumed:  j.resumed,
		Error:    j.err,
		Summary:  j.summary,
	}
	if j.progress != nil && j.state == StateRunning {
		p := *j.progress
		v.Progress = &p
	}
	return v
}

// Server is one daemon instance. Open it against a state directory,
// Start it to bind the API and the worker pool, and Drain it to stop
// gracefully (running jobs checkpoint and suspend; a later Open against
// the same directory resumes them).
type Server struct {
	cfg Config
	st  *store

	mu       sync.Mutex
	cond     *sync.Cond
	jobs     map[string]*job
	order    []*job
	queue    []*job
	draining bool
	nextID   int
	// resumes counts explore attempts that continued a checkpoint.
	resumes int

	start   time.Time
	wg      sync.WaitGroup
	ln      net.Listener
	httpSrv *http.Server
}

// Open loads (or initializes) the state directory, replays the journal,
// and requeues every non-terminal job — the crash/restart recovery path.
// The server is not yet serving; call Start.
func Open(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	st, err := openStore(cfg.StateDir)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:   cfg,
		st:    st,
		jobs:  map[string]*job{},
		start: time.Now(),
	}
	s.cond = sync.NewCond(&s.mu)
	recovered, err := st.replay()
	if err != nil {
		st.close()
		return nil, err
	}
	for _, j := range recovered {
		s.jobs[j.id] = j
		s.order = append(s.order, j)
		var n int
		if _, err := fmt.Sscanf(j.id, "j%d", &n); err == nil && n > s.nextID {
			s.nextID = n
		}
		if !j.state.Terminal() {
			// Queued again, whatever the journal last said: a job caught
			// running or suspended by the crash/drain resumes from its
			// checkpoint if one exists, or restarts from scratch.
			if j.state != StateQueued {
				s.cfg.Logf("service: recovered %s job %s (%s) from state %s", j.spec.KindOrDefault(), j.id, j.spec.Benchmark, j.state)
			}
			j.state = StateQueued
			s.queue = append(s.queue, j)
		}
	}
	return s, nil
}

// Start binds the listener, writes the addr file, and starts the worker
// pool and the HTTP API.
func (s *Server) Start() error {
	addr := s.cfg.Addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("service: listening on %s: %w", addr, err)
	}
	s.ln = ln
	if err := os.WriteFile(filepath.Join(s.cfg.StateDir, "addr"), []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
		ln.Close()
		return fmt.Errorf("service: writing addr file: %w", err)
	}
	s.httpSrv = &http.Server{Handler: s.apiHandler()}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		if err := s.httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
			s.cfg.Logf("service: http server: %v", err)
		}
	}()
	for w := 0; w < s.cfg.Workers; w++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.workerLoop()
		}()
	}
	s.cfg.Logf("service: serving on %s (state %s, %d workers)", ln.Addr(), s.cfg.StateDir, s.cfg.Workers)
	return nil
}

// Addr returns the bound API address (valid after Start).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Drain stops the daemon gracefully: the queue closes, running jobs are
// interrupted with reason "drain" — their engines write a final
// checkpoint and the jobs journal as suspended — the workers and the
// HTTP server stop, and the journal is closed. A subsequent Open against
// the same state directory requeues the suspended jobs and resumes them
// from their checkpoints.
func (s *Server) Drain() error {
	s.mu.Lock()
	s.draining = true
	for _, j := range s.jobs {
		if j.state == StateRunning {
			s.stopLocked(j, "drain")
		}
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	if s.httpSrv != nil {
		s.httpSrv.Close()
	}
	s.wg.Wait()
	return s.st.close()
}

// stopLocked records the stop reason and closes the job's interrupt
// channel, exactly once. Caller holds s.mu.
func (s *Server) stopLocked(j *job, reason string) {
	if j.stop == nil {
		return
	}
	once, stop := j.stopOnce, j.stop
	if j.stopReason == "" {
		j.stopReason = reason
	}
	once.Do(func() { close(stop) })
}

// Submit validates, journals, and enqueues a job. The journal append
// happens before the job is acknowledged, so a crash immediately after
// Submit returns still knows the job.
func (s *Server) Submit(spec JobSpec) (JobView, error) {
	if err := spec.Validate(); err != nil {
		return JobView{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return JobView{}, fmt.Errorf("service: daemon is draining, not accepting jobs")
	}
	s.nextID++
	id := fmt.Sprintf("j%06d", s.nextID)
	if err := s.st.append(journalRecord{Event: "submit", ID: id, Spec: &spec}); err != nil {
		return JobView{}, err
	}
	j := &job{id: id, spec: spec, state: StateQueued}
	s.jobs[id] = j
	s.order = append(s.order, j)
	s.queue = append(s.queue, j)
	s.cond.Signal()
	s.publishLocked(j, Event{ID: id, State: StateQueued})
	return j.view(), nil
}

// Job returns one job's view.
func (s *Server) Job(id string) (JobView, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobView{}, false
	}
	return j.view(), true
}

// JobList returns every job in submit order.
func (s *Server) JobList() []JobView {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobView, len(s.order))
	for i, j := range s.order {
		out[i] = j.view()
	}
	return out
}

// Cancel requests cancellation: a queued job goes terminal immediately,
// a running one is interrupted (its engine checkpoints and returns, and
// the worker journals the terminal state). Canceling a terminal job is
// an error.
func (s *Server) Cancel(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return fmt.Errorf("service: unknown job %s", id)
	}
	switch j.state {
	case StateQueued:
		if err := s.st.append(journalRecord{Event: "state", ID: id, State: StateCanceled}); err != nil {
			return err
		}
		j.state = StateCanceled
		s.publishLocked(j, Event{ID: id, State: StateCanceled})
		return nil
	case StateRunning:
		s.stopLocked(j, "cancel")
		return nil
	default:
		return fmt.Errorf("service: job %s is already %s", id, j.state)
	}
}

// workerLoop pops queued jobs until the daemon drains.
func (s *Server) workerLoop() {
	for {
		s.mu.Lock()
		for !s.draining && len(s.queue) == 0 {
			s.cond.Wait()
		}
		if s.draining {
			s.mu.Unlock()
			return
		}
		j := s.queue[0]
		s.queue = s.queue[1:]
		if j.state != StateQueued {
			// Canceled while queued; already journaled terminal.
			s.mu.Unlock()
			continue
		}
		if err := s.st.append(journalRecord{Event: "state", ID: j.id, State: StateRunning}); err != nil {
			s.failLocked(j, fmt.Sprintf("journaling run start: %v", err))
			s.mu.Unlock()
			continue
		}
		j.state = StateRunning
		j.attempts++
		j.stop = make(chan struct{})
		j.stopOnce = &sync.Once{}
		j.stopReason = ""
		s.publishLocked(j, Event{ID: j.id, State: StateRunning})
		s.mu.Unlock()

		s.runJob(j)
	}
}

// failLocked journals a terminal failure. Caller holds s.mu. Journal
// errors at this point are logged and the in-memory state still moves,
// so the daemon never wedges on a full disk — the job is simply re-run
// after a restart.
func (s *Server) failLocked(j *job, msg string) {
	if err := s.st.append(journalRecord{Event: "state", ID: j.id, State: StateFailed, Error: msg}); err != nil {
		s.cfg.Logf("service: journaling failure of %s: %v", j.id, err)
	}
	j.state = StateFailed
	j.err = msg
	s.publishLocked(j, Event{ID: j.id, State: StateFailed, Error: msg})
}

// runJob runs one job to a terminal (or suspended) state. Called off the
// worker goroutine with the job already journaled as running.
func (s *Server) runJob(j *job) {
	var timer *time.Timer
	if d := j.spec.Deadline; d > 0 {
		timer = time.AfterFunc(d, func() {
			s.mu.Lock()
			defer s.mu.Unlock()
			if j.state == StateRunning {
				s.stopLocked(j, "deadline")
			}
		})
		defer timer.Stop()
	}

	var summary *Summary
	var payload any
	var runErr error
	switch j.spec.KindOrDefault() {
	case KindExplore:
		summary, payload, runErr = s.runExplore(j)
	case KindFast:
		summary, payload, runErr = s.runFast(j)
	case KindTriage:
		summary, payload, runErr = s.runTriage(j)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if timer != nil {
		timer.Stop()
	}
	if runErr != nil {
		s.failLocked(j, runErr.Error())
		return
	}

	state := StateDone
	switch j.stopReason {
	case "cancel":
		state = StateCanceled
	case "deadline":
		state = StateDeadline
	case "drain":
		// Not terminal: the final checkpoint is on disk (explore) or the
		// job simply reruns (fast/triage); the restart replay requeues.
		if err := s.st.append(journalRecord{Event: "state", ID: j.id, State: StateSuspended}); err != nil {
			s.cfg.Logf("service: journaling suspension of %s: %v", j.id, err)
		}
		j.state = StateSuspended
		j.summary = summary
		s.publishLocked(j, Event{ID: j.id, State: StateSuspended, Summary: summary})
		return
	}

	// Persist the full payload before journaling the terminal state:
	// once the journal says done, result.json must exist.
	if payload != nil {
		if err := s.st.writeResult(j.id, payload); err != nil {
			s.failLocked(j, err.Error())
			return
		}
	}
	if err := s.st.append(journalRecord{Event: "state", ID: j.id, State: state, Summary: summary}); err != nil {
		s.cfg.Logf("service: journaling completion of %s: %v", j.id, err)
	}
	j.state = state
	j.summary = summary
	s.publishLocked(j, Event{ID: j.id, State: state, Summary: summary})
	s.cfg.Logf("service: job %s (%s %s) -> %s", j.id, j.spec.KindOrDefault(), j.spec.Benchmark, state)
}

// resultPayload wraps a terminal payload with its job identity, so a
// result.json is self-describing.
type resultPayload struct {
	ID        string             `json:"id"`
	Kind      JobKind            `json:"kind"`
	Benchmark string             `json:"benchmark"`
	Result    *checker.Result    `json:"result,omitempty"`
	Triage    *fuzz.TriageResult `json:"triage,omitempty"`
}

// runExplore runs (or resumes) a spec-checked work-stealing exploration.
func (s *Server) runExplore(j *job) (*Summary, any, error) {
	b := harness.BenchmarkByName(j.spec.Benchmark)
	if b == nil {
		return nil, nil, fmt.Errorf("unknown benchmark %q", j.spec.Benchmark)
	}
	cpPath := s.st.checkpointPath(j.id)
	if _, err := s.st.jobDir(j.id); err != nil {
		return nil, nil, err
	}

	cfg := checker.Config{
		Model:            j.spec.ModelID(),
		MaxExecutions:    j.spec.MaxExecutions,
		Parallelism:      j.spec.Parallelism,
		ProgressInterval: s.cfg.ProgressEvery,
		Progress:         func(p checker.Progress) { s.publishProgress(j, p) },
		Interrupt:        j.stop,
	}

	cfg.Checkpoint = func(cp *checker.Checkpoint) {
		cf := &harness.CheckpointFile{Schema: harness.CheckpointFileSchema, Benchmark: b.Name, State: cp}
		if err := harness.WriteCheckpointFile(cpPath, cf); err != nil {
			s.cfg.Logf("service: checkpointing job %s: %v", j.id, err)
		}
	}
	cfg.CheckpointEvery = j.spec.CheckpointEvery
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = s.cfg.CheckpointEvery
	}

	// Resume path: a checkpoint on disk means a previous attempt was
	// suspended or crashed. The envelope must belong to this job's
	// benchmark; cfg.Validate refuses a state explored under another
	// model or reduction set (explore jobs run unreduced).
	var cf *harness.CheckpointFile
	if _, err := os.Stat(cpPath); err == nil {
		if cf, err = harness.ReadCheckpointFile(cpPath); err != nil {
			return nil, nil, fmt.Errorf("reading job checkpoint: %w", err)
		}
		if cf.Benchmark != b.Name {
			return nil, nil, fmt.Errorf("job checkpoint belongs to benchmark %q, job wants %q", cf.Benchmark, b.Name)
		}
		cfg.ResumeFrom = cf.State
	} else if !os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("probing job checkpoint: %w", err)
	}
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	if cf != nil {
		s.mu.Lock()
		j.resumed = true
		s.resumes++
		s.mu.Unlock()
		s.cfg.Logf("service: job %s resumes from checkpoint (%d pending tasks, %d executions done)",
			j.id, cf.State.Pending(), cf.State.Executions)
	}

	res := core.Explore(b.Spec(), cfg, b.Progs(b.Orders())[0])
	return summarize(res), &resultPayload{ID: j.id, Kind: KindExplore, Benchmark: b.Name, Result: res}, nil
}

// runFast runs a fast-mode screen (bare checker, built-in checks only).
func (s *Server) runFast(j *job) (*Summary, any, error) {
	b := harness.BenchmarkByName(j.spec.Benchmark)
	if b == nil {
		return nil, nil, fmt.Errorf("unknown benchmark %q", j.spec.Benchmark)
	}
	cfg := checker.Config{
		FastMode:      true,
		Model:         j.spec.ModelID(),
		Seed:          int64(j.spec.Seed),
		MaxExecutions: j.spec.MaxExecutions,
		Parallelism:   j.spec.Parallelism,
		Interrupt:     j.stop,
	}
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	res := checker.Explore(cfg, b.Progs(b.Orders())[0])
	return summarize(res), &resultPayload{ID: j.id, Kind: KindFast, Benchmark: b.Name, Result: res}, nil
}

// runTriage runs a fuzz triage campaign (screen → confirm → shrink).
func (s *Server) runTriage(j *job) (*Summary, any, error) {
	b := harness.BenchmarkByName(j.spec.Benchmark)
	if b == nil {
		return nil, nil, fmt.Errorf("unknown benchmark %q", j.spec.Benchmark)
	}
	tcfg := fuzz.TriageConfig{
		Seed:          j.spec.Seed,
		Count:         j.spec.Count,
		FastRuns:      j.spec.FastRuns,
		ConfirmBudget: j.spec.Budget,
		Shrink:        j.spec.Shrink,
		Interrupt:     j.stop,
	}
	if j.spec.Parallelism > 0 {
		tcfg.Workers = j.spec.Parallelism
	}
	tres, err := fuzz.Triage(b.FuzzTarget(), tcfg)
	if err != nil {
		return nil, nil, err
	}
	sum := &Summary{
		Executions: tres.FastExecutions + tres.ConfirmExecutions,
		Elapsed:    tres.Elapsed,
		Screened:   tres.Screened,
		Flagged:    tres.Flagged,
		Confirmed:  len(tres.Confirmed),
	}
	return sum, &resultPayload{ID: j.id, Kind: KindTriage, Benchmark: b.Name, Triage: tres}, nil
}

// publishProgress records a running job's latest snapshot and fans it
// out to watchers.
func (s *Server) publishProgress(j *job, p checker.Progress) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j.progress = &p
	if j.state == StateRunning {
		s.publishLocked(j, Event{ID: j.id, State: StateRunning, Progress: &p})
	}
}

// publishLocked fans an event out to the job's subscribers without
// blocking: a watcher that cannot keep up loses intermediate progress
// snapshots, never its subscription (terminal events fit because the
// subscriber channel outsizes the event burst a transition produces).
func (s *Server) publishLocked(j *job, ev Event) {
	for ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
	}
}

// subscribe registers a watcher channel and returns the job's current
// event so late subscribers see state immediately.
func (s *Server) subscribe(id string, ch chan Event) (Event, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return Event{}, false
	}
	if j.subs == nil {
		j.subs = map[chan Event]struct{}{}
	}
	j.subs[ch] = struct{}{}
	cur := Event{ID: j.id, State: j.state, Summary: j.summary, Error: j.err}
	if j.progress != nil && j.state == StateRunning {
		p := *j.progress
		cur.Progress = &p
	}
	return cur, true
}

func (s *Server) unsubscribe(id string, ch chan Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.jobs[id]; ok {
		delete(j.subs, ch)
	}
}

// Metrics is the counters document the /metrics endpoint serves.
type Metrics struct {
	Schema      string         `json:"schema"`
	Uptime      time.Duration  `json:"uptime_ns"`
	Workers     int            `json:"workers"`
	QueueDepth  int            `json:"queue_depth"`
	Draining    bool           `json:"draining"`
	JobsByState map[string]int `json:"jobs_by_state"`
	// Resumes counts explore attempts that continued a checkpoint.
	Resumes int `json:"resumes"`
	// Executions sums finished jobs' executions plus running jobs'
	// latest progress; ExecsPerSec sums running jobs' current rates.
	Executions  int     `json:"executions"`
	ExecsPerSec float64 `json:"execs_per_sec"`
	// Steals / WorkerBusy / spec-cache counters aggregate the scheduler
	// telemetry the same way.
	Steals          int           `json:"steals"`
	WorkerBusy      time.Duration `json:"worker_busy_ns"`
	SpecCacheHits   int           `json:"spec_cache_hits"`
	SpecCacheMisses int           `json:"spec_cache_misses"`
	// CacheHitRate is hits/(hits+misses) in percent (-1 when no cached
	// checking has happened yet).
	CacheHitRate int `json:"cache_hit_rate_percent"`
}

// MetricsSchema identifies the metrics document layout.
const MetricsSchema = "cdsspec-service-metrics/v1"

// Metrics aggregates the counters across the job table.
func (s *Server) Metrics() Metrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := Metrics{
		Schema:      MetricsSchema,
		Uptime:      time.Since(s.start),
		Workers:     s.cfg.Workers,
		QueueDepth:  len(s.queue),
		Draining:    s.draining,
		JobsByState: map[string]int{},
		Resumes:     s.resumes,
	}
	for _, j := range s.order {
		m.JobsByState[string(j.state)]++
		if j.summary != nil {
			m.Executions += j.summary.Executions
			if st := j.summary.Stats; st != nil {
				m.Steals += st.Steals
				m.WorkerBusy += st.WorkerBusy
				m.SpecCacheHits += st.SpecCacheHits
				m.SpecCacheMisses += st.SpecCacheMisses
			}
			continue
		}
		if j.state == StateRunning && j.progress != nil {
			m.Executions += j.progress.Executions
			m.ExecsPerSec += j.progress.ExecsPerSec
			m.Steals += j.progress.Steals
			m.SpecCacheHits += j.progress.SpecCacheHits
		}
	}
	if total := m.SpecCacheHits + m.SpecCacheMisses; total > 0 {
		m.CacheHitRate = m.SpecCacheHits * 100 / total
	} else {
		m.CacheHitRate = -1
	}
	return m
}
