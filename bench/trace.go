package main

import (
	"sync"
	"time"

	"repro/internal/checker"
)

// tracer records the spans of a traced run in memory; they are written
// out when the run ends. A check is a span of its own request; each
// execution of the check is a child span, opened by the checker's
// OnRunStart hook and closed by the next OnRunStart on the same
// *checker.System (executions of one worker reuse one System) or by the
// end of the check.
type tracer struct {
	origin time.Time
	// mu guards everything below: under Parallelism > 1 the hook runs on
	// several workers at once.
	mu    sync.Mutex
	spans []spanRec
	execs []execSpan
	open  map[*checker.System]int // index in execs of each System's open span
}

type spanRec struct {
	ID    int    `json:"id"`
	Req   int    `json:"req"`
	Name  string `json:"name"`
	Label string `json:"label"`
	Pass  int    `json:"pass"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
}

type execSpan struct {
	parent     int
	start, end int64
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), open: map[*checker.System]int{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// begin opens a span and returns its id. req 0 starts a new request.
func (t *tracer) begin(name, label string, pass, req int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	if req == 0 {
		req = id
	}
	t.spans = append(t.spans, spanRec{ID: id, Req: req, Name: name, Label: label, Pass: pass, Start: t.now(), End: -1})
	return id
}

// end closes span id and the execution spans still open under it. Only
// one check runs at a time, so every open execution span is its child.
func (t *tracer) end(id int) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	for sys, i := range t.open {
		t.execs[i].end = now
		delete(t.open, sys)
	}
	s := &t.spans[id-1]
	s.End = now
	return time.Duration(s.End - s.Start)
}

// execHook returns the OnRunStart hook that records the executions of
// span parent.
func (t *tracer) execHook(parent int) func(*checker.System) {
	return func(sys *checker.System) {
		t.mu.Lock()
		defer t.mu.Unlock()
		now := t.now()
		if i, ok := t.open[sys]; ok {
			t.execs[i].end = now
		}
		t.open[sys] = len(t.execs)
		t.execs = append(t.execs, execSpan{parent: parent, start: now, end: -1})
	}
}

// execDurations returns the durations of the executions of spans named
// name.
func (t *tracer) execDurations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, e := range t.execs {
		if t.spans[e.parent-1].Name == name {
			out = append(out, float64(e.end-e.start))
		}
	}
	return out
}

// traceFile is the written form: check and bare spans as objects,
// execution spans as [parent, start_ns, end_ns] rows.
type traceFile struct {
	Env         env        `json:"env"`
	Spans       []spanRec  `json:"spans"`
	ExecColumns []string   `json:"exec_columns"`
	Execs       [][3]int64 `json:"execs"`
}

func (t *tracer) file(e env) *traceFile {
	t.mu.Lock()
	defer t.mu.Unlock()
	f := &traceFile{Env: e, Spans: t.spans, ExecColumns: []string{"parent", "start_ns", "end_ns"}}
	f.Execs = make([][3]int64, len(t.execs))
	for i, x := range t.execs {
		f.Execs[i] = [3]int64{int64(x.parent), x.start, x.end}
	}
	return f
}
