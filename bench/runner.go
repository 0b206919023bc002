package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setupReps is how often set-up is repeated; setup_s is the median.
const setupReps = 11

// env is the header of every result record and span file.
type env struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	Go         string `json:"go"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Commit     string `json:"commit"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Passes     int    `json:"passes"`
	Traced     bool   `json:"traced"`
}

func newEnv(workload string, seed int64, seconds int, traced bool) env {
	return env{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		Go:         runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Commit:     commit(),
		Workload:   workload,
		Seed:       seed,
		Seconds:    seconds,
		Traced:     traced,
	}
}

// commit is the VCS revision the binary was built from, as the go
// command stamped it, or "unknown" outside a git checkout.
func commit() string {
	rev, dirty := "unknown", false
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
	}
	if dirty {
		rev += "-dirty"
	}
	return rev
}

// checkRec is one answered request.
type checkRec struct {
	job *job
	lat time.Duration
	out outcome
	err error // the run failed or the verdict is wrong
}

// passRec is one pass over a workload's checks.
type passRec struct {
	index  int
	traced bool
	wall   time.Duration
	cpu    time.Duration
	checks []checkRec
	// Runtime counters over the pass.
	mallocs, bytes uint64
	gcs            uint32
	gcPause        time.Duration
	// core and bare time the fig7 rows of a traced pass with and
	// without the spec layer.
	core, bare time.Duration
}

// setUp builds the workload setupReps times, each time from the
// embedded reference on, and warms it up; it returns the last build.
// Every repetition starts from a collected heap, as the first does.
//
// The warm-up runs every check of the first pass, warmExecs executions
// in all, spread evenly: it reaches every program, and on fuzz-campaign
// the cost averages over all the seed's programs instead of depending
// on the few that come first.
func setUp(name string, seed int64, l limits) (*workload, []time.Duration, error) {
	var w *workload
	times := make([]time.Duration, 0, setupReps)
	for range setupReps {
		w = nil
		runtime.GC()
		start := time.Now()
		exp, err := loadExpected()
		if err != nil {
			return nil, nil, err
		}
		if w, err = build(name, seed, exp, l); err != nil {
			return nil, nil, err
		}
		jobs := w.pass(0)
		warm := probe{budget: max(1, warmExecs/len(jobs))}
		for _, j := range jobs {
			if _, err := j.run(warm); err != nil {
				return nil, nil, fmt.Errorf("warming up %s: %w", j.label, err)
			}
		}
		times = append(times, time.Since(start))
	}
	return w, times, nil
}

// runWorkload sets the workload up and measures it for seconds: passes
// run back to back until the time is up, and the pass in flight
// completes, so there is always at least one. A traced run alternates an
// untraced pass with a traced pass over the same checks. The reference
// workload is timed after set-up and between checks (see refTimer).
func runWorkload(name string, seed int64, seconds int, traced bool, l limits, sample sampler, stdout, stderr io.Writer) (*record, *tracer, error) {
	e := newEnv(name, seed, seconds, traced)
	fmt.Fprintf(stdout, "# gomaxprocs=%d nproc=%d go=%s %s/%s commit=%s workload=%s seed=%d seconds=%d traced=%v\n",
		e.GOMAXPROCS, e.NProc, e.Go, e.GOOS, e.GOARCH, e.Commit, e.Workload, e.Seed, e.Seconds, e.Traced)
	w, setup, err := setUp(name, seed, l)
	if err != nil {
		return nil, nil, err
	}
	ref := &refTimer{sample: sample}
	if _, _, err := ref.maybe(); err != nil {
		return nil, nil, err
	}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	var passes []passRec
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < time.Duration(seconds)*time.Second; i++ {
		p, err := runPass(w, i, nil, ref, stdout, stderr)
		if err != nil {
			return nil, nil, err
		}
		passes = append(passes, p)
		if tr != nil {
			if p, err = runPass(w, i, tr, ref, stdout, stderr); err != nil {
				return nil, nil, err
			}
			passes = append(passes, p)
		}
	}
	e.Passes = len(passes)
	return summarize(e, w, setup, ref.samples, passes, tr), tr, nil
}

// runPass runs pass i of w as a closed loop. Verdict mismatches are
// reported on stderr as they happen. After each check ref may time the
// reference workload; the pass's wall and CPU times leave that out.
func runPass(w *workload, i int, tr *tracer, ref *refTimer, stdout, stderr io.Writer) (passRec, error) {
	jobs := w.pass(i)
	rec := passRec{index: i, traced: tr != nil, checks: make([]checkRec, 0, len(jobs))}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	start := time.Now()
	var pauseWall, pauseCPU time.Duration
	ids := make([]int, len(jobs))
	for k, j := range jobs {
		var p probe
		if tr != nil {
			ids[k] = tr.begin("check", j.label, i, 0)
			p.hook = tr.execHook(ids[k])
		}
		t0 := time.Now()
		out, err := j.run(p)
		lat := time.Since(t0)
		if tr != nil {
			tr.end(ids[k])
		}
		if err == nil && j.want != nil {
			err = j.want(out)
		}
		if err != nil {
			err = fmt.Errorf("%s pass %d: %s: %w", w.name, i, j.label, err)
			fmt.Fprintln(stderr, "verdict:", err)
		}
		rec.checks = append(rec.checks, checkRec{job: j, lat: lat, out: out, err: err})
		wall, cpu, err := ref.maybe()
		if err != nil {
			return rec, err
		}
		pauseWall += wall
		pauseCPU += cpu
	}
	rec.wall = time.Since(start) - pauseWall
	rec.cpu = cpuTime() - cpu0 - pauseCPU
	runtime.ReadMemStats(&m1)
	rec.mallocs = m1.Mallocs - m0.Mallocs
	rec.bytes = m1.TotalAlloc - m0.TotalAlloc
	rec.gcs = m1.NumGC - m0.NumGC
	rec.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)

	if tr != nil {
		// The same programs without the spec layer, timed under the same
		// execution hook so that the tracing cost cancels out.
		for k, j := range jobs {
			if j.bare == nil {
				continue
			}
			id := tr.begin("bare", j.label, i, ids[k])
			j.bare(tr.execHook(id))
			rec.bare += tr.end(id)
			rec.core += rec.checks[k].lat
		}
	}
	fmt.Fprintf(stdout, "# pass %d traced=%v: %d checks, wall %.3fs, cpu %.3fs\n",
		i, rec.traced, len(rec.checks), rec.wall.Seconds(), rec.cpu.Seconds())
	return rec, nil
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		fmt.Fprintln(os.Stderr, "getrusage:", err)
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSS is the process's peak resident set size in bytes: VmHWM from
// /proc/self/status. getrusage's ru_maxrss would also count whatever
// the process ran before it exec'd the benchmark, such as run.sh.
func peakRSS() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		fmt.Fprintln(os.Stderr, "peak rss:", err)
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				fmt.Fprintln(os.Stderr, "peak rss:", err)
				return 0
			}
			return kb * 1024
		}
	}
	return 0
}
