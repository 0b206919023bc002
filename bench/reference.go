package main

import (
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// The machine this benchmark runs on is shared, and its speed drifts: on
// the 2-vCPU VM it was written on, the same pass ran up to twice as slow
// for minutes at a time. Within one run the drift is small, and it slows
// map- and allocation-heavy code alike, so the end-to-end times are
// reported in units of a fixed reference workload timed during the same
// run: the median reference time of the run is 1 ref. The reference is
// independent of the checker, so a faster checker shows as a smaller
// ratio. It inserts freshly allocated nodes into a map, the operations
// that dominate the checker's executions.
const (
	refInserts = 100_000
	refKeys    = 40_009
	// refReps is the number of samples in one measurement; the benchmark
	// measures after set-up and between checks, at most every refEvery,
	// so that a long pass is covered by samples throughout.
	refReps  = 3
	refEvery = time.Second
)

// refTimer times the reference workload during a run and keeps the
// samples.
type refTimer struct {
	sample  sampler
	last    time.Time
	samples []time.Duration
}

// maybe times the reference workload if refEvery has passed since it
// last did, and returns the wall and CPU time this process spent on it.
func (r *refTimer) maybe() (wall, cpu time.Duration, err error) {
	if time.Since(r.last) < refEvery {
		return 0, 0, nil
	}
	start, cpu0 := time.Now(), cpuTime()
	ds, err := r.sample(refReps)
	r.samples = append(r.samples, ds...)
	r.last = time.Now()
	return r.last.Sub(start), cpuTime() - cpu0, err
}

type refNode struct {
	next *refNode
	key  uint64
	pad  [5]uint64
}

// refSink keeps the reference's work observable; the smoke test's
// parallel workloads store to it concurrently.
var refSink atomic.Int64

// reference times one round of the reference workload.
func reference() time.Duration {
	start := time.Now()
	m := make(map[uint64]*refNode)
	var head *refNode
	for i := uint64(0); i < refInserts; i++ {
		head = &refNode{next: head, key: i}
		m[i*2654435761%refKeys] = head
	}
	elapsed := time.Since(start)
	refSink.Store(int64(len(m)) + int64(head.key))
	return elapsed
}

// A sampler times the reference workload n times.
type sampler func(n int) ([]time.Duration, error)

// inProcess is the sampler of the tests, which cannot run the benchmark
// binary.
func inProcess(n int) ([]time.Duration, error) {
	ds := make([]time.Duration, n)
	for i := range ds {
		ds[i] = reference()
	}
	return ds, nil
}

// childProcess is the sampler of the benchmark: it runs this binary with
// -reference, so that the samples run on a fresh heap and neither
// disturb nor are disturbed by the checker's heap, garbage collector and
// peak RSS.
func childProcess(n int) ([]time.Duration, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("timing the reference workload: %w", err)
	}
	out, err := exec.Command(exe, "-reference", strconv.Itoa(n)).Output()
	if err != nil {
		return nil, fmt.Errorf("timing the reference workload: %w", err)
	}
	var ds []time.Duration
	for _, f := range strings.Fields(string(out)) {
		ns, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("timing the reference workload: %w", err)
		}
		ds = append(ds, time.Duration(ns))
	}
	if len(ds) != n {
		return nil, fmt.Errorf("timing the reference workload: got %d samples, want %d", len(ds), n)
	}
	return ds, nil
}
