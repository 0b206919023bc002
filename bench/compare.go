package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// minRuns is the fewest untraced runs per workload and side that
// -compare accepts.
const minRuns = 5

// benchmarkSpec is the part of BENCHMARK.json that -compare reads.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// scheduleDependent reports whether a counter depends on how parallel
// workers happened to interleave, so that two runs of the same code and
// seed may differ. The work-stealing telemetry always does; on
// explore-reduced, parallel rf pruning makes every counter but the rf
// class count depend on which worker registers a state first.
func scheduleDependent(workload, counter string) bool {
	if strings.HasPrefix(counter, "engine.") {
		return true
	}
	return workload == "explore-reduced" && counter != "reduce.rf_classes" && counter != "checks"
}

// compareDirs compares the result records in dirA (the baseline) and
// dirB. For each workload and end-to-end metric it prints both sides'
// median and quartiles, and it fails when dirB's median is worse than
// dirA's by more than the metric's bound in benchPath, or when a
// counter that does not depend on scheduling differs between two runs of
// the same workload and seed. A metric whose spread in dirA exceeds its
// bound is reported as unresolved instead, unless the runs of the two
// sides do not overlap.
func compareDirs(dirA, dirB, benchPath string, stdout, stderr io.Writer) int {
	var spec benchmarkSpec
	if err := readJSON(benchPath, &spec); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	a, err := loadRecords(dirA)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	b, err := loadRecords(dirB)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	var workloads []string
	for w := range a {
		workloads = append(workloads, w)
	}
	sort.Strings(workloads)
	bad := false
	fmt.Fprintf(stdout, "%-16s %-13s %32s %32s %8s %6s\n", "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "change", "bound")
	for _, w := range workloads {
		ra, rb := a[w], b[w]
		if len(ra) < minRuns || len(rb) < minRuns {
			fmt.Fprintf(stderr, "%s: %d and %d untraced runs, need at least %d on each side\n", w, len(ra), len(rb), minRuns)
			return 2
		}
		for _, m := range spec.EndToEnd {
			va, vb := values(ra, m.Name), values(rb, m.Name)
			if len(va) != len(ra) || len(vb) != len(rb) {
				fmt.Fprintf(stderr, "%s: some records lack %s\n", w, m.Name)
				return 2
			}
			ma, mb := median(va), median(vb)
			change := div(mb-ma, ma)
			higher := m.Better == "higher"
			worse := change > m.Bound
			if higher {
				worse = -change > m.Bound
			}
			// Where A's own runs spread wider than the bound, a difference
			// of medians cannot tell a change from noise: the metric is
			// unresolved unless every run of one side beats every run of
			// the other.
			noisy := div(percentile(va, 75)-percentile(va, 25), ma) > m.Bound
			verdict := ""
			switch {
			case worse && (!noisy || beats(va, vb, higher)):
				verdict = "  REGRESSION"
				bad = true
			case noisy && !beats(vb, va, higher):
				verdict = "  unresolved: A's spread exceeds the bound"
			}
			fmt.Fprintf(stdout, "%-16s %-13s %32s %32s %+7.1f%% %5.0f%%%s\n",
				w, m.Name, spread(va), spread(vb), change*100, m.Bound*100, verdict)
		}
		for _, msg := range countMismatches(w, ra, rb) {
			fmt.Fprintf(stdout, "%-16s counts: %s\n", w, msg)
			bad = true
		}
	}
	for w := range b {
		if _, ok := a[w]; !ok {
			fmt.Fprintf(stdout, "%-16s only in %s\n", w, dirB)
		}
	}
	if bad {
		return 1
	}
	return 0
}

// loadRecords reads every untraced record in dir, by workload.
func loadRecords(dir string) (map[string][]*record, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		if _, err := os.Stat(dir); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("%s holds no result records", dir)
	}
	out := map[string][]*record{}
	for _, p := range paths {
		var r record
		if err := readJSON(p, &r); err != nil {
			return nil, err
		}
		if r.Env.Workload == "" {
			return nil, fmt.Errorf("%s is not a result record", p)
		}
		if !r.Env.Traced {
			out[r.Env.Workload] = append(out[r.Env.Workload], &r)
		}
	}
	return out, nil
}

func values(rs []*record, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// beats reports whether every value of xs is better than every value of
// ys.
func beats(xs, ys []float64, higher bool) bool {
	if higher {
		xs, ys = ys, xs
	}
	return slices.Max(xs) < slices.Min(ys)
}

func spread(xs []float64) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g]", median(xs), percentile(xs, 25), percentile(xs, 75))
}

// countMismatches pairs the runs of both sides that share a seed and
// reports every counter that differs, unless it depends on scheduling.
func countMismatches(workload string, a, b []*record) []string {
	bySeed := map[int64]*record{}
	for _, r := range a {
		bySeed[r.Env.Seed] = r
	}
	var out []string
	for _, rb := range b {
		ra, ok := bySeed[rb.Env.Seed]
		if !ok {
			continue
		}
		var names []string
		for k := range rb.Counts {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			va, ok := ra.Counts[k]
			if ok && va != rb.Counts[k] && !scheduleDependent(workload, k) {
				out = append(out, fmt.Sprintf("seed %d: %s %d -> %d", rb.Env.Seed, k, va, rb.Counts[k]))
			}
		}
		delete(bySeed, rb.Env.Seed)
	}
	return out
}
