package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
)

var update = flag.Bool("update", false, "regenerate testdata/expected.json")

// smokeLimits shrink each workload so that one traced cycle of all four
// stays well under the test timeout under -race.
var smokeLimits = map[string]limits{
	"fig7":            {keep: func(label string) bool { return label != "MPMC Queue" && label != "Seqlock" }},
	"explore-reduced": {keep: func(label string) bool { return label == "M&S Queue" }},
	"fuzz-campaign":   {fuzzPerTarget: 1},
	"fast-screen":     {fastRuns: 200, scaledOpsPerThread: 1000},
}

type benchmarkFile struct {
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	Workloads []struct{ Name, Why string }          `json:"workloads"`
}

func readBenchmarkFile(t *testing.T) *benchmarkFile {
	t.Helper()
	var b benchmarkFile
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &b); err != nil {
		t.Fatal(err)
	}
	return &b
}

var validName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestWorkloadsSmoke runs one traced cycle (an untraced pass, then a
// traced pass over the same checks) of every workload on a reduced job
// list, and checks that every verdict is right and that every metric
// BENCHMARK.json names is emitted with its unit.
func TestWorkloadsSmoke(t *testing.T) {
	bf := readBenchmarkFile(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if fmt.Sprint(names) != fmt.Sprint(workloadNames) {
		t.Fatalf("BENCHMARK.json workloads %v, the benchmark runs %v", names, workloadNames)
	}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			var stderr bytes.Buffer
			rec, tr, err := runWorkload(name, 1, 0, true, smokeLimits[name], inProcess, io.Discard, &stderr)
			if err != nil {
				t.Fatal(err)
			}
			if !rec.Correct || rec.Failed != 0 || rec.VerdictOK != 1.0 {
				t.Fatalf("correct=%v failed=%d verdict_ok=%v: %s", rec.Correct, rec.Failed, rec.VerdictOK, stderr.String())
			}
			if rec.Samples["passes"] != 1 || rec.Samples["traced_passes"] != 1 {
				t.Errorf("samples %v, want one untraced and one traced pass", rec.Samples)
			}
			for _, m := range bf.EndToEnd {
				checkMetric(t, rec.EndToEnd, m.Name, m.Unit)
				if rec.EndToEnd[m.Name].Value <= 0 {
					t.Errorf("end-to-end %s = %v, want > 0", m.Name, rec.EndToEnd[m.Name].Value)
				}
			}
			for _, m := range bf.PerLayer {
				checkMetric(t, rec.Metrics, m.Name, m.Unit)
			}
			if len(rec.EndToEnd) != len(bf.EndToEnd) || len(rec.Metrics) != len(bf.PerLayer) {
				t.Errorf("emitted %d end-to-end and %d per-layer metrics, BENCHMARK.json names %d and %d",
					len(rec.EndToEnd), len(rec.Metrics), len(bf.EndToEnd), len(bf.PerLayer))
			}
			checks := 0
			for _, s := range tr.spans {
				if s.Name == "check" {
					checks++
					if s.End < s.Start {
						t.Errorf("check span %d never closed", s.ID)
					}
				}
			}
			if checks != rec.Samples["traced_checks"] || len(tr.execs) == 0 {
				t.Errorf("%d check spans and %d execution spans for %d traced checks", checks, len(tr.execs), rec.Samples["traced_checks"])
			}
			for _, e := range tr.execs {
				if e.end < e.start {
					t.Fatalf("execution span under span %d never closed", e.parent)
				}
			}
		})
	}
}

func checkMetric(t *testing.T, ms map[string]metric, name, unit string) {
	t.Helper()
	m, ok := ms[name]
	switch {
	case !validName.MatchString(name):
		t.Errorf("invalid metric name %q", name)
	case !ok:
		t.Errorf("metric %s not emitted", name)
	case m.Unit != unit:
		t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", name, m.Unit, unit)
	}
}

// TestKnownBugsMatchHarness ties the rebuilt §6.4.1 checks to
// harness.RunKnownBugs: the same bugs, detected through the same kinds.
func TestKnownBugsMatchHarness(t *testing.T) {
	want := harness.RunKnownBugs()
	bugs := knownBugs()
	if len(bugs) != len(want) {
		t.Fatalf("%d rebuilt known bugs, harness has %d", len(bugs), len(want))
	}
	for i, kb := range bugs {
		f := core.Explore(kb.spec(), kb.cfg, kb.prog).FirstFailure()
		if f == nil || !want[i].Detected || f.Kind.String() != want[i].Channel {
			t.Errorf("%s: detected %v, harness reports %q via %q", kb.label, f, want[i].Name, want[i].Channel)
		}
	}
}

// TestCompare checks that -compare passes two agreeing sets, fails on a
// regression beyond the bound or a changed deterministic counter, and
// reports a regression within A's own spread as unresolved.
func TestCompare(t *testing.T) {
	bf := readBenchmarkFile(t)
	var bound float64
	for _, m := range bf.EndToEnd {
		if m.Name == "wall_ref" {
			bound = m.Bound
		}
	}
	write := func(dir string, seed int64, wall float64, execs int64) {
		rec := record{
			Env:     env{Workload: "fig7", Seed: seed},
			Metrics: map[string]metric{},
			Counts:  map[string]int64{"explorer.executions": execs, "engine.steals": seed},
		}
		for _, m := range bf.EndToEnd {
			rec.Metrics[m.Name] = metric{1, m.Unit}
		}
		rec.Metrics["wall_ref"] = metric{wall, "ref"}
		if err := writeJSON(filepath.Join(dir, fmt.Sprintf("fig7-%d.json", seed)), rec, true); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name string
		// A's wall_ref runs spread evenly over 1 ± spreadA.
		spreadA    float64
		wallB      float64
		execB      int64
		code       int
		unresolved bool
	}{
		{"agree", 0, 1 + bound/2, 100, 0, false},
		{"faster", 0, 0.5, 100, 0, false},
		{"slower", 0, 1 + 2*bound, 100, 1, false},
		{"counts", 0, 1, 101, 1, false},
		{"noisy", 2 * bound, 1 + 1.5*bound, 100, 0, true},
		{"noisy-apart", 2 * bound, 1 + 3*bound, 100, 1, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, b := t.TempDir(), t.TempDir()
			for seed := int64(1); seed <= minRuns; seed++ {
				write(a, seed, 1+tc.spreadA*float64(seed-3)/2, 100)
				write(b, seed, tc.wallB, tc.execB)
			}
			var out, errOut bytes.Buffer
			if code := compareDirs(a, b, filepath.Join("..", "BENCHMARK.json"), &out, &errOut); code != tc.code {
				t.Errorf("exit %d, want %d:\n%s%s", code, tc.code, out.String(), errOut.String())
			}
			if got := strings.Contains(out.String(), "unresolved"); got != tc.unresolved {
				t.Errorf("unresolved reported: %v, want %v:\n%s", got, tc.unresolved, out.String())
			}
		})
	}
}

func TestBadInvocations(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "fig7", "-trace", "2"},
		{"-compare", "only-one-dir"},
		{"-workload", "fig7", "extra"},
	} {
		if code := run(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}

// TestUpdateExpected regenerates testdata/expected.json from the
// current checker when run with -update; otherwise it is skipped.
func TestUpdateExpected(t *testing.T) {
	if !*update {
		t.Skip("run with -update to regenerate testdata/expected.json")
	}
	exp := &expected{Fig7: map[string]fig7Want{}, KnownBugs: map[string]bugWant{}}
	exp.ExploreReduced.RFClasses = map[string]int{msqueue3x3: 0}
	// Placeholders let build construct every job; each is then replaced
	// by what the job's check returns.
	for _, b := range harness.Benchmarks() {
		exp.Fig7[b.Name] = fig7Want{}
		exp.ExploreReduced.RFClasses[b.Name] = 0
	}
	for _, kb := range knownBugs() {
		exp.KnownBugs[kb.label] = bugWant{}
	}
	exp.FastScreen.Detect = []string{seededEnqLabel, seededResizeLabel}
	for _, name := range []string{"fig7", "explore-reduced"} {
		w, err := build(name, 1, exp, fullLimits())
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range w.pass(0) {
			o, err := j.run(probe{})
			if err != nil {
				t.Fatal(err)
			}
			r := o.res
			switch {
			case name == "explore-reduced":
				exp.ExploreReduced.RFClasses[j.label] = r.Stats.RFClasses
			case j.bare != nil:
				exp.Fig7[j.label] = fig7Want{r.Executions, r.Feasible, r.Pruned, r.FailureCount}
			default:
				f := r.FirstFailure()
				if f == nil {
					t.Fatalf("%s: known bug not detected", j.label)
				}
				exp.KnownBugs[j.label] = bugWant{f.Kind.String(), f.Kind.Channel()}
			}
		}
	}
	exp.Fuzz.Budget = fuzzBudget
	exp.Fuzz.Seeds = map[string]map[string]string{}
	for seed := int64(1); seed <= 3; seed++ {
		w, err := build("fuzz-campaign", seed, exp, fullLimits())
		if err != nil {
			t.Fatal(err)
		}
		toks := map[string][]string{}
		for _, j := range w.pass(0) {
			o, err := j.run(probe{})
			if err != nil {
				t.Fatal(err)
			}
			tok, err := fuzzToken(o)
			if err != nil {
				t.Fatalf("%s: %v", j.label, err)
			}
			target := j.label[:strings.LastIndex(j.label, " #")]
			toks[target] = append(toks[target], tok)
		}
		bySeed := map[string]string{}
		for target, ts := range toks {
			bySeed[target] = strings.Join(ts, " ")
		}
		exp.Fuzz.Seeds[strconv.FormatInt(seed, 10)] = bySeed
	}
	data, err := json.MarshalIndent(exp, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join("testdata", "expected.json"), append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote testdata/expected.json: %d fig7 rows, %d known bugs, %d fuzz seeds", len(exp.Fig7), len(exp.KnownBugs), len(exp.Fuzz.Seeds))
}
