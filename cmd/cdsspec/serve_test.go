package main

import (
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/fuzz"
	"repro/internal/service"
)

// startTestDaemon runs an in-process daemon against a temp state dir so
// the client subcommands can be exercised through run() without signals.
func startTestDaemon(t *testing.T, dir string) *service.Server {
	t.Helper()
	srv, err := service.Open(service.Config{
		StateDir:        dir,
		Workers:         1,
		CheckpointEvery: 10 * time.Millisecond,
		ProgressEvery:   5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Drain() })
	return srv
}

// TestServiceCLIRoundTrip: submit via -state (addr-file discovery),
// watch to completion, list, and confirm cancel errors on the now
// terminal job — the full client-side subcommand surface.
func TestServiceCLIRoundTrip(t *testing.T) {
	dir := t.TempDir()
	startTestDaemon(t, dir)

	var out, errOut strings.Builder
	if code := run([]string{"submit", "-state", dir, "-workers", "2", "RCU"}, &out, &errOut); code != 0 {
		t.Fatalf("submit exited %d: %s", code, errOut.String())
	}
	id := strings.Fields(out.String())[0]
	if !strings.HasPrefix(id, "j") {
		t.Fatalf("submit printed no job id: %q", out.String())
	}

	out.Reset()
	errOut.Reset()
	if code := run([]string{"watch", "-state", dir, id}, &out, &errOut); code != 0 {
		t.Fatalf("watch exited %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "done") {
		t.Fatalf("watch final line missing done state: %q", out.String())
	}

	out.Reset()
	errOut.Reset()
	if code := run([]string{"jobs", "-state", dir}, &out, &errOut); code != 0 {
		t.Fatalf("jobs exited %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), id) || !strings.Contains(out.String(), "RCU") {
		t.Fatalf("jobs listing missing the job: %q", out.String())
	}

	out.Reset()
	errOut.Reset()
	if code := run([]string{"cancel", "-state", dir, id}, &out, &errOut); code != 1 {
		t.Fatalf("cancel of a done job exited %d, want 1: %s", code, out.String())
	}
}

// TestServiceCLIJSONSubmit: -json emits the job view, and a fast-mode
// job round-trips through watch -json with its summary.
func TestServiceCLIJSONSubmit(t *testing.T) {
	dir := t.TempDir()
	startTestDaemon(t, dir)

	var out, errOut strings.Builder
	code := run([]string{"submit", "-state", dir, "-kind", "fast", "-seed", "3", "-max", "100", "-json", "SPSC Queue"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("submit exited %d: %s", code, errOut.String())
	}
	var view service.JobView
	if err := json.Unmarshal([]byte(out.String()), &view); err != nil {
		t.Fatalf("submit -json output: %v\n%s", err, out.String())
	}
	if view.Spec.Kind != service.KindFast || view.Spec.Seed != 3 || view.Spec.MaxExecutions != 100 {
		t.Fatalf("submitted spec mangled: %+v", view.Spec)
	}

	out.Reset()
	errOut.Reset()
	if code := run([]string{"watch", "-state", dir, "-json", view.ID}, &out, &errOut); code != 0 {
		t.Fatalf("watch exited %d: %s", code, errOut.String())
	}
	var ev service.Event
	if err := json.Unmarshal([]byte(out.String()), &ev); err != nil {
		t.Fatalf("watch -json output: %v\n%s", err, out.String())
	}
	if ev.State != service.StateDone || ev.Summary == nil || ev.Summary.Executions != 100 {
		t.Fatalf("watch final event: %+v", ev)
	}
}

// TestServiceCLIUsageErrors: the service subcommands reject missing
// addressing and missing positionals with exit 2.
func TestServiceCLIUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"serve"},            // no -state
		{"submit"},           // no benchmark
		{"submit", "RCU"},    // no -state/-addr
		{"jobs"},             // no -state/-addr
		{"watch"},            // no job id
		{"watch", "j000001"}, // no -state/-addr
		{"cancel"},           // no job id
		{"triage"},           // no benchmark
		// Flags the verb parses but does not read: refused before any
		// daemon is contacted or any program is explored.
		{"submit", "-addr", "127.0.0.1:1", "-reduce", "all", "M&S Queue"},
		{"submit", "-addr", "127.0.0.1:1", "-kind", "triage", "-model", "sc", "RCU"},
		{"fuzz", "-model", "sc", "-count", "1", "SPSC Queue"},
		{"fuzz", "-reduce", "rf", "-count", "1", "SPSC Queue"},
		{"shrink", "-model", "scatomics", "-count", "1", "SPSC Queue"},
		{"triage", "-model", "sc", "-count", "1", "SPSC Queue"},
		{"triage", "-reduce", "all", "-count", "1", "SPSC Queue"},
		{"fastrun", "-reduce", "rf", "-max", "10", "M&S Queue"},
		{"overlystrong", "-model", "sc"},
		{"knownbugs", "-reduce", "rf"},
	} {
		var out, errOut strings.Builder
		if code := run(args, &out, &errOut); code != 2 {
			t.Errorf("run(%q) exited %d, want 2: %s", args, code, errOut.String())
		}
		if errOut.Len() == 0 {
			t.Errorf("run(%q) printed nothing to stderr", args)
		}
	}
}

// TestTriageCLI: the screen→confirm→shrink tier runs clean against a
// correct benchmark, emits valid -json, and folds confirmed hits from a
// weakened site into the corpus without tripping the regression exit.
func TestTriageCLI(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"triage", "-seed", "1", "-count", "4", "-fastruns", "50", "-json", "Ticket Lock"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("triage exited %d: %s", code, errOut.String())
	}
	var res fuzz.TriageResult
	if err := json.Unmarshal([]byte(out.String()), &res); err != nil {
		t.Fatalf("triage -json output: %v\n%s", err, out.String())
	}
	if res.Screened != 4 || res.Benchmark != "Ticket Lock" {
		t.Fatalf("triage result: %+v", res)
	}

	// A weakened memory-order site seeds a real bug; triage must catch
	// it, exit 0 (a -weaken hunt is not a regression), and persist the
	// confirmed reproducer to the corpus.
	corpus := filepath.Join(t.TempDir(), "corpus.json")
	out.Reset()
	errOut.Reset()
	code = run([]string{"triage", "-seed", "1", "-count", "12", "-fastruns", "300", "-budget", "4000",
		"-weaken", "unlock_store_serving", "-corpus", corpus, "Ticket Lock"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("weakened triage exited %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "flagged") {
		t.Fatalf("triage summary missing: %q", out.String())
	}
	saved, err := fuzz.LoadCorpus(corpus)
	if err != nil {
		t.Fatal(err)
	}
	// Triage is deterministic per seed: this weakened screen confirms
	// hits every run, and every confirmed hit lands in the corpus.
	if len(saved.Entries) == 0 {
		t.Errorf("weakened triage folded no confirmed hits into the corpus:\n%s", out.String())
	}
}
