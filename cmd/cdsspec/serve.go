package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"

	"repro/internal/fuzz"
	"repro/internal/harness"
	"repro/internal/service"
)

// This file holds the verification-service verbs (serve, submit, jobs,
// watch and cancel) plus the local, daemonless triage tier (triage).

// serveCmd runs the daemon until SIGINT/SIGTERM, then drains: running
// jobs checkpoint and suspend, and a later serve against the same state
// directory resumes them.
func (c *cli) serveCmd() int {
	if c.stateDir == "" {
		fmt.Fprintln(c.stderr, "serve needs -state <dir> to persist the job journal and checkpoints")
		return 2
	}
	srv, err := service.Open(service.Config{
		StateDir:        c.stateDir,
		Addr:            c.addr,
		Workers:         c.jobWorkers,
		CheckpointEvery: c.checkpointEvery,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(c.stderr, format+"\n", args...)
		},
	})
	if err != nil {
		fmt.Fprintln(c.stderr, err)
		return 1
	}
	if err := srv.Start(); err != nil {
		fmt.Fprintln(c.stderr, err)
		return 1
	}
	fmt.Fprintf(c.stdout, "cdsspec service listening on %s (state %s)\n", srv.Addr(), c.stateDir)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	signal.Stop(sig)
	fmt.Fprintln(c.stderr, "draining: interrupting running jobs and checkpointing...")
	if err := srv.Drain(); err != nil {
		fmt.Fprintln(c.stderr, err)
		return 1
	}
	fmt.Fprintln(c.stdout, "drained cleanly; suspended jobs resume on the next serve")
	return 0
}

// serviceClient resolves the daemon address: -addr wins, otherwise the
// state directory's addr file (written by serve on startup).
func (c *cli) serviceClient() (*service.Client, bool) {
	addr := c.addr
	if addr == "" {
		if c.stateDir == "" {
			fmt.Fprintln(c.stderr, "need -addr <host:port> or -state <dir> (to read its addr file)")
			return nil, false
		}
		blob, err := os.ReadFile(filepath.Join(c.stateDir, "addr"))
		if err != nil {
			fmt.Fprintf(c.stderr, "reading daemon address: %v (is the daemon running?)\n", err)
			return nil, false
		}
		addr = strings.TrimSpace(string(blob))
	}
	return &service.Client{Base: addr}, true
}

// submitSpec builds the job spec from the parsed flags. Triage knobs are
// only attached to triage jobs, so an explore job's journal record stays
// free of irrelevant defaults.
func (c *cli) submitSpec(benchmark string) service.JobSpec {
	spec := service.JobSpec{
		Kind:          service.JobKind(c.jobKind),
		Benchmark:     benchmark,
		Model:         string(c.model),
		MaxExecutions: c.maxExecs,
		Parallelism:   c.workers,
		Deadline:      c.deadline,
	}
	switch spec.KindOrDefault() {
	case service.KindExplore:
		spec.CheckpointEvery = c.checkpointEvery
	case service.KindFast:
		spec.Seed = c.seed
	case service.KindTriage:
		spec.Seed = c.seed
		spec.Count = c.count
		spec.Budget = c.budget
		spec.FastRuns = c.fastRuns
		spec.Shrink = c.shrinkHits
	}
	return spec
}

// kindDrops lists, per job kind, the submit flags submitSpec leaves out
// of that kind's spec.
var kindDrops = map[service.JobKind][]string{
	service.KindExplore: {"seed", "count", "budget", "fastruns", "shrink"},
	service.KindFast:    {"checkpoint-every", "count", "budget", "fastruns", "shrink"},
	service.KindTriage:  {"max", "checkpoint-every"},
}

// submitCmd submits one job and prints its id (or the full view with
// -json). A flag the job's kind drops and a spec the daemon would refuse
// are usage errors, caught before the daemon is contacted.
func (c *cli) submitCmd(fs *flag.FlagSet) int {
	spec := c.submitSpec(fs.Arg(0))
	kind := spec.KindOrDefault()
	for _, name := range kindDrops[kind] {
		if given(fs, name) {
			fmt.Fprintf(c.stderr, "cdsspec submit: -kind %s does not read -%s (see cdsspec submit -h)\n", kind, name)
			return 2
		}
	}
	if err := spec.Validate(); err != nil {
		fmt.Fprintln(c.stderr, err)
		return 2
	}
	cl, ok := c.serviceClient()
	if !ok {
		return 2
	}
	v, err := cl.Submit(spec)
	if err != nil {
		fmt.Fprintln(c.stderr, err)
		return 1
	}
	if c.jsonOut {
		return c.printJSON(v)
	}
	fmt.Fprintf(c.stdout, "%s submitted: %s %s (state %s)\n", v.ID, v.Spec.KindOrDefault(), v.Spec.Benchmark, v.State)
	return 0
}

// jobsCmd lists the daemon's jobs in submit order.
func (c *cli) jobsCmd() int {
	cl, ok := c.serviceClient()
	if !ok {
		return 2
	}
	jobs, err := cl.Jobs()
	if err != nil {
		fmt.Fprintln(c.stderr, err)
		return 1
	}
	if c.jsonOut {
		return c.printJSON(jobs)
	}
	for _, v := range jobs {
		line := fmt.Sprintf("%s  %-7s  %-9s  %s", v.ID, v.Spec.KindOrDefault(), v.State, v.Spec.Benchmark)
		switch {
		case v.State == service.StateRunning && v.Progress != nil:
			line += fmt.Sprintf("  %d executions, %.0f exec/s", v.Progress.Executions, v.Progress.ExecsPerSec)
		case v.Summary != nil:
			line += fmt.Sprintf("  %d executions in %v", v.Summary.Executions, v.Summary.Elapsed.Round(timeUnit))
			if v.Summary.FailureCount > 0 {
				line += fmt.Sprintf(", %d failures", v.Summary.FailureCount)
			}
			if v.Summary.Confirmed > 0 {
				line += fmt.Sprintf(", %d confirmed hits", v.Summary.Confirmed)
			}
		case v.Error != "":
			line += "  " + v.Error
		}
		fmt.Fprintln(c.stdout, line)
	}
	return 0
}

// watchCmd follows one job's event stream until it ends. Exit code 0 for
// done, 1 for every other final state (failed, canceled, deadline, or a
// drain suspension that ended the stream early).
func (c *cli) watchCmd(id string) int {
	cl, ok := c.serviceClient()
	if !ok {
		return 2
	}
	last, err := cl.Watch(id, func(ev service.Event) bool {
		switch {
		case ev.Progress != nil:
			fmt.Fprintf(c.stderr, "[%s] %s: %d executions (%d feasible, %d pruned, %d failures) %.0f exec/s\n",
				id, ev.State, ev.Progress.Executions, ev.Progress.Feasible,
				ev.Progress.Pruned, ev.Progress.Failures, ev.Progress.ExecsPerSec)
		default:
			fmt.Fprintf(c.stderr, "[%s] %s\n", id, ev.State)
		}
		return true
	})
	if err != nil {
		fmt.Fprintln(c.stderr, err)
		return 1
	}
	if c.jsonOut {
		if code := c.printJSON(last); code != 0 {
			return code
		}
	} else if s := last.Summary; s != nil {
		fmt.Fprintf(c.stdout, "%s %s: %d executions in %v", id, last.State, s.Executions, s.Elapsed.Round(timeUnit))
		if s.FailureCount > 0 {
			fmt.Fprintf(c.stdout, ", %d failures", s.FailureCount)
		}
		if s.Screened > 0 {
			fmt.Fprintf(c.stdout, " (screened %d, flagged %d, confirmed %d)", s.Screened, s.Flagged, s.Confirmed)
		}
		fmt.Fprintln(c.stdout)
	} else {
		fmt.Fprintf(c.stdout, "%s %s", id, last.State)
		if last.Error != "" {
			fmt.Fprintf(c.stdout, ": %s", last.Error)
		}
		fmt.Fprintln(c.stdout)
	}
	if last.State == service.StateDone {
		return 0
	}
	return 1
}

// cancelCmd requests cancellation of one job.
func (c *cli) cancelCmd(id string) int {
	cl, ok := c.serviceClient()
	if !ok {
		return 2
	}
	v, err := cl.Cancel(id)
	if err != nil {
		fmt.Fprintln(c.stderr, err)
		return 1
	}
	if c.jsonOut {
		return c.printJSON(v)
	}
	fmt.Fprintf(c.stdout, "%s cancel requested (state %s)\n", v.ID, v.State)
	return 0
}

func (c *cli) printJSON(v any) int {
	blob, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fmt.Fprintf(c.stderr, "encoding output: %v\n", err)
		return 1
	}
	fmt.Fprintln(c.stdout, string(blob))
	return 0
}

// triageCmd runs the screen→confirm→shrink triage tier locally: fast
// mode screens -count generated programs, exhaustive mode confirms the
// flagged ones within -budget, and -shrink minimizes the confirmed
// reproducers. Confirmed hits are folded into -corpus like fuzz does.
// Exit codes mirror fuzz: 3 when confirmed failures hit the correct
// memory orders, 0 for a clean (or -weaken) run.
func (c *cli) triageCmd(name string) int {
	b := harness.BenchmarkByName(name)
	if b == nil {
		return unknownBenchmark(c.stderr, name)
	}
	ord, ok := c.weakenedOrders(b)
	if !ok {
		return 2
	}
	intr, cleanup := interruptOnSignal(0)
	defer cleanup()
	res, err := fuzz.Triage(b.FuzzTarget(), fuzz.TriageConfig{
		Seed:          c.seed,
		Count:         c.count,
		FastRuns:      c.fastRuns,
		ConfirmBudget: c.budget,
		Workers:       c.workers,
		Orders:        ord,
		Shrink:        c.shrinkHits,
		Interrupt:     intr,
	})
	if err != nil {
		fmt.Fprintf(c.stderr, "triaging %s: %v\n", b.Name, err)
		return 1
	}

	if c.corpusPath != "" {
		corpus, err := fuzz.LoadCorpus(c.corpusPath)
		if err != nil {
			fmt.Fprintln(c.stderr, err)
			return 1
		}
		added := 0
		for _, h := range res.Confirmed {
			e := fuzz.EntryFor(h.Verdict)
			if h.Minimal != nil {
				e.Shrunk = h.Minimal.Minimal
			}
			if corpus.Add(e) {
				added++
			}
		}
		if err := corpus.Save(c.corpusPath); err != nil {
			fmt.Fprintln(c.stderr, err)
			return 1
		}
		fmt.Fprintf(c.stderr, "corpus %s: %d new entries (%d total)\n", c.corpusPath, added, len(corpus.Entries))
	}

	if c.jsonOut {
		if code := c.printJSON(res); code != 0 {
			return code
		}
	} else {
		fmt.Fprintf(c.stdout, "=== triage: %s (seed %d) ===\n", b.Name, res.Seed)
		fmt.Fprintf(c.stdout, "screened %d programs (%d fast executions), flagged %d, confirmed %d, unconfirmed %d (%d confirm executions) in %v\n",
			res.Screened, res.FastExecutions, res.Flagged, len(res.Confirmed),
			len(res.Unconfirmed), res.ConfirmExecutions, res.Elapsed.Round(timeUnit))
		buckets := make([]string, 0, len(res.Buckets))
		for k := range res.Buckets {
			buckets = append(buckets, k)
		}
		sort.Strings(buckets)
		for _, k := range buckets {
			fmt.Fprintf(c.stdout, "  bucket %-12s %d\n", k, res.Buckets[k])
		}
		for _, h := range res.Confirmed {
			fmt.Fprintf(c.stdout, "  confirmed: %s\n    program: %s\n", h.Verdict.Failure.Msg, h.Program)
			if h.Minimal != nil {
				fmt.Fprintf(c.stdout, "    minimal (%d ops): %s\n", h.Minimal.Minimal.OpCount(), h.Minimal.Minimal)
			}
		}
	}
	if len(res.Confirmed) > 0 && c.weaken == "" {
		fmt.Fprintf(c.stderr, "triage: %d confirmed failures against the correct memory orders\n", len(res.Confirmed))
		return 3
	}
	return 0
}
