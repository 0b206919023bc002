// Command cdsspec reproduces the paper's evaluation from the command
// line:
//
//	cdsspec fig7 [-json]         regenerate Figure 7 (benchmark results)
//	cdsspec fig8 [-json]         regenerate Figure 8 (bug-injection detection)
//	cdsspec knownbugs            reproduce the §6.4.1 known bugs
//	cdsspec overlystrong         reproduce the §6.4.3 overly strong CAS
//	cdsspec specstats            print the §6.2 specification statistics
//	cdsspec run <benchmark>      explore one benchmark's unit test
//	cdsspec explore <benchmark>  parallel exploration with checkpointing
//	cdsspec resume <file>        resume a checkpointed exploration
//	cdsspec fastrun <benchmark>  fast-mode screen (random plausible executions)
//	cdsspec dot <benchmark>      print one execution as a Graphviz graph
//	cdsspec json <benchmark>     print one execution + stats as JSON
//	cdsspec diff <target>        diff behavior sets across models or reductions
//	cdsspec fuzz [benchmark]     run generative campaigns (§6.4's unit-test gap)
//	cdsspec triage <benchmark>   screen→confirm→shrink triage over generated programs
//	cdsspec shrink <benchmark>   minimize a failing generated program
//	cdsspec serve                run the verification-service daemon
//	cdsspec submit <benchmark>   submit a job to a running daemon
//	cdsspec jobs                 list a daemon's jobs
//	cdsspec watch <job-id>       stream one job's progress until it ends
//	cdsspec cancel <job-id>      cancel a queued or running job
//	cdsspec list [-v]            list benchmark names (-v: ops, roles, sites)
//	cdsspec all                  run every experiment in sequence
//
// Flags: -workers N (global or per-subcommand: the experiment worker
// pool, and the exploration workers of explore, resume, diff, fastrun
// and submit), and per-subcommand -json (machine-readable output),
// -progress (periodic progress to stderr), -model (consistency model:
// c11, sc, or scatomics — see DESIGN.md), -reduce
// (execution-equivalence reductions: all, none, or a comma list of
// rf,symmetry,spinloop — default all for explore, none elsewhere;
// honored by run, resume, dot, json, fig7 and fig8), and
// -cpuprofile/-memprofile (write pprof profiles of the subcommand).
// The diff subcommand names its two legs' models with -a (default c11)
// and -b (default sc) instead of -model; leg A runs unreduced and leg B
// under -reduce. It exits 1 when the two legs share a model and observe
// different behavior or failure sets (a reduction soundness bug). The
// explore and resume
// subcommands add -max, -checkpoint, -checkpoint-every and -verify (see
// their help text); a SIGINT stops them gracefully and writes a final
// checkpoint. Resume adopts the checkpoint's model and reduction set and
// refuses an explicit -model or -reduce that disagrees with them.
// The fuzz and shrink subcommands add -seed, -count, -budget, -corpus,
// -weaken and -index. The fastrun subcommand adds -seed, -max (run
// budget) and -time (wall-clock budget). Subcommand flags go
// between the subcommand and its positional arguments: cdsspec run
// -progress "M&S Queue".
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"sync"
	"time"

	"repro/internal/checker"
	"repro/internal/checker/model"
	"repro/internal/core"
	"repro/internal/harness"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// cli carries one invocation's parsed flags and output streams, so run
// is testable without touching process state.
type cli struct {
	stdout, stderr io.Writer
	workers        int
	jsonOut        bool
	progress       bool
	cpuProfile     string
	memProfile     string

	// progressMu serializes the -progress callback's writes to stderr:
	// concurrent explorations (Figure 8 trials) report through it.
	progressMu sync.Mutex

	// -model: consistency model for the explored executions. model is
	// the parsed ID; modelSet records whether the flag was given
	// explicitly (resume adopts the checkpoint's model when it wasn't).
	model    model.ID
	modelSet bool

	// -reduce: execution-equivalence reductions. reduce is the parsed
	// set; reduceGiven records whether the flag was given explicitly
	// (explore defaults to all reductions, resume adopts the checkpoint's
	// set).
	reduce      checker.ReduceSet
	reduceGiven bool

	// diff -a/-b.
	diffA, diffB string

	// explore / resume flags.
	maxExecs        int
	checkpointPath  string
	checkpointEvery time.Duration
	verify          bool

	// fuzz / shrink / list -v flags.
	seed       uint64
	count      int
	budget     int
	corpusPath string
	weaken     string
	index      int
	verbose    bool

	// fastrun flags.
	timeBudget time.Duration

	// service flags (serve/submit/jobs/watch/cancel) and triage flags.
	addr       string
	stateDir   string
	jobWorkers int
	jobKind    string
	deadline   time.Duration
	fastRuns   int
	shrinkHits bool
}

func (c *cli) opts() harness.Options {
	o := harness.Options{
		Workers:    c.workers,
		Model:      c.model,
		Reduce:     c.reduce,
		CPUProfile: c.cpuProfile,
		MemProfile: c.memProfile,
	}
	if c.progress {
		o.Progress = func(name string, p checker.Progress) {
			c.progressMu.Lock()
			defer c.progressMu.Unlock()
			s := p.Stats
			if p.Final {
				fmt.Fprintf(c.stderr, "[%s] done: %d executions in %v (%.0f exec/s, %d spec-cache hits)\n",
					name, p.Executions, p.Elapsed.Round(timeUnit), p.ExecsPerSec, s.SpecCacheHits)
				return
			}
			line := fmt.Sprintf("[%s] %d executions (%d feasible, %d pruned, %d failures, %d cache hits) %.0f exec/s",
				name, p.Executions, p.Feasible, p.Pruned, p.Failures, s.SpecCacheHits, p.ExecsPerSec)
			if s.RFEquivPrunes > 0 || s.SymmetryPrunes > 0 || s.SpinloopBounds > 0 || s.RFClasses > 0 {
				line += fmt.Sprintf(", reduce[%d rf-pruned/%d classes, %d sym, %d spin]",
					s.RFEquivPrunes, s.RFClasses, s.SymmetryPrunes, s.SpinloopBounds)
			}
			if p.ETA > 0 {
				line += fmt.Sprintf(", ETA %v", p.ETA.Round(timeUnit))
			}
			fmt.Fprintln(c.stderr, line)
		}
	}
	return o
}

const timeUnit = 1e6 // round displayed durations to milliseconds

func run(args []string, stdout, stderr io.Writer) int {
	c := &cli{stdout: stdout, stderr: stderr}
	global := flag.NewFlagSet("cdsspec", flag.ContinueOnError)
	global.SetOutput(stderr)
	global.Usage = func() { usage(stderr) }
	globalWorkers := global.Int("workers", 0, "worker pool size for experiments (0 = GOMAXPROCS)")
	if err := global.Parse(args); err != nil {
		return 2
	}
	c.workers = *globalWorkers
	rest := global.Args()
	if len(rest) < 1 {
		usage(stderr)
		return 2
	}
	cmd := rest[0]

	// The global flag.Parse stops at the first non-flag argument, so
	// trailing flags (cdsspec fig7 -json) need a second, per-subcommand
	// parse over everything after the subcommand name.
	sub := flag.NewFlagSet(cmd, flag.ContinueOnError)
	sub.SetOutput(stderr)
	subWorkers := sub.Int("workers", c.workers, "worker pool size (0 = GOMAXPROCS); explore/resume/diff/fastrun: exploration workers (0 = one); submit: the job's workers")
	sub.BoolVar(&c.jsonOut, "json", false, "emit machine-readable JSON instead of tables")
	sub.BoolVar(&c.progress, "progress", false, "print periodic exploration progress to stderr")
	sub.StringVar(&c.cpuProfile, "cpuprofile", "", "write a pprof CPU profile of the subcommand to this file")
	sub.StringVar(&c.memProfile, "memprofile", "", "write a pprof heap profile after the subcommand to this file")
	sub.Uint64Var(&c.seed, "seed", 1, "fuzz: program generator seed (same seed = same batch)")
	sub.IntVar(&c.count, "count", 25, "fuzz: programs to generate per benchmark")
	sub.IntVar(&c.budget, "budget", 5000, "fuzz: max executions explored per program (0 = exhaustive)")
	sub.StringVar(&c.corpusPath, "corpus", "", "fuzz/shrink: on-disk corpus JSON to accumulate failures in")
	sub.StringVar(&c.weaken, "weaken", "", "fuzz/shrink: weaken this memory-order site one step (seeded bug)")
	sub.IntVar(&c.index, "index", 0, "shrink: corpus entry index among the benchmark's entries")
	sub.BoolVar(&c.verbose, "v", false, "list: include op registries and memory-order sites")
	sub.IntVar(&c.maxExecs, "max", 0, "explore/resume: total execution budget incl. checkpointed work (0 = exhaustive)")
	sub.StringVar(&c.checkpointPath, "checkpoint", "", "explore/resume: write the exploration checkpoint to this file")
	sub.DurationVar(&c.checkpointEvery, "checkpoint-every", 0, "explore/resume: also checkpoint periodically at this interval")
	sub.BoolVar(&c.verify, "verify", false, "resume: re-explore from scratch with one worker and require a bit-identical result")
	sub.DurationVar(&c.timeBudget, "time", 0, "fastrun: wall-clock budget for the screen (0 = run budget only)")
	sub.StringVar(&c.addr, "addr", "", "serve: listen address (default 127.0.0.1:0); submit/jobs/watch/cancel: daemon address")
	sub.StringVar(&c.stateDir, "state", "", "serve: state directory (journal + checkpoints); clients read its addr file")
	sub.IntVar(&c.jobWorkers, "jobs", 1, "serve: concurrent job workers")
	sub.StringVar(&c.jobKind, "kind", "", "submit: job kind (explore, fast, or triage; default explore)")
	sub.DurationVar(&c.deadline, "deadline", 0, "submit: per-job wall-clock budget (0 = none)")
	sub.IntVar(&c.fastRuns, "fastruns", 0, "triage: fast-mode screen runs per program (0 = default 200)")
	sub.BoolVar(&c.shrinkHits, "shrink", false, "triage: minimize confirmed reproducers")
	modelName := sub.String("model", "", "consistency model: c11 (default), sc, or scatomics")
	reduceName := sub.String("reduce", "", "execution-equivalence reductions: all, none, or a comma list of rf,symmetry,spinloop (explore default: all; elsewhere: none)")
	sub.StringVar(&c.diffA, "a", "c11", "diff: model of leg A (explored unreduced)")
	sub.StringVar(&c.diffB, "b", "sc", "diff: model of leg B (explored under -reduce)")
	if err := sub.Parse(rest[1:]); err != nil {
		return 2
	}
	c.workers = *subWorkers
	id, err := model.Parse(*modelName)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	c.model = id
	red, err := checker.ParseReduce(*reduceName)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	c.reduce = red
	sub.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "model":
			c.modelSet = true
		case "reduce":
			c.reduceGiven = true
		}
	})
	pos := sub.Args()

	// Profiling wraps the whole subcommand, whatever it is, so a slow
	// fig7 row or a fuzz campaign can be profiled the same way.
	stopProfiles, err := c.opts().StartProfiles()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintf(stderr, "stopping profiles: %v\n", err)
		}
	}()

	switch cmd {
	case "fig7":
		return c.fig7()
	case "fig8":
		return c.fig8()
	case "knownbugs":
		c.knownBugs()
	case "overlystrong":
		c.overlyStrong()
	case "specstats":
		c.specStats()
	case "list":
		if c.verbose {
			c.listVerbose()
			break
		}
		for _, b := range harness.Benchmarks() {
			fmt.Fprintln(c.stdout, b.Name)
		}
	case "fuzz":
		return c.fuzzCmd(pos)
	case "shrink":
		if len(pos) < 1 {
			fmt.Fprintln(stderr, "usage: cdsspec shrink [-seed N] [-count N] [-budget N] [-weaken site] [-corpus file [-index N]] [-json] <benchmark>")
			return 2
		}
		return c.shrinkCmd(pos[0])
	case "run":
		if len(pos) < 1 {
			fmt.Fprintln(stderr, "usage: cdsspec run [-workers N] [-json] [-progress] <benchmark>")
			return 2
		}
		return c.runOne(pos[0])
	case "explore":
		if len(pos) < 1 {
			fmt.Fprintln(stderr, "usage: cdsspec explore [-workers N] [-max N] [-checkpoint file] [-checkpoint-every dur] [-json] [-progress] <benchmark>")
			return 2
		}
		return c.exploreCmd(pos[0])
	case "resume":
		if len(pos) < 1 {
			fmt.Fprintln(stderr, "usage: cdsspec resume [-workers N] [-max N] [-checkpoint file] [-verify] [-json] [-progress] <file>")
			return 2
		}
		return c.resumeCmd(pos[0])
	case "dot":
		if len(pos) < 1 {
			fmt.Fprintln(stderr, "usage: cdsspec dot <benchmark>")
			return 2
		}
		return c.dotOne(pos[0])
	case "json":
		if len(pos) < 1 {
			fmt.Fprintln(stderr, "usage: cdsspec json [-progress] <benchmark>")
			return 2
		}
		return c.jsonOne(pos[0])
	case "fastrun":
		if len(pos) < 1 {
			fmt.Fprintln(stderr, "usage: cdsspec fastrun [-seed N] [-max N] [-time dur] [-workers N] [-json] <benchmark>")
			return 2
		}
		return c.fastRunCmd(pos[0])
	case "diff":
		if len(pos) < 1 {
			fmt.Fprintln(stderr, "usage: cdsspec diff [-a model] [-b model] [-reduce set] [-workers N] [-json] <target>")
			fmt.Fprintf(stderr, "targets: %s\n", strings.Join(harness.DiffTargets(), ", "))
			return 2
		}
		return c.diffCmd(pos[0])
	case "serve":
		return c.serveCmd()
	case "submit":
		if len(pos) < 1 {
			fmt.Fprintln(stderr, "usage: cdsspec submit {-state dir|-addr host:port} [-kind explore|fast|triage] [-max N] [-workers N] [-deadline dur] [-model m] [-seed N] [-count N] [-budget N] [-fastruns N] [-shrink] [-json] <benchmark>")
			return 2
		}
		return c.submitCmd(pos[0])
	case "jobs":
		return c.jobsCmd()
	case "watch":
		if len(pos) < 1 {
			fmt.Fprintln(stderr, "usage: cdsspec watch {-state dir|-addr host:port} [-json] <job-id>")
			return 2
		}
		return c.watchCmd(pos[0])
	case "cancel":
		if len(pos) < 1 {
			fmt.Fprintln(stderr, "usage: cdsspec cancel {-state dir|-addr host:port} [-json] <job-id>")
			return 2
		}
		return c.cancelCmd(pos[0])
	case "triage":
		if len(pos) < 1 {
			fmt.Fprintln(stderr, "usage: cdsspec triage [-seed N] [-count N] [-budget N] [-fastruns N] [-shrink] [-corpus file] [-weaken site] [-json] <benchmark>")
			return 2
		}
		return c.triageCmd(pos[0])
	case "all":
		if code := c.fig7(); code != 0 {
			return code
		}
		fmt.Fprintln(c.stdout)
		if code := c.fig8(); code != 0 {
			return code
		}
		fmt.Fprintln(c.stdout)
		c.knownBugs()
		fmt.Fprintln(c.stdout)
		c.overlyStrong()
		fmt.Fprintln(c.stdout)
		c.specStats()
	default:
		usage(stderr)
		return 2
	}
	return 0
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: cdsspec [-workers N] {fig7|fig8|knownbugs|overlystrong|specstats|run <benchmark>|explore <benchmark>|resume <file>|fastrun <benchmark>|dot <benchmark>|json <benchmark>|diff <target>|fuzz [benchmark]|triage <benchmark>|shrink <benchmark>|serve|submit <benchmark>|jobs|watch <job-id>|cancel <job-id>|list [-v]|all} [-json] [-progress] [-model c11|sc|scatomics] [-reduce all|none|rf,symmetry,spinloop] [-cpuprofile file] [-memprofile file]")
	fmt.Fprintln(w, "  explore/resume flags: -workers N -max N -checkpoint file -checkpoint-every dur -verify (explore defaults to -reduce=all; resume adopts the checkpoint's model and reduction set)")
	fmt.Fprintln(w, "  diff flags: -a model -b model -reduce set -workers N (leg A: -a unreduced; leg B: -b under -reduce; litmus targets SB, MP, IRIW or any benchmark; exits 1 when same-model legs differ)")
	fmt.Fprintln(w, "  fuzz/shrink flags: -seed N -count N -budget N -corpus file -weaken site -index N")
	fmt.Fprintln(w, "  triage flags: -seed N -count N -budget N -fastruns N -shrink -corpus file -weaken site")
	fmt.Fprintln(w, "  fastrun flags: -seed N -max N -time dur -workers N")
	fmt.Fprintln(w, "  serve flags: -state dir -addr host:port -jobs N -checkpoint-every dur")
	fmt.Fprintln(w, "  submit/jobs/watch/cancel flags: -state dir|-addr host:port; submit adds -kind -max -workers -deadline plus the triage flags")
}

// diffCmd explores target as two legs — A under the -a model with no
// reduction, B under the -b model and the -reduce set — and reports the
// behavior- and failure-set differences. Across models a non-empty diff
// is the expected outcome, not an error. Under one model the legs must
// be identical: a difference is a reduction soundness bug and exits 1.
func (c *cli) diffCmd(target string) int {
	if c.modelSet {
		fmt.Fprintln(c.stderr, "diff names its two models with -a and -b, not -model")
		return 2
	}
	a, err := model.Parse(c.diffA)
	if err != nil {
		fmt.Fprintln(c.stderr, err)
		return 2
	}
	b, err := model.Parse(c.diffB)
	if err != nil {
		fmt.Fprintln(c.stderr, err)
		return 2
	}
	optsA := c.opts()
	optsA.Parallelism = c.workers
	optsA.Model = a
	optsA.Reduce = checker.ReduceSet{}
	optsB := optsA
	optsB.Model = b
	optsB.Reduce = c.reduce
	rep, err := harness.RunDiff(target, optsA, optsB)
	if err != nil {
		fmt.Fprintln(c.stderr, err)
		return 2
	}
	if c.jsonOut {
		blob, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintf(c.stderr, "encoding report: %v\n", err)
			return 1
		}
		fmt.Fprintln(c.stdout, string(blob))
	} else {
		fmt.Fprint(c.stdout, rep.Render())
	}
	if rep.A.Model == rep.B.Model && !rep.Identical {
		fmt.Fprintf(c.stderr, "diff: both legs ran under %s (reduce=%s vs reduce=%s) but observed different behavior or failure sets on %q\n",
			rep.A.Model, rep.A.Reduce, rep.B.Reduce, target)
		return 1
	}
	return 0
}

// unknownBenchmark reports an unrecognized benchmark name, listing the
// valid ones so the caller need not guess.
func unknownBenchmark(w io.Writer, name string) int {
	fmt.Fprintf(w, "unknown benchmark %q; available benchmarks:\n", name)
	for _, b := range harness.Benchmarks() {
		fmt.Fprintf(w, "  %s\n", b.Name)
	}
	return 2
}

func (c *cli) fig7() int {
	rows := harness.RunAllFig7(c.opts())
	if c.jsonOut {
		return c.emitSnapshot(rows, nil)
	}
	fmt.Fprintln(c.stdout, "=== Figure 7: benchmark results ===")
	fmt.Fprint(c.stdout, harness.FormatFig7(rows))
	return 0
}

func (c *cli) fig8() int {
	rows := harness.RunAllFig8(c.opts())
	if c.jsonOut {
		return c.emitSnapshot(nil, rows)
	}
	fmt.Fprintln(c.stdout, "=== Figure 8: bug injection detection ===")
	fmt.Fprint(c.stdout, harness.FormatFig8(rows))
	return 0
}

func (c *cli) emitSnapshot(fig7 []harness.Fig7Row, fig8 []harness.Fig8Row) int {
	blob, err := harness.SnapshotJSONFor(c.model, fig7, fig8)
	if err != nil {
		fmt.Fprintf(c.stderr, "encoding snapshot: %v\n", err)
		return 1
	}
	fmt.Fprintln(c.stdout, string(blob))
	return 0
}

func (c *cli) knownBugs() {
	fmt.Fprintln(c.stdout, "=== §6.4.1: known bugs ===")
	fmt.Fprint(c.stdout, harness.FormatKnownBugs(harness.RunKnownBugs()))
}

func (c *cli) overlyStrong() {
	fmt.Fprintln(c.stdout, "=== §6.4.3: overly strong parameter (Chase-Lev take CAS -> relaxed) ===")
	r := harness.RunOverlyStrong()
	fmt.Fprintf(c.stdout, "executions=%d feasible=%d violations=%d\n", r.Executions, r.Feasible, r.Violations)
	if r.Violations == 0 {
		fmt.Fprintln(c.stdout, "no specification violation: the seq_cst CAS on top is overly strong (authors confirmed)")
	}
}

func (c *cli) specStats() {
	fmt.Fprintln(c.stdout, "=== §6.2: specification statistics ===")
	fmt.Fprint(c.stdout, harness.FormatSpecStats(harness.RunSpecStats()))
}

func (c *cli) dotOne(name string) int {
	b := harness.BenchmarkByName(name)
	if b == nil {
		return unknownBenchmark(c.stderr, name)
	}
	// The first DFS paths may be pruned (fairness); capture the first
	// feasible execution and stop shortly after. -model and -reduce shape
	// which execution that is.
	var dot string
	cfg := c.opts().ExplorerConfig(b.Name)
	cfg.MaxExecutions = 1000
	cfg.StopAtFirst = true
	cfg.OnExecution = func(sys *checker.System) []*checker.Failure {
		if dot == "" {
			dot = checker.ExportDOT(sys)
			return []*checker.Failure{{Kind: checker.FailAssertion, Msg: "stop after first feasible execution"}}
		}
		return nil
	}
	core.Explore(b.Spec(), cfg, b.Progs(b.Orders())[0])
	fmt.Fprint(c.stdout, dot)
	return 0
}

// jsonOne explores the benchmark's primary unit test to completion and
// prints a JSON document holding the full Result (with Stats) plus the
// machine-readable trace of the first feasible execution.
func (c *cli) jsonOne(name string) int {
	b := harness.BenchmarkByName(name)
	if b == nil {
		return unknownBenchmark(c.stderr, name)
	}
	var trace json.RawMessage
	cfg := c.opts().ExplorerConfig(b.Name)
	cfg.OnExecution = func(sys *checker.System) []*checker.Failure {
		if trace == nil {
			if blob, err := checker.ExportJSON(sys); err == nil {
				trace = blob
			}
		}
		return nil
	}
	res := core.Explore(b.Spec(), cfg, b.Progs(b.Orders())[0])
	out := struct {
		Benchmark string          `json:"benchmark"`
		Result    *checker.Result `json:"result"`
		Trace     json.RawMessage `json:"trace,omitempty"`
	}{Benchmark: b.Name, Result: res, Trace: trace}
	blob, err := json.MarshalIndent(&out, "", "  ")
	if err != nil {
		fmt.Fprintf(c.stderr, "encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintln(c.stdout, string(blob))
	return 0
}

// interruptOnSignal returns a channel that closes on the first SIGINT or,
// when budget is positive, once budget has elapsed, plus a cleanup func.
// The engine drains gracefully and writes its final checkpoint; a second
// SIGINT kills the process the usual way because the handler is removed
// after the first. The budget timer feeds the signal channel, so it
// shares the teardown below: it never fires after cleanup.
func interruptOnSignal(budget time.Duration) (<-chan struct{}, func()) {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	stop := func() { signal.Stop(sig) }
	if budget > 0 {
		timer := time.AfterFunc(budget, func() {
			select {
			case sig <- os.Interrupt:
			default: // a signal is already pending
			}
		})
		stop = func() {
			signal.Stop(sig)
			timer.Stop()
		}
	}
	return interruptFrom(sig, stop)
}

// interruptFrom wires an already-registered signal channel to an
// interrupt channel; stop unregisters it. Split from interruptOnSignal
// so tests can drive sig directly instead of raising real signals.
//
// Teardown uses a dedicated done channel instead of closing sig: the old
// `signal.Stop(sig); close(sig)` cleanup both let the parked receiver
// observe a zero-value receive and — worse — left a signal delivered
// just before Stop sitting in sig's buffer, where the receiver could
// still drain it (ok=true) after the run had completed and close the
// interrupt channel retroactively, making a finished explore run look
// interrupted. Now cleanup flips `finished` under the mutex before
// waking the receiver, so once cleanup returns, intr is guaranteed never
// to close — no matter what is buffered in sig.
func interruptFrom(sig chan os.Signal, stop func()) (<-chan struct{}, func()) {
	intr := make(chan struct{})
	done := make(chan struct{})
	var mu sync.Mutex
	finished := false
	go func() {
		select {
		case <-done:
			return
		case <-sig:
		}
		stop()
		mu.Lock()
		defer mu.Unlock()
		if !finished {
			close(intr)
		}
	}()
	cleanup := func() {
		mu.Lock()
		finished = true
		mu.Unlock()
		stop()
		close(done)
	}
	return intr, cleanup
}

// checkpointWriter builds the Config.Checkpoint hook: every snapshot
// (periodic and final) is wrapped in the benchmark-pinning envelope and
// atomically written to path. Write errors go to stderr but don't stop
// the exploration — the previous checkpoint on disk stays intact.
func (c *cli) checkpointWriter(path, benchmark string) func(*checker.Checkpoint) {
	return func(cp *checker.Checkpoint) {
		cf := &harness.CheckpointFile{Schema: harness.CheckpointFileSchema, Benchmark: benchmark, State: cp}
		if err := harness.WriteCheckpointFile(path, cf); err != nil {
			fmt.Fprintln(c.stderr, err)
		}
	}
}

// printExploreResult summarizes one exploration, either human-readable
// or as the same JSON shape jsonOne emits (minus the trace).
func (c *cli) printExploreResult(name string, res *checker.Result) int {
	if c.jsonOut {
		out := struct {
			Benchmark string          `json:"benchmark"`
			Result    *checker.Result `json:"result"`
		}{Benchmark: name, Result: res}
		blob, err := json.MarshalIndent(&out, "", "  ")
		if err != nil {
			fmt.Fprintf(c.stderr, "encoding result: %v\n", err)
			return 1
		}
		fmt.Fprintln(c.stdout, string(blob))
		return 0
	}
	state := "stopped"
	if res.Exhausted {
		state = "exhausted"
	}
	fmt.Fprintf(c.stdout, "%s: %d executions (%d feasible, %d pruned, %d failures) in %v — %s\n",
		name, res.Executions, res.Feasible, res.Pruned, res.FailureCount,
		res.Elapsed.Round(timeUnit), state)
	if res.Stats.Steals > 0 || res.Stats.MaxFrontier > 0 {
		fmt.Fprintf(c.stdout, "  scheduler: %d steals, frontier high-water %d, worker-busy %v\n",
			res.Stats.Steals, res.Stats.MaxFrontier, res.Stats.WorkerBusy.Round(timeUnit))
	}
	if s := res.Stats; s.RFEquivPrunes > 0 || s.SymmetryPrunes > 0 || s.SpinloopBounds > 0 || s.RFClasses > 0 {
		fmt.Fprintf(c.stdout, "  reduction: %d rf-equiv prunes, %d symmetry prunes, %d spinloop bounds, %d rf classes\n",
			s.RFEquivPrunes, s.SymmetryPrunes, s.SpinloopBounds, s.RFClasses)
	}
	for _, f := range res.Failures {
		fmt.Fprintf(c.stdout, "  failure at execution %d: %v\n", f.Execution, f)
	}
	return 0
}

// exploreCmd explores one benchmark's primary unit test under the
// work-stealing engine, writing a checkpoint on SIGINT, periodically
// with -checkpoint-every, and once more when the run ends.
func (c *cli) exploreCmd(name string) int {
	b := harness.BenchmarkByName(name)
	if b == nil {
		return unknownBenchmark(c.stderr, name)
	}
	if c.checkpointEvery > 0 && c.checkpointPath == "" {
		fmt.Fprintln(c.stderr, "-checkpoint-every needs -checkpoint <file> to write to")
		return 2
	}
	if !c.reduceGiven {
		// explore defaults to the full reduction set; pass -reduce=none
		// for the pre-reduction explorer.
		c.reduce = checker.ReduceAll()
	}
	opts := c.opts()
	opts.Parallelism = c.workers
	cfg := opts.ExplorerConfig(b.Name)
	cfg.MaxExecutions = c.maxExecs
	if c.checkpointPath != "" {
		cfg.Checkpoint = c.checkpointWriter(c.checkpointPath, b.Name)
		cfg.CheckpointEvery = c.checkpointEvery
	}
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(c.stderr, err)
		return 2
	}
	intr, cleanup := interruptOnSignal(0)
	defer cleanup()
	cfg.Interrupt = intr
	res := core.Explore(b.Spec(), cfg, b.Progs(b.Orders())[0])
	if c.checkpointPath != "" && !c.jsonOut {
		fmt.Fprintf(c.stdout, "checkpoint written to %s\n", c.checkpointPath)
	}
	return c.printExploreResult(b.Name, res)
}

// resumeCmd continues an exploration from a checkpoint file under the
// checkpoint's model and reduction set; a -model or -reduce that names
// another is refused by cfg.Validate. With -verify the result is
// additionally checked bit-identical against a fresh one-worker
// exploration. Re-checkpointing goes back to the same file unless
// -checkpoint names another.
func (c *cli) resumeCmd(path string) int {
	cf, err := harness.ReadCheckpointFile(path)
	if err != nil {
		fmt.Fprintln(c.stderr, err)
		return 1
	}
	if !c.modelSet {
		c.model = cf.State.Model
	}
	if !c.reduceGiven {
		c.reduce = cf.State.Reduce
	}
	if c.verify && c.reduce.RF {
		fmt.Fprintln(c.stderr, "resume -verify cannot run with the rf reduction: checkpoints do not carry the rf seen-set, so the resumed half re-registers states and its execution/prune split legitimately differs from an uninterrupted run (explore with -reduce=none, or without rf, for round-trip verification)")
		return 2
	}
	b := harness.BenchmarkByName(cf.Benchmark)
	opts := c.opts()
	opts.Parallelism = c.workers
	cfg := opts.ExplorerConfig(b.Name)
	cfg.MaxExecutions = c.maxExecs
	cfg.ResumeFrom = cf.State
	rePath := c.checkpointPath
	if rePath == "" {
		rePath = path
	}
	cfg.Checkpoint = c.checkpointWriter(rePath, b.Name)
	cfg.CheckpointEvery = c.checkpointEvery
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(c.stderr, err)
		return 2
	}
	intr, cleanup := interruptOnSignal(0)
	defer cleanup()
	cfg.Interrupt = intr
	res := core.Explore(b.Spec(), cfg, b.Progs(b.Orders())[0])
	if code := c.printExploreResult(b.Name, res); code != 0 {
		return code
	}
	if c.verify {
		return c.verifyResumed(b, res)
	}
	return 0
}

// verifyResumed re-explores the benchmark from scratch with one worker
// and requires the resumed result to match bit-for-bit (timings, scheduler
// telemetry, and the spec-cache hit/miss split exempt — see
// harness.ResumeComparableStats) — the checkpoint round-trip smoke check
// CI runs.
func (c *cli) verifyResumed(b *harness.Benchmark, resumed *checker.Result) int {
	opts := c.opts()
	opts.Parallelism = 0
	cfg := opts.ExplorerConfig(b.Name)
	cfg.MaxExecutions = c.maxExecs
	seq := core.Explore(b.Spec(), cfg, b.Progs(b.Orders())[0])
	switch {
	case seq.Executions != resumed.Executions,
		seq.Feasible != resumed.Feasible,
		seq.Pruned != resumed.Pruned,
		seq.Exhausted != resumed.Exhausted,
		seq.FailureCount != resumed.FailureCount:
		fmt.Fprintf(c.stderr, "verify FAILED: fresh %+v vs resumed %+v\n", seq, resumed)
		return 1
	case harness.ResumeComparableStats(seq.Stats) != harness.ResumeComparableStats(resumed.Stats):
		fmt.Fprintf(c.stderr, "verify FAILED: stats diverge\n  fresh:   %+v\n  resumed: %+v\n",
			harness.ResumeComparableStats(seq.Stats), harness.ResumeComparableStats(resumed.Stats))
		return 1
	}
	for i := range seq.Failures {
		sf, rf := seq.Failures[i], resumed.Failures[i]
		if sf.Kind != rf.Kind || sf.Execution != rf.Execution {
			fmt.Fprintf(c.stderr, "verify FAILED: failure %d diverges: %v@%d vs %v@%d\n",
				i, sf.Kind, sf.Execution, rf.Kind, rf.Execution)
			return 1
		}
	}
	fmt.Fprintln(c.stdout, "verify OK: resumed result is bit-identical to a fresh one-worker exploration")
	return 0
}

func (c *cli) runOne(name string) int {
	b := harness.BenchmarkByName(name)
	if b == nil {
		return unknownBenchmark(c.stderr, name)
	}
	row := b.RunFig7(c.opts())
	f8 := b.RunFig8(c.opts())
	if c.jsonOut {
		return c.emitSnapshot([]harness.Fig7Row{row}, []harness.Fig8Row{f8})
	}
	fmt.Fprint(c.stdout, harness.FormatFig7([]harness.Fig7Row{row}))
	fmt.Fprint(c.stdout, harness.FormatFig8([]harness.Fig8Row{f8}))
	return 0
}
