// Command cdsspec reproduces the paper's evaluation from the command
// line:
//
//	cdsspec fig7                 regenerate Figure 7 (benchmark results)
//	cdsspec fig8                 regenerate Figure 8 (bug-injection detection)
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
//	cdsspec list                 list benchmark names
//	cdsspec all                  run every experiment in sequence
//
// Each verb parses only the flags it reads and refuses any other;
// `cdsspec <verb> -h` lists them. Flags go between the verb and its
// positional arguments (cdsspec run -progress "M&S Queue"); -workers may
// also precede the verb (cdsspec -workers 4 fig7).
package main

import (
	"encoding/json"
	"errors"
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

// cli carries one invocation's flag values and output streams, so run
// is testable without touching process state. A verb's flag set binds
// only the fields its body reads; the rest keep their zero values.
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

	// -model: consistency model of the explored executions.
	model model.ID

	// -reduce: execution-equivalence reductions.
	reduce checker.ReduceSet

	// diff -a/-b.
	diffA, diffB model.ID

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

// A verb is one cdsspec subcommand. Its flag set holds only the flags
// its body reads, so the flag package refuses any other with exit 2,
// and its -h text comes from this entry and that flag set.
type verb struct {
	name string
	// args names the positional arguments; a [bracketed] one is
	// optional, and one beyond them is refused.
	args  string
	about string
	// flags names the flags the body reads, each registered by define.
	// Every verb also takes -cpuprofile and -memprofile.
	flags string
	run   func(c *cli, fs *flag.FlagSet) int
}

var verbs = []verb{
	{"fig7", "", "regenerate Figure 7 (benchmark results)",
		"workers json progress model reduce", func(c *cli, _ *flag.FlagSet) int { return c.fig7() }},
	{"fig8", "", "regenerate Figure 8 (bug-injection detection)",
		"workers json progress model reduce", func(c *cli, _ *flag.FlagSet) int { return c.fig8() }},
	{"knownbugs", "", "reproduce the §6.4.1 known bugs",
		"", func(c *cli, _ *flag.FlagSet) int { return c.knownBugs() }},
	{"overlystrong", "", "reproduce the §6.4.3 overly strong CAS",
		"", func(c *cli, _ *flag.FlagSet) int { return c.overlyStrong() }},
	{"specstats", "", "print the §6.2 specification statistics",
		"", func(c *cli, _ *flag.FlagSet) int { return c.specStats() }},
	{"run", "<benchmark>", "explore one benchmark's unit test (its Figure 7 and 8 rows)",
		"workers json progress model reduce", func(c *cli, fs *flag.FlagSet) int { return c.runOne(fs.Arg(0)) }},
	{"explore", "<benchmark>", "parallel exploration; SIGINT stops it with a final checkpoint",
		"workers json progress model reduce max checkpoint checkpoint-every", func(c *cli, fs *flag.FlagSet) int { return c.exploreCmd(fs.Arg(0)) }},
	{"resume", "<file>", "resume a checkpointed exploration under its model and reductions",
		"workers json progress model reduce max checkpoint checkpoint-every verify", (*cli).resumeCmd},
	{"fastrun", "<benchmark>", "fast-mode screen (random plausible executions, built-in checks)",
		"seed max time workers json model", func(c *cli, fs *flag.FlagSet) int { return c.fastRunCmd(fs.Arg(0)) }},
	{"dot", "<benchmark>", "print one execution as a Graphviz graph",
		"model reduce progress", func(c *cli, fs *flag.FlagSet) int { return c.dotOne(fs.Arg(0)) }},
	{"json", "<benchmark>", "print one execution + stats as JSON",
		"model reduce progress", func(c *cli, fs *flag.FlagSet) int { return c.jsonOne(fs.Arg(0)) }},
	{"diff", "<target>", "diff leg A (-a, unreduced) against leg B (-b, -reduce) on a litmus test or benchmark",
		"a b reduce workers json progress", func(c *cli, fs *flag.FlagSet) int { return c.diffCmd(fs.Arg(0)) }},
	{"fuzz", "[benchmark]", "run generative campaigns (§6.4's unit-test gap)",
		"seed count budget corpus weaken workers json progress", func(c *cli, fs *flag.FlagSet) int { return c.fuzzCmd(fs.Args()) }},
	{"triage", "<benchmark>", "screen→confirm→shrink triage over generated programs",
		"seed count budget fastruns shrink corpus weaken workers json", func(c *cli, fs *flag.FlagSet) int { return c.triageCmd(fs.Arg(0)) }},
	{"shrink", "<benchmark>", "minimize a failing generated program",
		"seed count budget corpus weaken index workers json progress", func(c *cli, fs *flag.FlagSet) int { return c.shrinkCmd(fs.Arg(0)) }},
	{"serve", "", "run the verification-service daemon",
		"state addr jobs checkpoint-every", func(c *cli, _ *flag.FlagSet) int { return c.serveCmd() }},
	{"submit", "<benchmark>", "submit a job to a running daemon",
		"state addr kind max workers deadline model checkpoint-every seed count budget fastruns shrink json", func(c *cli, fs *flag.FlagSet) int { return c.submitCmd(fs) }},
	{"jobs", "", "list a daemon's jobs",
		"state addr json", func(c *cli, _ *flag.FlagSet) int { return c.jobsCmd() }},
	{"watch", "<job-id>", "stream one job's progress until it ends",
		"state addr json", func(c *cli, fs *flag.FlagSet) int { return c.watchCmd(fs.Arg(0)) }},
	{"cancel", "<job-id>", "cancel a queued or running job",
		"state addr json", func(c *cli, fs *flag.FlagSet) int { return c.cancelCmd(fs.Arg(0)) }},
	{"list", "", "list benchmark names",
		"v", func(c *cli, _ *flag.FlagSet) int { return c.list() }},
	{"all", "", "run every experiment in sequence (c11, unreduced)",
		"workers progress", func(c *cli, _ *flag.FlagSet) int { return c.all() }},
}

// define registers the flag name on fs, bound to its field of c, with
// its default and help text. The defaults of -reduce on explore and of
// -model and -reduce on resume are the only ones that depend on the verb.
func (c *cli) define(fs *flag.FlagSet, name string) {
	switch name {
	case "workers":
		fs.IntVar(&c.workers, name, c.workers, "worker goroutines: of an experiment or program pool (0 = GOMAXPROCS), or of one exploration (0 = one)")
	case "json":
		fs.BoolVar(&c.jsonOut, name, false, "emit machine-readable JSON instead of text")
	case "progress":
		fs.BoolVar(&c.progress, name, false, "print periodic exploration progress to stderr")
	case "model":
		note := "(default c11)"
		if fs.Name() == "resume" {
			note = checkpointDefault
		}
		modelVar(fs, &c.model, name, model.Default(), "consistency `model`: c11, sc, or scatomics "+note)
	case "reduce":
		note := "(default none)"
		switch fs.Name() {
		case "explore":
			c.reduce, note = checker.ReduceAll(), "(default all)"
		case "resume":
			note = checkpointDefault
		}
		fs.Func(name, "execution-equivalence reduction `set`: all, none, or a comma list of rf,symmetry,spinloop "+note, func(s string) (err error) {
			c.reduce, err = checker.ParseReduce(s)
			return err
		})
	case "a":
		modelVar(fs, &c.diffA, name, model.C11, "`model` of leg A, explored unreduced (default c11)")
	case "b":
		modelVar(fs, &c.diffB, name, model.SC, "`model` of leg B, explored under -reduce (default sc)")
	case "max":
		fs.IntVar(&c.maxExecs, name, 0, "execution budget, a resumed checkpoint's executions included (0 = exhaustive, or 1000 fast-mode runs)")
	case "checkpoint":
		fs.StringVar(&c.checkpointPath, name, "", "write the exploration checkpoint to this file (resume: default the file it resumes)")
	case "checkpoint-every":
		fs.DurationVar(&c.checkpointEvery, name, 0, "periodic checkpoint interval (0 = none, or the daemon's default of 2s)")
	case "verify":
		fs.BoolVar(&c.verify, name, false, "re-explore from scratch with one worker and require a bit-identical result")
	case "time":
		fs.DurationVar(&c.timeBudget, name, 0, "wall-clock budget (0 = run budget only)")
	case "seed":
		fs.Uint64Var(&c.seed, name, 1, "seed of the program generator and of fast-mode runs (same seed = same result)")
	case "count":
		fs.IntVar(&c.count, name, 25, "programs to generate per benchmark")
	case "budget":
		fs.IntVar(&c.budget, name, 5000, "max executions explored per generated program (0 = exhaustive)")
	case "corpus":
		fs.StringVar(&c.corpusPath, name, "", "on-disk corpus JSON that failures accumulate in")
	case "weaken":
		fs.StringVar(&c.weaken, name, "", "weaken this memory-order site one step, seeding a bug (sites: cdsspec list -v)")
	case "index":
		fs.IntVar(&c.index, name, 0, "corpus entry index among the benchmark's entries")
	case "fastruns":
		fs.IntVar(&c.fastRuns, name, 0, "fast-mode screen runs per program (0 = 200)")
	case "shrink":
		fs.BoolVar(&c.shrinkHits, name, false, "minimize confirmed reproducers")
	case "v":
		fs.BoolVar(&c.verbose, name, false, "include op registries, roles and memory-order sites")
	case "state":
		fs.StringVar(&c.stateDir, name, "", "daemon state directory (journal + checkpoints); clients read its addr file")
	case "addr":
		fs.StringVar(&c.addr, name, "", "daemon address (serve: listen address, default 127.0.0.1:0)")
	case "jobs":
		fs.IntVar(&c.jobWorkers, name, 1, "concurrent job workers")
	case "kind":
		fs.StringVar(&c.jobKind, name, "", "job kind: explore, fast, or triage (default explore)")
	case "deadline":
		fs.DurationVar(&c.deadline, name, 0, "per-job wall-clock budget (0 = none)")
	case "cpuprofile":
		fs.StringVar(&c.cpuProfile, name, "", "write a pprof CPU profile of the subcommand to this file")
	case "memprofile":
		fs.StringVar(&c.memProfile, name, "", "write a pprof heap profile after the subcommand to this file")
	default:
		panic("cdsspec: no flag " + name)
	}
}

// checkpointDefault is the default resume gives -model and -reduce.
const checkpointDefault = "(default: the checkpoint's; another is refused)"

// modelVar registers a model flag on fs with default def; model.Parse
// refuses an unknown name while the flags are parsed.
func modelVar(fs *flag.FlagSet, p *model.ID, name string, def model.ID, usage string) {
	*p = def
	fs.Func(name, usage, func(s string) (err error) {
		*p, err = model.Parse(s)
		return err
	})
}

// given reports whether the command line set fs's flag name.
func given(fs *flag.FlagSet, name string) bool {
	set := false
	fs.Visit(func(f *flag.Flag) { set = set || f.Name == name })
	return set
}

func run(args []string, stdout, stderr io.Writer) int {
	c := &cli{stdout: stdout, stderr: stderr}
	global := flag.NewFlagSet("cdsspec", flag.ContinueOnError)
	global.SetOutput(io.Discard)
	global.IntVar(&c.workers, "workers", 0, "")
	if err := global.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			usage(stdout)
			return 0
		}
		fmt.Fprintf(stderr, "cdsspec: %v\n", err)
		usage(stderr)
		return 2
	}
	if global.NArg() == 0 {
		usage(stderr)
		return 2
	}
	var v *verb
	for i := range verbs {
		if verbs[i].name == global.Arg(0) {
			v = &verbs[i]
		}
	}
	if v == nil {
		fmt.Fprintf(stderr, "cdsspec: unknown verb %q\n", global.Arg(0))
		usage(stderr)
		return 2
	}

	fs := v.flagSet(c)
	var msg string
	switch err := fs.Parse(global.Args()[1:]); {
	case errors.Is(err, flag.ErrHelp):
		v.usage(stdout, fs)
		return 0
	case err != nil:
		msg = err.Error()
	case global.NFlag() > 0 && fs.Lookup("workers") == nil:
		msg = "flag provided but not defined: -workers"
	default:
		msg = v.checkArgs(fs.Args())
	}
	if msg != "" {
		fmt.Fprintf(stderr, "cdsspec %s: %s (see cdsspec %s -h)\n", v.name, msg, v.name)
		return 2
	}

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
	return v.run(c, fs)
}

// flagSet returns v's flags bound to c: the ones its body reads, plus
// -cpuprofile and -memprofile, which wrap every verb.
func (v *verb) flagSet(c *cli) *flag.FlagSet {
	fs := flag.NewFlagSet(v.name, flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	for _, name := range append(strings.Fields(v.flags), "cpuprofile", "memprofile") {
		c.define(fs, name)
	}
	return fs
}

// checkArgs explains why pos does not fit v's positional arguments, or
// returns "". Optional arguments follow the required ones.
func (v *verb) checkArgs(pos []string) string {
	want := strings.Fields(v.args)
	switch {
	case len(pos) < len(want) && !strings.HasPrefix(want[len(pos)], "["):
		return "missing " + want[len(pos)]
	case len(pos) > len(want):
		return fmt.Sprintf("unexpected argument %q", pos[len(want)])
	}
	return ""
}

// usage prints v's -h text: its synopsis, what it does, and its flags.
func (v *verb) usage(w io.Writer, fs *flag.FlagSet) {
	fmt.Fprintf(w, "usage: %s\n\n%s\n\nflags:\n", strings.TrimSpace("cdsspec "+v.name+" [flags] "+v.args), v.about)
	fs.SetOutput(w)
	fs.PrintDefaults()
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: cdsspec [-workers N] <verb> [flags] [arguments]\n\nverbs:")
	for _, v := range verbs {
		fmt.Fprintf(w, "  %-24s %s\n", strings.TrimSpace(v.name+" "+v.args), v.about)
	}
	fmt.Fprintln(w, "\n'cdsspec <verb> -h' lists the flags a verb reads; it refuses any other.")
}

// diffCmd explores target as two legs — A under the -a model with no
// reduction, B under the -b model and the -reduce set — and reports the
// behavior- and failure-set differences. Across models a non-empty diff
// is the expected outcome, not an error. Under one model the legs must
// be identical: a difference is a reduction soundness bug and exits 1.
func (c *cli) diffCmd(target string) int {
	optsA := c.opts()
	optsA.Parallelism = c.workers
	optsA.Model = c.diffA
	optsA.Reduce = checker.ReduceSet{}
	optsB := optsA
	optsB.Model = c.diffB
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

func (c *cli) knownBugs() int {
	fmt.Fprintln(c.stdout, "=== §6.4.1: known bugs ===")
	fmt.Fprint(c.stdout, harness.FormatKnownBugs(harness.RunKnownBugs()))
	return 0
}

func (c *cli) overlyStrong() int {
	fmt.Fprintln(c.stdout, "=== §6.4.3: overly strong parameter (Chase-Lev take CAS -> relaxed) ===")
	r := harness.RunOverlyStrong()
	fmt.Fprintf(c.stdout, "executions=%d feasible=%d violations=%d\n", r.Executions, r.Feasible, r.Violations)
	if r.Violations == 0 {
		fmt.Fprintln(c.stdout, "no specification violation: the seq_cst CAS on top is overly strong (authors confirmed)")
	}
	return 0
}

func (c *cli) specStats() int {
	fmt.Fprintln(c.stdout, "=== §6.2: specification statistics ===")
	fmt.Fprint(c.stdout, harness.FormatSpecStats(harness.RunSpecStats()))
	return 0
}

// all runs every experiment in sequence under the default model and no
// reduction.
func (c *cli) all() int {
	for i, exp := range []func() int{c.fig7, c.fig8, c.knownBugs, c.overlyStrong, c.specStats} {
		if i > 0 {
			fmt.Fprintln(c.stdout)
		}
		if code := exp(); code != 0 {
			return code
		}
	}
	return 0
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

// resumeCmd continues an exploration from the checkpoint file fs names
// under the checkpoint's model and reduction set; a -model or -reduce
// that names another is refused by cfg.Validate. With -verify the result
// is additionally checked bit-identical against a fresh one-worker
// exploration. Re-checkpointing goes back to the same file unless
// -checkpoint names another.
func (c *cli) resumeCmd(fs *flag.FlagSet) int {
	path := fs.Arg(0)
	cf, err := harness.ReadCheckpointFile(path)
	if err != nil {
		fmt.Fprintln(c.stderr, err)
		return 1
	}
	if !given(fs, "model") {
		c.model = cf.State.Model
	}
	if !given(fs, "reduce") {
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
