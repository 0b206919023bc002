package main

import (
	"encoding/json"
	"fmt"

	"repro/internal/checker"
	"repro/internal/fuzz"
	"repro/internal/harness"
	"repro/internal/memmodel"
)

// campaignConfig builds the fuzz campaign configuration from the parsed
// flags, wiring per-program progress reporting when requested.
func (c *cli) campaignConfig() fuzz.CampaignConfig {
	cfg := fuzz.CampaignConfig{
		Seed:    c.seed,
		Count:   c.count,
		Budget:  c.budget,
		Workers: c.workers,
	}
	if c.progress {
		cfg.Progress = func(i int, p checker.Progress) {
			if p.Final {
				return // per-program completions would flood a campaign log
			}
			fmt.Fprintf(c.stderr, "[program %d] %d executions (%d feasible, %d pruned) %.0f exec/s\n",
				i, p.Executions, p.Feasible, p.Pruned, p.ExecsPerSec)
		}
	}
	return cfg
}

// weakenedOrders resolves the -weaken flag against one benchmark's order
// table: nil orders (campaign uses the correct defaults) when the flag
// is unset, a one-step-weakened clone otherwise. ok is false when the
// site is unknown or already weakest.
func (c *cli) weakenedOrders(b *harness.Benchmark) (*memmodel.OrderTable, bool) {
	if c.weaken == "" {
		return nil, true
	}
	ord := b.Orders()
	if _, ok := ord.Site(c.weaken); !ok {
		fmt.Fprintf(c.stderr, "unknown memory-order site %q for %s; sites:\n", c.weaken, b.Name)
		for _, s := range ord.Sites() {
			fmt.Fprintf(c.stderr, "  %s (default %s)\n", s.Name, s.Default)
		}
		return nil, false
	}
	if !ord.WeakenSite(c.weaken) {
		fmt.Fprintf(c.stderr, "site %q of %s is already at its weakest order\n", c.weaken, b.Name)
		return nil, false
	}
	return ord, true
}

// fuzzCmd runs generative campaigns: over every benchmark, or over the
// one named positionally. Exit codes: 0 on a clean campaign (or when a
// -weaken hunt ran, whatever it found), 3 when a campaign against the
// correct orders found failures (a regression the nightly CI job turns
// into a red run), 1/2 on operational/usage errors.
func (c *cli) fuzzCmd(pos []string) int {
	bs := harness.Benchmarks()
	if len(pos) > 0 {
		b := harness.BenchmarkByName(pos[0])
		if b == nil {
			return unknownBenchmark(c.stderr, pos[0])
		}
		bs = []*harness.Benchmark{b}
	}
	if c.weaken != "" && len(bs) != 1 {
		fmt.Fprintln(c.stderr, "-weaken needs a single benchmark: sites are per-benchmark")
		return 2
	}

	var corpus *fuzz.Corpus
	if c.corpusPath != "" {
		var err error
		if corpus, err = fuzz.LoadCorpus(c.corpusPath); err != nil {
			fmt.Fprintln(c.stderr, err)
			return 1
		}
	}

	sums := make([]fuzz.Summary, 0, len(bs))
	var details []string
	unique, added := 0, 0
	for _, b := range bs {
		ord, ok := c.weakenedOrders(b)
		if !ok {
			return 2
		}
		cfg := c.campaignConfig()
		cfg.Orders = ord
		camp, err := fuzz.Run(b.FuzzTarget(), cfg)
		if err != nil {
			fmt.Fprintf(c.stderr, "fuzzing %s: %v\n", b.Name, err)
			return 1
		}
		sums = append(sums, camp.Summary)
		unique += camp.Summary.Unique
		if corpus != nil {
			added += corpus.AddCampaign(camp)
		}
		for _, v := range camp.Unique {
			details = append(details, fmt.Sprintf("[%s] %s: %s\n  program: %s",
				b.Name, v.Bucket, v.Failure.Msg, v.Program))
		}
	}
	if corpus != nil {
		if err := corpus.Save(c.corpusPath); err != nil {
			fmt.Fprintln(c.stderr, err)
			return 1
		}
		fmt.Fprintf(c.stderr, "corpus %s: %d new entries (%d total)\n", c.corpusPath, added, len(corpus.Entries))
	}

	if c.jsonOut {
		blob, err := json.MarshalIndent(&harness.BenchSnapshot{Schema: harness.SnapshotSchema, Fuzz: sums}, "", "  ")
		if err != nil {
			fmt.Fprintf(c.stderr, "encoding snapshot: %v\n", err)
			return 1
		}
		fmt.Fprintln(c.stdout, string(blob))
	} else {
		fmt.Fprintf(c.stdout, "=== fuzz campaign (seed %d, %d programs/benchmark, budget %d) ===\n",
			c.seed, c.count, c.budget)
		fmt.Fprint(c.stdout, fuzz.FormatSummaries(sums))
		for _, d := range details {
			fmt.Fprintln(c.stdout, d)
		}
	}
	if unique > 0 && c.weaken == "" {
		fmt.Fprintf(c.stderr, "fuzz: %d unique failures against the correct memory orders\n", unique)
		return 3
	}
	return 0
}

// shrinkCmd minimizes a failing program for one benchmark. With -corpus
// the program comes from the corpus (-index selects among the
// benchmark's entries) and the minimal form is saved back; otherwise a
// fresh campaign supplies the first unique failure.
func (c *cli) shrinkCmd(name string) int {
	b := harness.BenchmarkByName(name)
	if b == nil {
		return unknownBenchmark(c.stderr, name)
	}
	ord, ok := c.weakenedOrders(b)
	if !ok {
		return 2
	}
	target := b.FuzzTarget()
	cfg := c.campaignConfig()

	var prog *fuzz.Program
	var corpus *fuzz.Corpus
	var entry *fuzz.CorpusEntry
	if c.corpusPath != "" {
		var err error
		if corpus, err = fuzz.LoadCorpus(c.corpusPath); err != nil {
			fmt.Fprintln(c.stderr, err)
			return 1
		}
		entries := corpus.ForBenchmark(b.Name)
		if c.index < 0 || c.index >= len(entries) {
			fmt.Fprintf(c.stderr, "corpus %s holds %d entries for %s; -index %d is out of range\n",
				c.corpusPath, len(entries), b.Name, c.index)
			return 1
		}
		entry = entries[c.index]
		prog = entry.Program
	} else {
		cfg.Orders = ord
		camp, err := fuzz.Run(target, cfg)
		if err != nil {
			fmt.Fprintf(c.stderr, "fuzzing %s: %v\n", b.Name, err)
			return 1
		}
		if len(camp.Unique) == 0 {
			fmt.Fprintf(c.stderr, "campaign found no failure to shrink (seed %d, %d programs); try -weaken <site>, another -seed, or a larger -count\n",
				c.seed, c.count)
			return 1
		}
		prog = camp.Unique[0].Program
	}

	res, err := fuzz.Shrink(target, prog, ord, cfg)
	if err != nil {
		fmt.Fprintln(c.stderr, err)
		return 1
	}
	if entry != nil {
		entry.Shrunk = res.Minimal
		if err := corpus.Save(c.corpusPath); err != nil {
			fmt.Fprintln(c.stderr, err)
			return 1
		}
	}

	if c.jsonOut {
		blob, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			fmt.Fprintf(c.stderr, "encoding shrink result: %v\n", err)
			return 1
		}
		fmt.Fprintln(c.stdout, string(blob))
		return 0
	}
	fmt.Fprintf(c.stdout, "=== shrink: %s (%s) ===\n", b.Name, res.Kind)
	fmt.Fprintf(c.stdout, "original (%d ops): %s\n", res.Original.OpCount(), res.Original)
	fmt.Fprintf(c.stdout, "minimal  (%d ops): %s\n", res.Minimal.OpCount(), res.Minimal)
	fmt.Fprintf(c.stdout, "%d reductions accepted over %d candidate checks; failure: %s\n",
		res.Steps, res.Attempts, res.Verdict.Failure.Msg)
	fmt.Fprintln(c.stdout)
	fmt.Fprint(c.stdout, res.Minimal.GoClosure(target.Registry))
	return 0
}

// list prints the benchmark names; with -v, each one's fuzzable op
// registry and memory-order sites (the -weaken and shrink vocabulary).
func (c *cli) list() int {
	for _, b := range harness.Benchmarks() {
		fmt.Fprintln(c.stdout, b.Name)
		if !c.verbose {
			continue
		}
		reg := b.Ops()
		for _, r := range reg.Roles {
			cap := "unlimited"
			if r.Max > 0 {
				cap = fmt.Sprintf("max %d", r.Max)
			}
			fmt.Fprintf(c.stdout, "  role %s (%s)\n", r.Name, cap)
		}
		for _, op := range reg.Ops {
			line := fmt.Sprintf("  op %s/%d", op.Name, op.Arity)
			if op.Role != "" {
				line += " [" + op.Role + "]"
			}
			if op.Produces > 0 {
				line += fmt.Sprintf(" produces=%d", op.Produces)
			}
			if op.Consumes > 0 {
				line += fmt.Sprintf(" consumes=%d", op.Consumes)
			}
			fmt.Fprintln(c.stdout, line)
		}
		for _, s := range b.Orders().Sites() {
			fmt.Fprintf(c.stdout, "  site %s (default %s)\n", s.Name, s.Default)
		}
	}
	return 0
}
