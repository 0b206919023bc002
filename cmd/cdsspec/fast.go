package main

import (
	"fmt"

	"repro/internal/checker"
	"repro/internal/harness"
)

// fastRunCmd screens one benchmark's primary unit test in fast mode:
// randomized plausible executions with bounded store buffers, no
// decision tree, no CDSSpec layer — built-in checks only (races,
// uninitialized loads, deadlocks, livelocks). The run budget is -max
// (default 1000), the wall-clock budget -time, and -seed makes the whole
// run deterministic: same seed, same failures, at any -workers. -time
// stops the run loop through the same interrupt a SIGINT closes.
func (c *cli) fastRunCmd(name string) int {
	b := harness.BenchmarkByName(name)
	if b == nil {
		return unknownBenchmark(c.stderr, name)
	}
	cfg := checker.Config{
		FastMode:      true,
		Model:         c.model,
		Seed:          int64(c.seed),
		MaxExecutions: c.maxExecs,
		Parallelism:   c.workers,
	}
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(c.stderr, err)
		return 2
	}
	intr, cleanup := interruptOnSignal(c.timeBudget)
	defer cleanup()
	cfg.Interrupt = intr
	res := checker.Explore(cfg, b.Progs(b.Orders())[0])
	code := c.printExploreResult(b.Name, res)
	if !c.jsonOut {
		fmt.Fprintf(c.stdout, "  fast mode: %.0f runs/sec, %d store-buffer evictions\n",
			res.Stats.RunsPerSec, res.Stats.StoreBufferEvictions)
	}
	if res.FailureCount > 0 {
		return 1
	}
	return code
}
