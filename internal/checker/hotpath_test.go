package checker_test

import (
	"reflect"
	"testing"

	"repro/internal/checker"
	"repro/internal/harness"
)

// These tests drive each paper benchmark's primary unit test through the
// bare checker: no spec monitor is attached, so they exercise the
// memory-model kernel alone.

// hotPathCap bounds the two workloads whose full trees are too large to
// explore twice per test run (159 076 and 84 435 executions). The other
// eight run exhaustively. The capped runs cover the same DFS prefix in
// both configurations, because one worker explores in a fixed order.
var hotPathCap = map[string]int{
	"MPMC Queue": 2000,
	"Seqlock":    2000,
}

// TestKernelOptsPaperBenchmarks: turning every kernel hot-path
// optimization off leaves each paper benchmark's Result unchanged:
// Executions, Feasible, Pruned, the failure list and every non-timing
// Stats counter.
func TestKernelOptsPaperBenchmarks(t *testing.T) {
	for _, b := range harness.Benchmarks() {
		t.Run(b.Name, func(t *testing.T) {
			prog := b.Progs(b.Orders())[0]
			cfg := checker.Config{MaxExecutions: hotPathCap[b.Name]}
			on := checker.NormalizeResult(checker.Explore(cfg, prog))
			off := checker.NormalizeResult(checker.Explore(checker.KernelOptsOff(cfg), prog))
			if on.Feasible == 0 {
				t.Fatalf("no feasible executions: %+v", on)
			}
			if !reflect.DeepEqual(on, off) {
				t.Errorf("Result differs with the optimizations off:\n on:  %+v\n off: %+v", on, off)
			}
		})
	}
}

// BenchmarkExploreHotPath measures each paper benchmark's primary unit
// test explored exhaustively through the bare checker, with the kernel
// hot-path optimizations on ("opt", the defaults) and off ("base").
// Compare ns/op and allocs/op between the two modes.
func BenchmarkExploreHotPath(b *testing.B) {
	modes := []struct {
		name string
		cfg  checker.Config
	}{
		{"opt", checker.Config{}},
		{"base", checker.KernelOptsOff(checker.Config{})},
	}
	for _, bm := range harness.Benchmarks() {
		prog := bm.Progs(bm.Orders())[0]
		for _, mode := range modes {
			b.Run(bm.Name+"/"+mode.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res := checker.Explore(mode.cfg, prog)
					if res.Feasible == 0 {
						b.Fatalf("no feasible executions for %s", bm.Name)
					}
				}
			})
		}
	}
}
