package checker

import (
	"time"
)

// This file implements fast mode (Config.FastMode): the C11Tester-style
// engine that samples one plausible execution per run in O(live state)
// memory instead of enumerating the execution tree. Each run draws a
// fresh schedule and reads-from assignment from a biased sampler seeded
// by (Config.Seed, run index), so a fixed budget produces bit-identical
// results at any Parallelism (workers own contiguous index blocks merged
// in block order). The per-run state the
// System retains is bounded: per-location store buffers hold at most
// storeBound stores (system.go maybeEvict), the action trace is not
// recorded (system.go recordFast), and actions/clocks recycle through
// free lists between runs (system.go sweepFast, wired via the execution
// pool).

// derivedSeed maps (seed, run index) to an independent 64-bit stream
// seed via the splitmix64 finalizer. Fast mode keys every run's
// decisions on this value alone, which is what makes results independent
// of how runs are distributed over workers.
func derivedSeed(seed int64, i int) uint64 {
	z := uint64(seed) + (uint64(i)+1)*0x9E3779B97F4A7C15
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

// fastChooser draws fast-mode decisions from an inline splitmix64
// stream with C11Tester-flavoured biases: reads-from prefers recent
// stores (a geometric distribution over distance from the newest
// readable store — real hardware rarely serves deep-stale values, and
// recent-biased sampling reaches buggy interleavings sooner), CAS
// outcomes prefer the deterministic branch, and the scheduler is sticky
// (it keeps running the previous thread with probability 3/4, producing
// the long uninterrupted bursts real schedulers exhibit while still
// exercising preemption points).
type fastChooser struct {
	s          uint64 // splitmix64 state, reseeded per run
	lastTid    int    // thread the previous pickThread chose (-1 at run start)
	stats      *Stats
	scratchRec floorRec
}

// reseed repositions the decision stream for one run.
func (f *fastChooser) reseed(seed uint64) {
	f.s = seed
	f.lastTid = -1
}

// next advances the splitmix64 stream.
func (f *fastChooser) next() uint64 {
	f.s += 0x9E3779B97F4A7C15
	z := f.s
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

// intn returns a value in [0, n). The modulo bias is irrelevant here —
// the sampler only needs a reproducible spread, not uniformity.
func (f *fastChooser) intn(n int) int { return int(f.next() % uint64(n)) }

// pinnedFloor: fast runs never replay a prefix, so value sites always
// compute fresh.
func (f *fastChooser) pinnedFloor() (*floorRec, bool) { return nil, false }

// freshDecision: fast runs never replay. (Moot in practice — Validate
// rejects FastMode with any reduction enabled.)
func (f *fastChooser) freshDecision() bool { return true }

func (f *fastChooser) noteFloor(rec floorRec) *floorRec {
	f.scratchRec = rec
	return &f.scratchRec
}

func (f *fastChooser) choose(n int, kind byte) int {
	if n <= 1 {
		return 0
	}
	if f.stats != nil {
		// Fast runs never replay, so every multi-way decision is a
		// branch point.
		if kind == 'l' {
			f.stats.ScheduleBranchPoints++
		} else {
			f.stats.RFBranchPoints++
		}
	}
	switch kind {
	case 'r':
		// Alternatives are ordered oldest..newest; pick an offset from
		// the newest with P(offset = k) ∝ (1/2)^k.
		k := 0
		for k < n-1 && f.next()&1 == 0 {
			k++
		}
		return n - 1 - k
	case 'c':
		// Keep the deterministic CAS outcome 3/4 of the time.
		if f.next()&3 != 0 {
			return 0
		}
		return f.intn(n)
	default:
		return f.intn(n)
	}
}

func (f *fastChooser) pickThread(s *System, enabled []*Thread) *Thread {
	if len(enabled) == 1 {
		f.lastTid = enabled[0].id
		return enabled[0]
	}
	if f.stats != nil {
		f.stats.ScheduleBranchPoints++
	}
	if f.lastTid >= 0 && f.next()&3 != 0 {
		for _, t := range enabled {
			if t.id == f.lastTid {
				return t
			}
		}
	}
	t := enabled[f.intn(len(enabled))]
	f.lastTid = t.id
	return t
}

// fastRunBudget returns the number of fast-mode runs: MaxExecutions, or
// 1000 when unset (fast mode cannot exhaust the execution space, so an
// unlimited budget would never terminate without an Interrupt).
func (c *Config) fastRunBudget() int {
	if c.MaxExecutions > 0 {
		return c.MaxExecutions
	}
	return 1000
}

// exploreFast is Explore for fast mode. Workers own contiguous run-index
// blocks, each run draws from its own derived seed, and the blocks merge
// in order (mergeInto), so the Result is
// bit-identical (modulo timing fields) across Parallelism settings for a
// fixed budget. StopAtFirst and Interrupt (which also carries a
// wall-clock budget) cut the run sequence between runs; with
// Parallelism > 1 the cut point is nondeterministic.
func exploreFast(c *Config, root func(*Thread)) *Result {
	res := &Result{}
	start := time.Now()
	defer func() {
		res.Elapsed += time.Since(start)
		if s := res.Elapsed.Seconds(); s > 0 {
			res.Stats.RunsPerSec = float64(res.Executions) / s
		}
	}()
	total := c.fastRunBudget()
	if total <= 0 {
		return res
	}
	workers := c.Parallelism
	if workers < 1 {
		workers = 1
	}
	if workers > total {
		workers = total
	}
	b := newBounds(0, 0)
	starts := make([]int, workers+1)
	for w := 0; w < workers; w++ {
		n := total / workers
		if w < total%workers {
			n++
		}
		starts[w+1] = starts[w] + n
	}
	locals := make([]*Result, workers)
	ForEach(workers, workers, func(w int) {
		local := &Result{}
		locals[w] = local
		fastBlock(c, local, root, starts[w], starts[w+1], b)
	})
	mergeInto(res, locals, c.MaxFailures)
	return res
}

// fastBlock runs fast-mode run indices [from, to) into res, reseeding
// the chooser per index. b carries StopAtFirst cancellation across
// blocks.
func fastBlock(c *Config, res *Result, root func(*Thread), from, to int, b *bounds) {
	ch := &fastChooser{stats: &res.Stats}
	pool := &execPool{}
	defer pool.close()
	for i := from; i < to; i++ {
		if b.stopped() {
			return
		}
		if c.Interrupt != nil {
			select {
			case <-c.Interrupt:
				return
			default:
			}
		}
		ch.reseed(derivedSeed(c.Seed, i))
		scratch := c.newScratch() // each run is one shard
		failed := runOne(c, res, ch, root, scratch, pool)
		if failed && c.StopAtFirst {
			b.cancel()
			return
		}
	}
}
