package harness

import (
	"repro/internal/checker"
	"repro/internal/core"
	"repro/internal/memmodel"
	"repro/internal/structures/chaselev"
	"repro/internal/structures/linuxrwlock"
	"repro/internal/structures/lockfreehash"
	"repro/internal/structures/mcslock"
	"repro/internal/structures/mpmc"
	"repro/internal/structures/msqueue"
	"repro/internal/structures/rcu"
	"repro/internal/structures/seqlock"
	"repro/internal/structures/spsc"
	"repro/internal/structures/ticketlock"
)

// Benchmarks returns the ten Figure 7/8 benchmarks with their paper
// numbers and unit-test workloads (≤3 threads, a few calls per thread,
// per §6.4's "Limitation of Unit Tests").
func Benchmarks() []*Benchmark {
	return []*Benchmark{
		chaselevBenchmark(),
		spscBenchmark(),
		rcuBenchmark(),
		lockfreehashBenchmark(),
		mcslockBenchmark(),
		mpmcBenchmark(),
		msqueueBenchmark(),
		linuxrwlockBenchmark(),
		seqlockBenchmark(),
		ticketlockBenchmark(),
	}
}

// BenchmarkByName returns the named benchmark, or nil.
func BenchmarkByName(name string) *Benchmark {
	for _, b := range Benchmarks() {
		if b.Name == name {
			return b
		}
	}
	return nil
}

func chaselevBenchmark() *Benchmark {
	return &Benchmark{
		Name:   "Chase-Lev Deque",
		Ops:    chaselev.FuzzOps,
		Spec:   func() *core.Spec { return chaselev.Spec("d") },
		Orders: chaselev.DefaultOrders,
		Progs: func(ord *memmodel.OrderTable) []func(*checker.Thread) {
			resize := func(root *checker.Thread) {
				d := chaselev.New(root, "d", ord, 2)
				owner := root.Spawn("owner", func(tt *checker.Thread) {
					d.Push(tt, 1)
					d.Push(tt, 2)
					d.Push(tt, 3) // forces a resize
					d.Take(tt)
					d.Take(tt)
				})
				thief := root.Spawn("thief", func(tt *checker.Thread) {
					d.Steal(tt)
					d.Steal(tt)
				})
				root.Join(owner)
				root.Join(thief)
			}
			last := func(root *checker.Thread) {
				d := chaselev.New(root, "d", ord, 2)
				var got, stole memmodel.Value
				owner := root.Spawn("owner", func(tt *checker.Thread) {
					d.Push(tt, 7)
					got = d.Take(tt)
				})
				thief := root.Spawn("thief", func(tt *checker.Thread) {
					stole = d.Steal(tt)
				})
				root.Join(owner)
				root.Join(thief)
				root.Assert(got == chaselev.Empty || stole == chaselev.Empty, "element duplicated")
			}
			return []func(*checker.Thread){last, resize}
		},
		UndetectableSites: map[string]bool{
			chaselev.SiteTakeCASTop:   true, // §6.4.3: confirmed overly strong
			chaselev.SitePushLoadTop:  true, // mo-anomaly only (DESIGN.md lim. 2)
			chaselev.SiteStealLoadTop: true, // mo-anomaly only
			chaselev.SiteStealCASTop:  true, // mo-anomaly only
		},
		PaperExecutions: 893, PaperFeasible: 158, PaperTime: "0.10",
		PaperInjections: 7, PaperBuiltin: 3, PaperAdmissibility: 0, PaperAssertion: 4, PaperRatePercent: 100,
	}
}

func spscBenchmark() *Benchmark {
	return &Benchmark{
		Name:   "SPSC Queue",
		Ops:    spsc.FuzzOps,
		Spec:   func() *core.Spec { return spsc.Spec("q") },
		Orders: spsc.DefaultOrders,
		Progs: func(ord *memmodel.OrderTable) []func(*checker.Thread) {
			return []func(*checker.Thread){func(root *checker.Thread) {
				q := spsc.New(root, "q", ord)
				p := root.Spawn("p", func(tt *checker.Thread) {
					q.Enq(tt, 1)
					q.Enq(tt, 2)
				})
				c := root.Spawn("c", func(tt *checker.Thread) {
					v1 := q.Deq(tt)
					v2 := q.Deq(tt)
					tt.Assert(v1 == 1 && v2 == 2, "FIFO broken: %d %d", v1, v2)
				})
				root.Join(p)
				root.Join(c)
			}}
		},
		PaperExecutions: 18, PaperFeasible: 15, PaperTime: "0.01",
		PaperInjections: 2, PaperBuiltin: 0, PaperAdmissibility: 0, PaperAssertion: 2, PaperRatePercent: 100,
	}
}

func rcuBenchmark() *Benchmark {
	return &Benchmark{
		Name:   "RCU",
		Ops:    rcu.FuzzOps,
		Spec:   func() *core.Spec { return rcu.Spec("r", 100) },
		Orders: rcu.DefaultOrders,
		Progs: func(ord *memmodel.OrderTable) []func(*checker.Thread) {
			return []func(*checker.Thread){func(root *checker.Thread) {
				r := rcu.New(root, "r", ord, 100)
				w := root.Spawn("w", func(tt *checker.Thread) { r.Update(tt, 200) })
				rd := root.Spawn("rd", func(tt *checker.Thread) {
					v := r.Read(tt)
					tt.Assert(v == 100 || v == 200, "invalid read: %d", v)
				})
				root.Join(w)
				root.Join(rd)
				root.Assert(r.Read(root) == 200, "final read")
			}}
		},
		PaperExecutions: 47, PaperFeasible: 18, PaperTime: "0.01",
		PaperInjections: 3, PaperBuiltin: 3, PaperAdmissibility: 0, PaperAssertion: 0, PaperRatePercent: 100,
	}
}

func lockfreehashBenchmark() *Benchmark {
	return &Benchmark{
		Name:   "Lockfree Hashtable",
		Ops:    lockfreehash.FuzzOps,
		Spec:   func() *core.Spec { return lockfreehash.Spec("h") },
		Orders: lockfreehash.DefaultOrders,
		Progs: func(ord *memmodel.OrderTable) []func(*checker.Thread) {
			contended := func(root *checker.Thread) {
				tbl := lockfreehash.New(root, "h", ord, 4)
				a := root.Spawn("a", func(tt *checker.Thread) {
					tbl.Put(tt, 1, 10)
					tbl.Get(tt, 1)
				})
				b := root.Spawn("b", func(tt *checker.Thread) {
					tbl.Put(tt, 1, 11)
					tbl.Get(tt, 1)
				})
				root.Join(a)
				root.Join(b)
			}
			return []func(*checker.Thread){contended}
		},
		UndetectableSites: map[string]bool{
			lockfreehash.SitePutStoreKey: true, // repaired by the lock fallback
			lockfreehash.SiteGetLoadKey:  true, // repaired by the lock fallback
		},
		PaperExecutions: 6, PaperFeasible: 6, PaperTime: "0.01",
		PaperInjections: 4, PaperBuiltin: 2, PaperAdmissibility: 0, PaperAssertion: 2, PaperRatePercent: 100,
	}
}

func mcslockBenchmark() *Benchmark {
	return &Benchmark{
		Name:   "MCS Lock",
		Ops:    mcslock.FuzzOps,
		Spec:   func() *core.Spec { return mcslock.Spec("l") },
		Orders: mcslock.DefaultOrders,
		Progs: func(ord *memmodel.OrderTable) []func(*checker.Thread) {
			spec := func(root *checker.Thread) {
				l := mcslock.New(root, "l", ord)
				body := func(tt *checker.Thread) {
					l.Lock(tt)
					l.Unlock(tt)
				}
				a := root.Spawn("a", body)
				b := root.Spawn("b", body)
				root.Join(a)
				root.Join(b)
			}
			data := func(root *checker.Thread) {
				l := mcslock.New(root, "l", ord)
				cnt := root.NewPlainInit("cnt", 0)
				body := func(tt *checker.Thread) {
					l.Lock(tt)
					cnt.Store(tt, cnt.Load(tt)+1)
					l.Unlock(tt)
				}
				a := root.Spawn("a", body)
				b := root.Spawn("b", body)
				root.Join(a)
				root.Join(b)
				root.Assert(cnt.Load(root) == 2, "lost update")
			}
			return []func(*checker.Thread){spec, data}
		},
		PaperExecutions: 21126, PaperFeasible: 13786, PaperTime: "3.00",
		PaperInjections: 8, PaperBuiltin: 4, PaperAdmissibility: 0, PaperAssertion: 4, PaperRatePercent: 100,
	}
}

func mpmcBenchmark() *Benchmark {
	return &Benchmark{
		Name:   "MPMC Queue",
		Ops:    mpmc.FuzzOps,
		Spec:   func() *core.Spec { return mpmc.Spec("q", 2) },
		Orders: mpmc.DefaultOrders,
		Progs: func(ord *memmodel.OrderTable) []func(*checker.Thread) {
			reuse := func(root *checker.Thread) {
				q := mpmc.New(root, "q", ord, 2)
				a := root.Spawn("a", func(tt *checker.Thread) {
					q.Enq(tt, 1)
					q.Enq(tt, 2)
					q.Enq(tt, 3)
				})
				b := root.Spawn("b", func(tt *checker.Thread) {
					q.Deq(tt)
					q.Deq(tt)
					q.Deq(tt)
				})
				root.Join(a)
				root.Join(b)
			}
			return []func(*checker.Thread){reuse}
		},
		UndetectableSites: map[string]bool{
			mpmc.SiteEnqFAddPos:   true, // rollover protection (§6.4.2 story)
			mpmc.SiteDeqFAddPos:   true,
			mpmc.SiteEnqStoreData: true, // redundant with the sequence handoff
			mpmc.SiteDeqLoadData:  true,
		},
		PaperExecutions: 2911, PaperFeasible: 1274, PaperTime: "4.83",
		PaperInjections: 8, PaperBuiltin: 0, PaperAdmissibility: 4, PaperAssertion: 0, PaperRatePercent: 50,
	}
}

func msqueueBenchmark() *Benchmark {
	return &Benchmark{
		Name:   "M&S Queue",
		Ops:    msqueue.FuzzOps,
		Spec:   func() *core.Spec { return msqueue.Spec("q") },
		Orders: msqueue.DefaultOrders,
		Progs: func(ord *memmodel.OrderTable) []func(*checker.Thread) {
			symmetric := func(root *checker.Thread) {
				q := msqueue.New(root, "q", ord)
				a := root.Spawn("a", func(tt *checker.Thread) {
					q.Enq(tt, 1)
					q.Deq(tt)
				})
				b := root.Spawn("b", func(tt *checker.Thread) {
					q.Enq(tt, 2)
					q.Deq(tt)
				})
				root.Join(a)
				root.Join(b)
				q.Deq(root)
			}
			split := func(root *checker.Thread) {
				q := msqueue.New(root, "q", ord)
				p := root.Spawn("p", func(tt *checker.Thread) {
					q.Enq(tt, 1)
					q.Enq(tt, 2)
				})
				c := root.Spawn("c", func(tt *checker.Thread) {
					q.Deq(tt)
					q.Deq(tt)
				})
				root.Join(p)
				root.Join(c)
				q.Deq(root)
			}
			return []func(*checker.Thread){symmetric, split}
		},
		PaperExecutions: 296, PaperFeasible: 150, PaperTime: "0.03",
		PaperInjections: 10, PaperBuiltin: 3, PaperAdmissibility: 0, PaperAssertion: 7, PaperRatePercent: 100,
	}
}

// MSQueue3x3 is the M&S queue test with three operations per thread
// (the benchmark's "M&S Queue 3+3" row): the workload whose execution
// count the reductions cut the most.
func MSQueue3x3(ord *memmodel.OrderTable) func(*checker.Thread) {
	return func(root *checker.Thread) {
		q := msqueue.New(root, "q", ord)
		a := root.Spawn("a", func(tt *checker.Thread) {
			q.Enq(tt, 1)
			q.Deq(tt)
			q.Enq(tt, 3)
		})
		b := root.Spawn("b", func(tt *checker.Thread) {
			q.Enq(tt, 2)
			q.Deq(tt)
			q.Deq(tt)
		})
		root.Join(a)
		root.Join(b)
		q.Deq(root)
	}
}

func linuxrwlockBenchmark() *Benchmark {
	return &Benchmark{
		Name:   "Linux RW Lock",
		Ops:    linuxrwlock.FuzzOps,
		Spec:   func() *core.Spec { return linuxrwlock.Spec("l") },
		Orders: linuxrwlock.DefaultOrders,
		Progs: func(ord *memmodel.OrderTable) []func(*checker.Thread) {
			mixed := func(root *checker.Thread) {
				l := linuxrwlock.New(root, "l", ord)
				a := root.Spawn("a", func(tt *checker.Thread) {
					l.ReadLock(tt)
					l.ReadUnlock(tt)
					l.WriteLock(tt)
					l.WriteUnlock(tt)
				})
				b := root.Spawn("b", func(tt *checker.Thread) {
					l.WriteLock(tt)
					l.WriteUnlock(tt)
					if l.WriteTryLock(tt) == 1 {
						l.WriteUnlock(tt)
					}
				})
				root.Join(a)
				root.Join(b)
			}
			trylock := func(root *checker.Thread) {
				l := linuxrwlock.New(root, "l", ord)
				a := root.Spawn("a", func(tt *checker.Thread) {
					l.WriteLock(tt)
					l.WriteUnlock(tt)
				})
				b := root.Spawn("b", func(tt *checker.Thread) {
					if l.ReadTryLock(tt) == 1 {
						l.ReadUnlock(tt)
					}
				})
				root.Join(a)
				root.Join(b)
			}
			return []func(*checker.Thread){mixed, trylock}
		},
		PaperExecutions: 69386, PaperFeasible: 1822, PaperTime: "13.71",
		PaperInjections: 8, PaperBuiltin: 0, PaperAdmissibility: 0, PaperAssertion: 8, PaperRatePercent: 100,
	}
}

func seqlockBenchmark() *Benchmark {
	return &Benchmark{
		Name:   "Seqlock",
		Ops:    seqlock.FuzzOps,
		Spec:   func() *core.Spec { return seqlock.Spec("s") },
		Orders: seqlock.DefaultOrders,
		Progs: func(ord *memmodel.OrderTable) []func(*checker.Thread) {
			return []func(*checker.Thread){func(root *checker.Thread) {
				s := seqlock.New(root, "s", ord)
				w := root.Spawn("w", func(tt *checker.Thread) {
					s.Write(tt, 10)
					s.Write(tt, 20)
				})
				r := root.Spawn("r", func(tt *checker.Thread) { s.Read(tt) })
				root.Join(w)
				root.Join(r)
				root.Assert(s.Read(root) == 20, "final read")
			}}
		},
		UndetectableSites: map[string]bool{
			seqlock.SiteWriteCASSeq: true, // mo-anomaly only (DESIGN.md lim. 2)
		},
		PaperExecutions: 89, PaperFeasible: 36, PaperTime: "0.01",
		PaperInjections: 5, PaperBuiltin: 0, PaperAdmissibility: 0, PaperAssertion: 5, PaperRatePercent: 100,
	}
}

func ticketlockBenchmark() *Benchmark {
	return &Benchmark{
		Name:   "Ticket Lock",
		Ops:    ticketlock.FuzzOps,
		Spec:   func() *core.Spec { return ticketlock.Spec("l") },
		Orders: ticketlock.DefaultOrders,
		Progs: func(ord *memmodel.OrderTable) []func(*checker.Thread) {
			return []func(*checker.Thread){func(root *checker.Thread) {
				l := ticketlock.New(root, "l", ord)
				body := func(tt *checker.Thread) {
					l.Lock(tt)
					l.Unlock(tt)
				}
				a := root.Spawn("a", body)
				b := root.Spawn("b", body)
				root.Join(a)
				root.Join(b)
			}}
		},
		PaperExecutions: 1790, PaperFeasible: 978, PaperTime: "0.17",
		PaperInjections: 2, PaperBuiltin: 0, PaperAdmissibility: 0, PaperAssertion: 2, PaperRatePercent: 100,
	}
}
