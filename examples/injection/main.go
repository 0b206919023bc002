// Injection demonstrates the §6.4.2 experiment on a single structure:
// weaken each memory-order site of the Michael & Scott queue one step and
// show which checker channel catches it.
//
// Run with: go run ./examples/injection
package main

import (
	"fmt"

	"repro/internal/checker"
	"repro/internal/core"
	"repro/internal/memmodel"
	"repro/internal/structures/msqueue"
)

func workload(ord *memmodel.OrderTable) func(*checker.Thread) {
	return func(root *checker.Thread) {
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
}

func main() {
	fmt.Println("Bug injection on the Michael & Scott queue (one weakened site per trial)")
	fmt.Println()
	defaults := msqueue.DefaultOrders()
	for _, s := range defaults.Sites() {
		weak := defaults.Clone()
		if !weak.WeakenSite(s.Name) {
			fmt.Printf("%-22s %-18s (already weakest; not injectable)\n", s.Name, s.Default)
			continue
		}
		res := core.Explore(msqueue.Spec("q"), checker.Config{StopAtFirst: true}, workload(weak))
		verdict := "NOT DETECTED"
		if f := res.FirstFailure(); f != nil {
			verdict = "detected via " + f.Kind.String()
		}
		fmt.Printf("%-22s %s -> %-10s %s\n", s.Name, s.Default, weak.Changes()[0].Order, verdict)
	}
	fmt.Println()
	fmt.Println("(The paper's Figure 8 runs this for all ten benchmarks: `cdsspec fig8`.)")
}
