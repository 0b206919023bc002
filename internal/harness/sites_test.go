package harness

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/checker"
	"repro/internal/memmodel"
)

// siteWiringCap bounds each exploration under a weakened table, which
// checks only the wiring; the default tables are explored exhaustively,
// since they also decide which sites the unit tests never execute.
const siteWiringCap = 2000

// TestSiteWiring runs each primary benchmark's unit tests under its
// default orders and under every one of its Weakenings tables, and checks
// every action of every feasible execution (only those reach the
// OnExecution hook):
//   - an atomic action or fence records a site of the benchmark's table,
//     or the anonymous site 0 (init stores and bare orders such as CAS
//     failure orders);
//   - its recorded order is the table's current order at that site;
//   - every other action records the anonymous site.
//
// Under the default orders it also pins the sites the unit tests never
// execute: Figure 8 weakens them too (RunFig8 weakens every site of the
// table), but no unit test can detect a weakening it never runs.
func TestSiteWiring(t *testing.T) {
	// The hashtable's locked second lookup runs only when the lock-free
	// probe misses, and in its unit test every get follows its own
	// thread's put of the key.
	neverExecuted := map[string][]string{
		"Lockfree Hashtable": {"get2_load_key", "get2_load_value"},
	}
	for _, b := range Benchmarks() {
		defaults := b.Orders()
		tables := append([]*memmodel.OrderTable{defaults}, defaults.Weakenings()...)
		for ti, tbl := range tables {
			label := "defaults"
			if ti > 0 {
				label = tbl.Changes()[0].String()
			}
			sites := tbl.Sites()
			executed := make([]bool, len(sites)+1)
			var bad []string
			cfg := checker.Config{Parallelism: 1}
			if ti > 0 {
				cfg.MaxExecutions = siteWiringCap
			}
			cfg.OnExecution = func(sys *checker.System) []*checker.Failure {
				for _, a := range sys.Actions() {
					if err := checkSite(a, tbl, len(sites)); err != nil {
						if len(bad) < 5 {
							bad = append(bad, err.Error())
						}
						continue
					}
					executed[a.Site] = true
				}
				return nil
			}
			feasible := 0
			for _, prog := range b.Progs(tbl) {
				feasible += checker.Explore(cfg, prog).Feasible
			}
			if feasible == 0 {
				// Every execution fails (a data race, say): no hook sees
				// an action.
				t.Logf("%s [%s]: no feasible execution to check", b.Name, label)
			}
			for _, msg := range bad {
				t.Errorf("%s [%s]: %s", b.Name, label, msg)
			}
			if ti > 0 {
				continue
			}
			var never []string
			for _, s := range sites {
				if !executed[s.ID] {
					never = append(never, s.Name)
				}
			}
			if want := neverExecuted[b.Name]; !slices.Equal(never, want) {
				t.Errorf("%s: sites the unit tests never execute = %v, want %v", b.Name, never, want)
			}
		}
	}
}

// checkSite checks one action's recorded site and order against the
// table of n sites the execution ran under.
func checkSite(a *memmodel.Action, tbl *memmodel.OrderTable, n int) error {
	if !a.Kind.IsAtomic() && a.Kind != memmodel.KindFence {
		if a.Site != 0 {
			return fmt.Errorf("%v records site %d", a, a.Site)
		}
		return nil
	}
	if a.Site == 0 {
		return nil
	}
	if int(a.Site) > n {
		return fmt.Errorf("%v records site %d, outside the table's %d sites", a, a.Site, n)
	}
	if want, _ := tbl.Order(a.Site).Split(); a.Order != want {
		return fmt.Errorf("%v records order %s at site %d, whose current order is %s", a, a.Order, a.Site, want)
	}
	return nil
}

// TestNewRefusesForeignOrders: each benchmark's structure refuses an
// order table built from another structure's sites, whose indexes name
// other sites.
func TestNewRefusesForeignOrders(t *testing.T) {
	bs := Benchmarks()
	for i, b := range bs {
		foreign := bs[(i+1)%len(bs)]
		var refusal string
		checker.Explore(checker.Config{MaxExecutions: 1}, func(root *checker.Thread) {
			defer func() {
				if r := recover(); r != nil {
					msg, ok := r.(string)
					if !ok {
						panic(r) // the checker's own unwinding
					}
					refusal = msg
				}
			}()
			b.Ops().New(root, foreign.Orders())
		})
		if refusal == "" {
			t.Errorf("%s accepted the order table of %s", b.Name, foreign.Name)
		} else {
			t.Logf("%s: %s", b.Name, refusal)
		}
	}
}
