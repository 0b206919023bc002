package memmodel

import (
	"testing"
	"testing/quick"
)

// Handles of sampleSites, keyed from 1 as structures declare theirs.
const (
	siteLoadA SiteID = iota + 1
	siteStoreB
	siteRMWC
	siteRelaxedD
)

var sampleSites = NewSiteList("sample", []Site{
	siteLoadA:    {Name: "load_a", Class: OpLoad, Default: Acquire},
	siteStoreB:   {Name: "store_b", Class: OpStore, Default: Release},
	siteRMWC:     {Name: "rmw_c", Class: OpRMW, Default: SeqCst},
	siteRelaxedD: {Name: "relaxed_d", Class: OpLoad, Default: Relaxed},
})

func sampleTable() *OrderTable { return sampleSites.Table() }

// current returns a site's current plain order, failing unless the
// table's value carries the site it was read for.
func current(t *testing.T, tb *OrderTable, id SiteID) MemOrder {
	t.Helper()
	o, got := tb.Order(id).Split()
	if got != id {
		t.Fatalf("Order(%d) carries site %d", id, got)
	}
	return o
}

func TestOrderTableOrderSet(t *testing.T) {
	tb := sampleTable()
	if o := current(t, tb, siteLoadA); o != Acquire {
		t.Errorf("Order = %v, want acquire", o)
	}
	tb.Set("load_a", Relaxed)
	if o := current(t, tb, siteLoadA); o != Relaxed {
		t.Error("Set did not take effect")
	}
	// A value read from another site is set by its order alone.
	tb.Set("store_b", tb.Order(siteRMWC))
	if o := current(t, tb, siteStoreB); o != SeqCst {
		t.Errorf("Set from another site's value: %v, want seq_cst", o)
	}
}

// TestSplit: a bare order is the anonymous site's; a table's value
// splits into the plain order and the site, and the predicates read
// the order alone.
func TestSplit(t *testing.T) {
	if o, id := Acquire.Split(); o != Acquire || id != 0 {
		t.Errorf("Acquire.Split() = %v, %d", o, id)
	}
	v := sampleTable().Order(siteRMWC)
	if o, id := v.Split(); o != SeqCst || id != siteRMWC {
		t.Errorf("Order(rmw_c).Split() = %v, %d", o, id)
	}
	if !v.IsAcquire() || !v.IsRelease() || !v.IsSeqCst() {
		t.Errorf("predicates of %v do not read its order", v)
	}
	if v.String() != "seq_cst@3" {
		t.Errorf("String() = %q, want seq_cst@3", v.String())
	}
}

func TestOrderTableUnknownSitePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Set of unknown site should panic")
		}
	}()
	sampleTable().Set("nope", Relaxed)
}

func TestOrderTableDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate site should panic")
		}
	}()
	NewSiteList("dup", []Site{
		1: {Name: "x", Class: OpLoad, Default: Acquire},
		2: {Name: "x", Class: OpStore, Default: Release},
	})
}

// TestNewSiteListPanics: a list must leave slot 0 to the anonymous site
// and name every other slot.
func TestNewSiteListPanics(t *testing.T) {
	for name, defs := range map[string][]Site{
		"slot 0":  {{Name: "x", Class: OpLoad, Default: Acquire}},
		"no name": {2: {Name: "x", Class: OpLoad, Default: Acquire}},
		"empty":   nil,
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: NewSiteList should panic", name)
				}
			}()
			NewSiteList(name, defs)
		}()
	}
}

// TestResolve: nil means the defaults, a table of the list passes, and a
// table of another list, whose indexes name other sites, panics.
func TestResolve(t *testing.T) {
	if r := sampleSites.Resolve(nil); r.list != sampleSites || current(t, r, siteStoreB) != Release {
		t.Error("Resolve(nil) is not a default table of the list")
	}
	tb := sampleTable()
	if sampleSites.Resolve(tb) != tb {
		t.Error("Resolve replaced a table of its own list")
	}
	other := NewSiteList("other", []Site{1: {Name: "load_a", Class: OpLoad, Default: Acquire}})
	defer func() {
		if recover() == nil {
			t.Error("Resolve of another list's table should panic")
		}
	}()
	sampleSites.Resolve(other.Table())
}

func TestOrderTableCloneIndependence(t *testing.T) {
	tb := sampleTable()
	c := tb.Clone()
	c.Set("load_a", Relaxed)
	if current(t, tb, siteLoadA) != Acquire {
		t.Error("Clone is not independent")
	}
}

func TestOrderTableSitesSorted(t *testing.T) {
	sites := sampleTable().Sites()
	for i := 1; i < len(sites); i++ {
		if sites[i-1].Name >= sites[i].Name {
			t.Fatalf("Sites not sorted: %v", sites)
		}
	}
	for _, s := range sites {
		if d, _ := sampleTable().Site(s.Name); d.ID != s.ID || s.ID == 0 {
			t.Errorf("site %s: ID %d, lookup ID %d", s.Name, s.ID, d.ID)
		}
	}
}

func TestWeakenSite(t *testing.T) {
	tb := sampleTable()
	if !tb.WeakenSite("rmw_c") || current(t, tb, siteRMWC) != AcqRel {
		t.Errorf("WeakenSite rmw: got %v", tb.Order(siteRMWC))
	}
	if tb.WeakenSite("relaxed_d") {
		t.Error("relaxed site should not weaken")
	}
}

// TestWeakenings: one table per weakenable site, each differing from the
// defaults in exactly that site by exactly one ladder step.
func TestWeakenings(t *testing.T) {
	tb := sampleTable()
	ws := tb.Weakenings()
	if len(ws) != 3 { // relaxed_d is terminal
		t.Fatalf("expected 3 weakenings, got %d", len(ws))
	}
	for _, w := range ws {
		diffs := 0
		for _, s := range tb.Sites() {
			if o := current(t, w, s.ID); o != s.Default {
				diffs++
				want, ok := Weaken(s.Class, s.Default)
				if !ok || o != want {
					t.Errorf("site %s weakened to %v, want %v", s.Name, o, want)
				}
			}
		}
		if diffs != 1 {
			t.Errorf("weakening changed %d sites, want exactly 1", diffs)
		}
		if c := w.Changes(); len(c) != 1 || c[0].Order != current(t, w, c[0].ID) {
			t.Errorf("Changes() = %v, want the one weakened site", c)
		}
	}
}

// TestWeakeningsProperty (property): for any well-formed table, weakened
// or not, every weakening differs from the defaults in exactly one site.
func TestWeakeningsProperty(t *testing.T) {
	f := func(classes []uint8, weakened uint8) bool {
		if len(classes) > 6 {
			classes = classes[:6]
		}
		defs := make([]Site, len(classes)+1)
		for i, c := range classes {
			defs[i+1] = Site{
				Name:    string(rune('a' + i)),
				Class:   OpClass(c % 4),
				Default: MemOrder(c % 6),
			}
		}
		list := NewSiteList("prop", defs)
		tb := list.Table()
		// Start from a non-default table: weaken the sites whose bit is
		// set, the way the known-bug tables start from the defaults.
		for i, s := range defs[1:] {
			if weakened&(1<<i) != 0 {
				tb.WeakenSite(s.Name)
			}
		}
		for _, w := range tb.Weakenings() {
			diffs := 0
			for _, s := range w.Sites() {
				if o, _ := w.Order(s.ID).Split(); o != s.Default {
					diffs++
				}
			}
			if diffs != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSiteLookup(t *testing.T) {
	tb := sampleTable()
	if s, ok := tb.Site("store_b"); !ok || s.Class != OpStore || s.ID != siteStoreB {
		t.Errorf("Site lookup failed: %v %v", s, ok)
	}
	if _, ok := tb.Site("nope"); ok {
		t.Error("Site lookup of unknown name succeeded")
	}
}
