package memmodel

import (
	"fmt"
	"sort"
)

// Site is one named atomic-operation site in a data structure: the unit
// of memory-order parameterization. The bug-injection experiment of the
// paper (§6.4.2) weakens one site at a time.
type Site struct {
	// ID is the site's index in its SiteList, set by NewSiteList.
	ID SiteID
	// Name identifies the site (e.g. "enq_cas_next").
	Name string
	// Class is the operation class at the site (load/store/rmw/fence).
	Class OpClass
	// Default is the order the correct implementation uses.
	Default MemOrder
}

// SiteID is a site's dense index in its structure's SiteList, from 1.
// 0 is the anonymous site: the site of a bare order such as Acquire, and
// of every action no site handle issued.
type SiteID uint8

// SiteList is one structure's memory-order sites, declared once in the
// structure's package and shared by every OrderTable built from it.
type SiteList struct {
	name string
	// defs[id] defines site id; defs[0] is the anonymous site's empty
	// slot.
	defs []Site
	// byName indexes defs by site name, for the experiments that pick a
	// site by name (Set, Site, WeakenSite).
	byName map[string]SiteID
}

// NewSiteList declares the sites of the structure called name. A site's
// SiteID is its index in defs, so a package declares its handles as
// constants from 1 and keys the slice with them, leaving defs[0], the
// anonymous site, empty. It panics on an empty or duplicate name, a
// filled defs[0], or more sites than a SiteID can index.
func NewSiteList(name string, defs []Site) *SiteList {
	if len(defs) == 0 || defs[0] != (Site{}) {
		panic(fmt.Sprintf("%s: sites must be keyed from 1, leaving 0 to the anonymous site", name))
	}
	if len(defs)-1 > int(^SiteID(0)) {
		panic(fmt.Sprintf("%s: %d sites, more than a SiteID indexes", name, len(defs)-1))
	}
	l := &SiteList{name: name, defs: append([]Site(nil), defs...), byName: make(map[string]SiteID, len(defs)-1)}
	for id := 1; id < len(l.defs); id++ {
		s := &l.defs[id]
		if s.Name == "" {
			panic(fmt.Sprintf("%s: site %d has no name", name, id))
		}
		if _, dup := l.byName[s.Name]; dup {
			panic(fmt.Sprintf("%s: duplicate site %q", name, s.Name))
		}
		s.ID = SiteID(id)
		l.byName[s.Name] = s.ID
	}
	return l
}

// Table returns a new table with every site at its default order.
func (l *SiteList) Table() *OrderTable {
	t := &OrderTable{list: l, cur: make([]MemOrder, len(l.defs))}
	for _, s := range l.defs[1:] {
		t.cur[s.ID] = s.Default.tagged(s.ID)
	}
	return t
}

// Resolve returns the table a structure built from l reads its orders
// from: t, or the defaults when t is nil. It panics when t was built from
// another list, whose site indexes mean other sites.
func (l *SiteList) Resolve(t *OrderTable) *OrderTable {
	if t == nil {
		return l.Table()
	}
	if t.list != l {
		panic(fmt.Sprintf("%s: order table built from the sites of %s", l.name, t.list.name))
	}
	return t
}

// id returns the SiteID of a named site; unknown names panic — they are
// authoring errors in the structure or the experiment.
func (l *SiteList) id(name string) SiteID {
	id, ok := l.byName[name]
	if !ok {
		panic(fmt.Sprintf("%s: unknown memory-order site %q", l.name, name))
	}
	return id
}

// OrderTable holds the current memory order of each site of one
// SiteList. Data structures read it on every memory operation through
// Order, by SiteID; experiments weaken individual sites by name without
// touching the implementation.
type OrderTable struct {
	list *SiteList
	// cur[id] is site id's current order carrying id; cur[0] is unused.
	cur []MemOrder
}

// Order returns site id's current order, carrying the site: the value a
// structure passes to an atomic operation, which records the site.
func (t *OrderTable) Order(id SiteID) MemOrder { return t.cur[id] }

// Set overrides the order of a site.
func (t *OrderTable) Set(name string, o MemOrder) {
	id := t.list.id(name)
	plain, _ := o.Split()
	t.cur[id] = plain.tagged(id)
}

// Sites returns the site definitions, sorted by name for determinism.
func (t *OrderTable) Sites() []Site {
	out := append([]Site(nil), t.list.defs[1:]...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Site returns the definition of a named site.
func (t *OrderTable) Site(name string) (Site, bool) {
	id, ok := t.list.byName[name]
	return t.list.defs[id], ok
}

// Clone returns an independent copy with the same current orders.
func (t *OrderTable) Clone() *OrderTable {
	return &OrderTable{list: t.list, cur: append([]MemOrder(nil), t.cur...)}
}

// WeakenSite lowers a site's current order one step on the injection
// ladder; it reports false when the site is already at the weakest order.
func (t *OrderTable) WeakenSite(name string) bool {
	id := t.list.id(name)
	cur, _ := t.cur[id].Split()
	next, ok := Weaken(t.list.defs[id].Class, cur)
	if !ok {
		return false
	}
	t.cur[id] = next.tagged(id)
	return true
}

// Weakenings enumerates every single-site one-step weakening of the
// table's *default* orders: the paper's injection set ("we weakened one
// operation per each trial"). Every trial starts from the defaults,
// whatever the table's current orders are.
func (t *OrderTable) Weakenings() []*OrderTable {
	var out []*OrderTable
	for _, s := range t.Sites() {
		c := t.list.Table()
		if c.WeakenSite(s.Name) {
			out = append(out, c)
		}
	}
	return out
}

// Change is a site whose current order differs from its default.
type Change struct {
	Site
	// Order is the site's current (plain) order.
	Order MemOrder
}

// String renders the change as "name: default -> order".
func (c Change) String() string {
	return fmt.Sprintf("%s: %s -> %s", c.Name, c.Default, c.Order)
}

// Changes returns the sites whose current order differs from their
// default, sorted by name: one for each of Weakenings' tables.
func (t *OrderTable) Changes() []Change {
	var out []Change
	for _, s := range t.Sites() {
		if o, _ := t.cur[s.ID].Split(); o != s.Default {
			out = append(out, Change{Site: s, Order: o})
		}
	}
	return out
}
