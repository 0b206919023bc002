package checker

import (
	"reflect"
	"testing"

	"repro/internal/memmodel"
)

// junkAction returns an action whose every field holds a non-zero value.
// It fills the fields through reflection, so a field added to
// memmodel.Action later is covered without editing this file.
func junkAction(t *testing.T) *memmodel.Action {
	t.Helper()
	act := &memmodel.Action{}
	v := reflect.ValueOf(act).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			f.SetInt(0x5a)
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			f.SetUint(0x5a)
		case reflect.String:
			f.SetString("junk")
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Pointer:
			f.Set(reflect.New(f.Type().Elem()))
		default:
			t.Fatalf("junkAction: no junk value for field %s of kind %s", v.Type().Field(i).Name, f.Kind())
		}
	}
	return act
}

// TestRecordOverwritesEveryField: record and recordFast write a recycled
// action's fields one by one instead of assigning a composite literal,
// so a field they forget would keep an earlier action's value. Each
// recorded action must equal the one a literal builds, from a pooled
// action holding junk in every field: the exhaustive mode's action
// arena, fast mode's free list (stores) and its scratch action (loads).
func TestRecordOverwritesEveryField(t *testing.T) {
	loc := &location{id: 3, name: "x"}
	for _, c := range []struct {
		name string
		fast bool
		kind memmodel.Kind
		loc  *location
	}{
		{"arena store", false, memmodel.KindAtomicStore, loc},
		{"arena fence", false, memmodel.KindFence, nil},
		{"free-list store", true, memmodel.KindAtomicStore, loc},
		{"scratch load", true, memmodel.KindAtomicLoad, loc},
		{"scratch fence", true, memmodel.KindFence, nil},
	} {
		t.Run(c.name, func(t *testing.T) {
			p := &execPool{}
			s := p.take(&Config{FastMode: c.fast}, nil, nil)
			junk := junkAction(t)
			switch {
			case !c.fast:
				p.acts = append(p.acts, junk)
			case c.kind == memmodel.KindAtomicStore:
				s.freeActs = append(s.freeActs, junk)
			default:
				s.scratchAct = *junk
				junk = &s.scratchAct
			}
			junkClock := junk.Clock
			th := &Thread{id: 2, tseq: 7, clock: memmodel.NewClockVector()}
			th.clock.Set(2, 7)

			act := s.record(th, c.kind, memmodel.Release, 4, c.loc, 9)
			if act != junk {
				t.Fatal("record did not reuse the pooled action")
			}
			want := memmodel.Action{
				ID: 0, Thread: 2, TSeq: 7, Kind: c.kind, Site: 4, Order: memmodel.Release,
				LocID: -1, Value: 9, SCIndex: -1,
			}
			if c.loc != nil {
				want.LocID, want.LocName = c.loc.id, c.loc.name
			}
			if !c.fast {
				// The one field record takes from elsewhere: a fresh
				// snapshot of the thread's clock.
				if act.Clock == junkClock || !act.Clock.DominatedBy(th.clock) || !th.clock.DominatedBy(act.Clock) {
					t.Fatalf("Clock is not a snapshot of the thread's clock: %v", act.Clock)
				}
				want.Clock = act.Clock
			}
			if !reflect.DeepEqual(*act, want) {
				t.Errorf("recorded action\n got %+v\nwant %+v", *act, want)
			}
		})
	}
}
