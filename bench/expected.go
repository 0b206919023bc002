package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/checker"
	"repro/internal/fuzz"
)

// expectedJSON holds the reference verdicts. Regenerate it with
// `go test -run TestUpdateExpected -update` in this directory.
//
//go:embed testdata/expected.json
var expectedJSON []byte

// expected is the verdict reference every check is verified against.
type expected struct {
	// Fig7 pins each Figure 7 primary unit test's exhaustive counts.
	Fig7 map[string]fig7Want `json:"fig7"`
	// KnownBugs pins the failure kind and Figure 8 channel that detects
	// each §6.4.1 known bug.
	KnownBugs map[string]bugWant `json:"known_bugs"`
	// ExploreReduced pins the rf classes of each reduced exploration.
	// Executions are not pinned: under parallel rf pruning the split
	// between executions and prunes depends on which worker registers a
	// state first (see checker.Stats).
	ExploreReduced struct {
		RFClasses map[string]int `json:"rf_classes"`
	} `json:"explore_reduced"`
	// FastScreen names the rows that must detect their bug; every other
	// fast row must finish its run budget with no failure and every run
	// feasible (the rule of harness.FastRow.Pass).
	FastScreen struct {
		Detect []string `json:"detect"`
	} `json:"fast_screen"`
	// Fuzz pins, per seed and target, the verdict of each program in
	// generator order, as space-separated tokens: "e<n>" exhausted after
	// n executions, "c" stopped by the budget, "f<n>:<bucket>" failed at
	// execution n.
	Fuzz struct {
		Budget int                          `json:"budget"`
		Seeds  map[string]map[string]string `json:"seeds"`
	} `json:"fuzz"`
}

func loadExpected() (*expected, error) {
	var e expected
	if err := json.Unmarshal(expectedJSON, &e); err != nil {
		return nil, fmt.Errorf("decoding testdata/expected.json: %w", err)
	}
	return &e, nil
}

// fuzzPins returns the pinned tokens of seed by target, or nil when the
// seed has no entry.
func (e *expected) fuzzPins(seed int64) (map[string][]string, error) {
	bySeed, ok := e.Fuzz.Seeds[strconv.FormatInt(seed, 10)]
	if !ok {
		return nil, nil
	}
	if e.Fuzz.Budget != fuzzBudget {
		return nil, fmt.Errorf("expected.json pins fuzz verdicts at budget %d, the workload runs %d: regenerate it", e.Fuzz.Budget, fuzzBudget)
	}
	pins := map[string][]string{}
	for target, toks := range bySeed {
		pins[target] = strings.Fields(toks)
	}
	return pins, nil
}

type fig7Want struct {
	Executions int `json:"executions"`
	Feasible   int `json:"feasible"`
	Pruned     int `json:"pruned"`
	Failures   int `json:"failures"`
}

func (w fig7Want) check(o outcome) error {
	r := o.res
	got := fig7Want{r.Executions, r.Feasible, r.Pruned, r.FailureCount}
	if got != w || !r.Exhausted {
		return fmt.Errorf("got %+v exhausted=%v, want %+v exhausted", got, r.Exhausted, w)
	}
	return nil
}

type bugWant struct {
	Kind    string `json:"kind"`
	Channel string `json:"channel"`
}

func (w bugWant) check(o outcome) error {
	f := o.res.FirstFailure()
	if f == nil {
		return fmt.Errorf("not detected in %d executions, want %s via %s", o.res.Executions, w.Kind, w.Channel)
	}
	if got := (bugWant{f.Kind.String(), f.Kind.Channel()}); got != w {
		return fmt.Errorf("detected %s via %s, want %s via %s", got.Kind, got.Channel, w.Kind, w.Channel)
	}
	return nil
}

func checkReduced(o outcome, classes int) error {
	r := o.res
	switch {
	case r.FailureCount > 0:
		return fmt.Errorf("unexpected failure: %s: %s", r.FirstFailure().Kind, r.FirstFailure().Msg)
	case !r.Exhausted:
		return fmt.Errorf("stopped after %d executions without exhausting", r.Executions)
	case r.Stats.RFClasses != classes:
		return fmt.Errorf("%d rf classes, want %d", r.Stats.RFClasses, classes)
	}
	return nil
}

// checkClean is the rule for a fast row on correct orders.
func checkClean(o outcome, runs int) error {
	r := o.res
	switch {
	case r.FailureCount > 0:
		return fmt.Errorf("false positive: %s: %s", r.FirstFailure().Kind, r.FirstFailure().Msg)
	case r.Executions != runs || r.Feasible != runs:
		return fmt.Errorf("%d of %d runs feasible, want all %d", r.Feasible, r.Executions, runs)
	}
	return nil
}

// checkDetected is the rule for a fast row on a seeded bug.
func checkDetected(o outcome) error {
	if o.res.FailureCount == 0 {
		return fmt.Errorf("seeded bug not detected in %d runs", o.res.Executions)
	}
	return nil
}

// fuzzToken renders a fuzz verdict as its expected.json token after
// checking the invariants every verdict must satisfy, pinned or not.
func fuzzToken(o outcome) (string, error) {
	var (
		execs     = o.executions()
		exhausted bool
		kind      checker.FailureKind
		bucket    string
		failed    bool
	)
	if v := o.verdict; v != nil {
		exhausted = v.Exhausted
		if v.Failure != nil {
			failed, kind, bucket = true, v.Failure.Kind, v.Bucket
		}
	} else {
		exhausted = o.res.Exhausted
		if f := o.res.FirstFailure(); f != nil {
			failed, kind, bucket = true, f.Kind, fuzz.TriageBucket(f.Kind)
		}
	}
	switch {
	case execs < 1 || execs > fuzzBudget:
		return "", fmt.Errorf("%d executions outside 1..%d", execs, fuzzBudget)
	case failed:
		if bucket == "" || bucket != fuzz.TriageBucket(kind) || kind == checker.FailTooManySteps {
			return "", fmt.Errorf("failure %s filed under bucket %q", kind, bucket)
		}
		if exhausted {
			return "", fmt.Errorf("failure %s on an exhausted exploration", kind)
		}
		return fmt.Sprintf("f%d:%s", execs, bucket), nil
	case exhausted:
		return fmt.Sprintf("e%d", execs), nil
	case execs != fuzzBudget:
		return "", fmt.Errorf("stopped at %d executions with no failure, below the budget of %d", execs, fuzzBudget)
	}
	return "c", nil
}
