package core

// State is the internal state of the equivalent sequential data structure
// (the paper's @DeclareState). Specs define their own concrete type and
// assert it back in their method functions.
type State any

// MethodSpec carries the paper's method annotations for one API method.
// All functions may be nil, with the paper's defaults: an omitted
// SideEffect leaves the sequential state unchanged; omitted conditions
// hold trivially.
type MethodSpec struct {
	// SideEffect applies the call to the equivalent sequential data
	// structure (@SideEffect). It typically also computes c.SRet.
	SideEffect func(st State, c *Call)
	// Pre is checked before the call executes in a sequential history
	// (@PreCondition).
	Pre func(st State, c *Call) bool
	// Post is checked after the call executes in a sequential history
	// (@PostCondition).
	Post func(st State, c *Call) bool

	// NeedsJustify reports whether the call exhibited a non-deterministic
	// behavior that must be justified (Definition 4). It depends only on
	// the call's concrete values (e.g. C_RET == -1).
	NeedsJustify func(c *Call) bool
	// JustifyPre is checked before the call executes in a justifying
	// subhistory (@JustifyingPrecondition).
	JustifyPre func(st State, c *Call, concurrent []*Call) bool
	// JustifyPost is checked after the call executes in a justifying
	// subhistory (@JustifyingPostcondition). The behavior is justified
	// if at least one justifying subhistory satisfies both conditions.
	JustifyPost func(st State, c *Call, concurrent []*Call) bool
	// JustifyConcurrent justifies the behavior directly from the set of
	// concurrent method calls (Definition 4, case 2), independent of any
	// subhistory. It is tried when no subhistory justifies the call.
	JustifyConcurrent func(c *Call, concurrent []*Call) bool
}

// AdmitRule is one admissibility rule (@Admit: M1 <-> M2 (cond)): when
// MustOrder returns true for an *unordered* pair of calls, the execution
// is inadmissible (Definition 1).
type AdmitRule struct {
	// M1 and M2 name the two methods the rule relates (they may be
	// equal).
	M1, M2 string
	// MustOrder receives a call to M1 and a call to M2 that the ordering
	// relation ~r~ leaves unordered, and reports whether the data
	// structure's design requires them to be ordered.
	MustOrder func(m1, m2 *Call) bool
}

// Spec is a CDSSpec specification: the equivalent sequential data
// structure, per-method annotations, and admissibility rules.
type Spec struct {
	// Name identifies the data structure in reports.
	Name string
	// NewState builds a fresh equivalent sequential data structure
	// (@DeclareState/@Initial).
	NewState func() State
	// Methods maps API method names to their annotations.
	Methods map[string]*MethodSpec
	// Admissibility holds the @Admit rules.
	Admissibility []AdmitRule

	// MaxHistories caps the number of sequential histories checked per
	// execution, mirroring the checker's "randomly generate and check a
	// user-customized number" option. 0 means the safety default of
	// 20000; a negative value means unlimited.
	MaxHistories int
	// MaxSubhistories caps the justifying subhistories tried per call.
	// 0 means the safety default of 20000; negative means unlimited.
	MaxSubhistories int
	// SampleHistories, when positive, replaces exhaustive sequential-
	// history enumeration with that many randomly generated histories
	// per execution — the paper's "randomly generating and checking a
	// user-customized number of sequential histories" option for
	// executions whose topological-sort count explodes.
	SampleHistories int
	// SampleSeed seeds the history sampler (deterministic by default).
	SampleSeed int64
	// disableCheckCache turns off the per-shard memoization of spec-check
	// results in Explore (see checkCache), re-running the check for every
	// feasible execution. It is the reference the cache-transparency
	// tests and BenchmarkSpecCacheOff compare against; results must be
	// identical either way.
	disableCheckCache bool
}

func (s *Spec) historyCap() int {
	switch {
	case s.MaxHistories == 0:
		return 20000
	case s.MaxHistories < 0:
		return int(^uint(0) >> 1)
	default:
		return s.MaxHistories
	}
}

func (s *Spec) subhistoryCap() int {
	switch {
	case s.MaxSubhistories == 0:
		return 20000
	case s.MaxSubhistories < 0:
		return int(^uint(0) >> 1)
	default:
		return s.MaxSubhistories
	}
}
