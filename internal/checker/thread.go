package checker

import (
	"fmt"

	"repro/internal/memmodel"
)

// threadState is the scheduling state of a simulated thread.
type threadState uint8

const (
	tsRunning  threadState = iota // holds the baton
	tsParked                      // waiting at a schedule point, always runnable
	tsYield                       // parked in a spin loop, runnable after a state change
	tsLock                        // parked waiting for a mutex
	tsJoin                        // parked waiting for a thread to finish
	tsFinished                    // fn returned (or the run was aborted)
)

// abortRun is the sentinel panic value used to unwind a simulated thread
// when the current execution is abandoned.
type abortRun struct{}

// Thread is the execution context handed to simulated-thread functions.
// All simulated memory operations take the Thread as their first argument;
// each such operation is a scheduling point where the checker may switch
// to another thread or branch the exploration.
type Thread struct {
	sys  *System
	id   int
	name string

	// clock is the thread's current happens-before clock (always
	// includes all of the thread's own actions).
	clock *memmodel.ClockVector
	// clockEpoch counts the external merges that changed clock (acquire
	// reads, acquire fences, joins, lock acquisitions). Raising the
	// thread's own entry does not bump it: the visibility caches keyed on
	// the epoch only depend on the thread's view of *other* threads'
	// actions (its own stores move the global storeEpoch, its own loads
	// are folded into the cache in place).
	clockEpoch uint64
	// tseq is the per-thread action counter.
	tseq uint32

	// relFence is the clock at the last release fence, nil if none.
	relFence *memmodel.ClockVector
	// acqPending accumulates the release clocks of stores read by
	// relaxed loads; an acquire fence merges it into clock.
	acqPending *memmodel.ClockVector
	// lastSCFence is the SC index of the thread's last seq_cst fence,
	// or -1.
	lastSCFence int

	// lastAction is the most recent action the thread performed
	// (used by the spec layer's ordering-point annotations).
	lastAction *memmodel.Action

	// yieldEpoch is the store epoch observed at the last Yield.
	yieldEpoch uint64
	// lastResortEpoch is the store epoch at which the scheduler last
	// woke this thread as a last resort (^uint64(0) = never).
	lastResortEpoch uint64

	state       threadState
	waitMutex   *Mutex
	waitThread  *Thread
	finishClock *memmodel.ClockVector
	// skipNextPark elides the park of the next visible operation; set
	// after the start-of-thread grant so that starting a thread and its
	// first operation consume a single scheduling step (a sound
	// reduction: thread start has no visible effect).
	skipNextPark bool
	// pendSig describes the visible operation the thread is parked on,
	// for the sleep-set dependency check.
	pendSig pendSig
	// recentReads records the loads since the thread last woke from a
	// yield. When exploration gets stuck, a yielded thread whose recent
	// reads have unconsumed newer stores marks the execution as unfair
	// (pruned); otherwise the stuck state is a genuine livelock.
	recentReads []readRef

	// Reduction state (reduce.go). canon is the schedule-independent
	// canonical thread id (0 = not yet assigned); spawnKey the spawn-tree
	// derived id computed at Spawn; spawnSeq counts this thread's spawns
	// and allocSeq its location allocations (both feed canonical identity
	// of children/locations); classIdx is the symmetry class (-1 = none);
	// fp is the thread's operation-stream hash. The spin* fields drive
	// the spinloop/await bound: spinPure tracks whether the current
	// Yield-delimited iteration has performed any side effect, spinMuts
	// the spec-monitor mutation count at its start, spinIterPure the
	// frozen verdict for the iteration that just yielded, and
	// spinLoc/spinRF the armed single-location re-read bound. fpHead is
	// the cached head of the thread's fingerprint entry (threadEntry),
	// valid while fpHeadSeq == tseq+1 (0 = never computed).
	canon        uint64
	spawnKey     uint64
	spawnSeq     uint32
	allocSeq     uint32
	classIdx     int
	fp           fpPair
	fpHead       fpPair
	fpHeadSeq    uint32
	spinPure     bool
	spinIterPure bool
	spinMuts     uint64
	spinLoc      *location
	spinRF       int

	fn func(*Thread)
	// resume carries the baton to the thread's goroutine (see loop),
	// which lives until resume is closed.
	resume chan struct{}
}

// newThreadStruct builds a fresh Thread and starts its goroutine, which
// acks on s.schedDone once resume is closed. clock ownership passes to
// the thread.
func newThreadStruct(s *System, id int, name string, fn func(*Thread), clock *memmodel.ClockVector) *Thread {
	t := &Thread{
		sys:             s,
		id:              id,
		name:            name,
		clock:           clock,
		lastSCFence:     -1,
		lastResortEpoch: ^uint64(0),
		acqPending:      memmodel.NewClockVector(),
		classIdx:        -1,
		fn:              fn,
		resume:          make(chan struct{}),
	}
	go t.loop(s.schedDone)
	return t
}

// reset returns a pooled Thread to its just-constructed state, keeping
// the id, the resume channel and its goroutine (idle between executions:
// after its last baton send it touches nothing but resume), and every
// clock's storage. src seeds the clock (nil = empty).
func (t *Thread) reset(s *System, name string, fn func(*Thread), src *memmodel.ClockVector) {
	t.sys = s
	t.name = name
	if src == nil {
		t.clock.Reset()
	} else {
		t.clock.CopyFrom(src)
	}
	t.clockEpoch = 0
	t.tseq = 0
	t.relFence = nil
	t.acqPending.Reset()
	t.lastSCFence = -1
	t.lastAction = nil
	t.yieldEpoch = 0
	t.lastResortEpoch = ^uint64(0)
	t.state = tsRunning
	t.waitMutex = nil
	t.waitThread = nil
	t.finishClock = nil
	t.skipNextPark = false
	t.pendSig = pendSig{}
	t.recentReads = t.recentReads[:0]
	t.canon = 0
	t.spawnKey = 0
	t.spawnSeq = 0
	t.allocSeq = 0
	t.classIdx = -1
	t.fp = fpPair{}
	t.fpHeadSeq = 0
	t.spinPure = false
	t.spinIterPure = false
	t.spinMuts = 0
	t.spinLoc = nil
	t.spinRF = 0
	t.fn = fn
}

// ID returns the thread id (0 for the root thread).
func (t *Thread) ID() int { return t.id }

// Name returns the thread's debug name.
func (t *Thread) Name() string { return t.name }

// Sys returns the system the thread runs under; the spec layer uses it to
// reach shared per-execution state.
func (t *Thread) Sys() *System { return t.sys }

// LastAction returns the most recent action the thread performed, or nil.
// The spec layer uses it to resolve ordering-point annotations ("the
// atomic operation that immediately precedes the annotation").
func (t *Thread) LastAction() *memmodel.Action { return t.lastAction }

// Clock returns a copy of the thread's current happens-before clock.
func (t *Thread) Clock() *memmodel.ClockVector { return t.clock.Clone() }

// park is a scheduling point: the caller must have set t.state (and any
// wait fields) first. The scheduling decision runs inline in the calling
// goroutine — the baton passes directly from thread to thread without a
// central scheduler goroutine in between, so re-picking the current
// thread costs no context switch at all and switching threads costs one
// channel handoff instead of two.
func (t *Thread) park() {
	s := t.sys
	if s.draining {
		// A deferred operation of a thread reap poisoned: the execution is
		// over and reap holds the baton, so keep unwinding.
		panic(abortRun{})
	}
	next := s.nextThread()
	if next == t {
		t.state = tsRunning
		return
	}
	if next == nil {
		s.schedDone <- struct{}{}
	} else {
		next.resume <- struct{}{}
	}
	<-t.resume
	if s.aborted {
		panic(abortRun{})
	}
	t.state = tsRunning
}

// schedulePoint parks the thread as plainly runnable, announcing the
// operation it is about to perform. Every visible operation calls it
// before executing.
func (t *Thread) schedulePoint(sig pendSig) {
	t.pendSig = sig
	if t.skipNextPark {
		t.skipNextPark = false
		return
	}
	t.state = tsParked
	t.park()
}

// Spawn creates and starts a child thread running fn. The child inherits
// the parent's happens-before clock (thread creation synchronizes).
// Spawn returns immediately; use Join to wait for the child.
//
// Spawn is not a scheduling point: the child cannot run before the
// spawner's next park anyway, so parking here would only inflate the
// state space.
func (t *Thread) Spawn(name string, fn func(*Thread)) *Thread {
	t.sys.stepCount++
	t.tseq++
	t.clock.Set(t.id, t.tseq)
	t.sys.record(t, memmodel.KindThreadCreate, memmodel.Relaxed, 0, nil, 0)
	child := t.sys.newThread(name, fn, t.clock)
	if t.sys.cfg.Reduce.Symmetry {
		t.sys.registerSymmetry(child, fn)
	}
	if t.sys.cfg.rfSeen != nil {
		t.spawnSeq++
		child.spawnKey = spawnCanon(t.canon, t.spawnSeq)
		t.sys.fpThreadOp(t, fpOpSpawn, nil, child.spawnKey, 0)
	}
	t.spinClear()
	return child
}

// Join blocks until child has finished and merges its final clock
// (thread join synchronizes).
func (t *Thread) Join(child *Thread) {
	if t.skipNextPark && child.state == tsFinished {
		t.skipNextPark = false
	} else {
		t.skipNextPark = false
		t.pendSig = pendSig{class: sigNone, loc: -1}
		t.state = tsJoin
		t.waitThread = child
		t.park()
		t.waitThread = nil
	}
	t.sys.stepCount++
	t.tseq++
	t.clock.Set(t.id, t.tseq)
	if t.clock.Merge(child.finishClock) {
		t.clockEpoch++
	}
	t.sys.record(t, memmodel.KindThreadJoin, memmodel.Relaxed, 0, nil, 0)
	t.sys.fpThreadOp(t, fpOpJoin, nil, t.sys.canonOf(child.id), 0)
	t.spinClear()
}

// Yield parks the thread until some other thread changes shared state
// (performs a store or an unlock). Spin loops must call it after an
// unsuccessful iteration; the checker uses it both for fairness and to
// keep the execution space finite (CDSChecker relies on the same idiom).
func (t *Thread) Yield() {
	t.sys.stepCount++
	t.tseq++
	t.clock.Set(t.id, t.tseq)
	t.sys.record(t, memmodel.KindYield, memmodel.Relaxed, 0, nil, 0)
	t.sys.fpThreadOp(t, fpOpYield, nil, 0, 0)
	t.yieldEpoch = t.sys.storeEpoch
	// Freeze the completed iteration's purity verdict and arm the
	// re-read bound while recentReads still describes it (reduce.go).
	t.spinPark()
	t.pendSig = pendSig{class: sigYield, loc: -1}
	t.state = tsYield
	t.park()
	// A new spin iteration begins: forget the reads that led here, and
	// fold the wake-up into the next operation's scheduling step (the
	// wake-up itself performs nothing visible).
	t.recentReads = t.recentReads[:0]
	t.skipNextPark = true
	t.spinWake()
}

// Assert reports a failure of kind FailAssertion when cond is false.
// The current execution is abandoned.
func (t *Thread) Assert(cond bool, format string, args ...any) {
	if !cond {
		t.sys.failf(FailAssertion, format, args...)
	}
}

// NewAtomic creates a fresh atomic location with no initial value;
// loading it before any store is an uninitialized-load error (a
// CDSChecker built-in check).
func (t *Thread) NewAtomic(name string) *Atomic {
	return t.sys.newAtomic(name)
}

// NewAtomicInit creates an atomic location and initializes it with a
// relaxed store by the calling thread, the moral equivalent of C++'s
// atomic_init in a constructor: visibility to other threads is inherited
// from the happens-before edges the program establishes (e.g. Spawn).
func (t *Thread) NewAtomicInit(name string, v memmodel.Value) *Atomic {
	a := t.sys.newAtomic(name)
	a.Store(t, memmodel.Relaxed, v)
	return a
}

// NewPlain creates a fresh non-atomic location (race-detected).
func (t *Thread) NewPlain(name string) *Plain {
	return t.sys.newPlain(name)
}

// NewPlainInit creates a non-atomic location initialized by the calling
// thread.
func (t *Thread) NewPlainInit(name string, v memmodel.Value) *Plain {
	p := t.sys.newPlain(name)
	p.Store(t, v)
	return p
}

// NewMutex creates a mutex.
func (t *Thread) NewMutex(name string) *Mutex {
	t.sys.mutexCount++
	m := &Mutex{sys: t.sys, id: t.sys.mutexCount, name: name, owner: -1}
	if t.sys.cfg.rfSeen != nil {
		// Canonical identity, like newLocation's: (creator canonical id,
		// per-creator allocation index).
		t.allocSeq++
		m.fpObj = fpObj{tag: fpTagMutex, canonA: t.sys.canonOf(t.id), canonSeq: t.allocSeq}
		t.sys.fpTouch(&m.fpObj)
	}
	t.sys.mutexes = append(t.sys.mutexes, m)
	return m
}

// loop is the goroutine of a Thread: each grant on resume between
// executions runs one execution's body, until execPool.close closes
// resume; then it acks on exited.
func (t *Thread) loop(exited chan<- struct{}) {
	for range t.resume {
		t.run()
	}
	exited <- struct{}{}
}

// run is one execution's body of the thread, entered on the grant that
// starts it (newThread leaves the thread tsParked at its start point).
func (t *Thread) run() {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(abortRun); !ok {
				// A real panic in user code: surface it on the
				// scheduler side rather than crashing the process
				// with a half-useful goroutine dump.
				t.sys.failure = &Failure{
					Kind:     FailAssertion,
					Msg:      fmt.Sprintf("panic in thread %d (%s): %v", t.id, t.name, r),
					ActionID: t.sys.lastActionID(),
				}
				t.sys.aborted = true
			}
		}
		// The finish clock lives one execution, so even fast mode takes
		// it from the pool's arena rather than snap's free list.
		t.finishClock = t.sys.pool.getClock(t.clock)
		t.state = tsFinished
		// A finishing (or unwinding) thread holds the baton: pass it on
		// exactly as park would. While reap drains, nextThread is nil and
		// the schedDone send is the ack reap waits for. After the send
		// this goroutine touches nothing of t: the next execution may
		// already be resetting it.
		s := t.sys
		if next := s.nextThread(); next != nil {
			next.resume <- struct{}{}
		} else {
			s.schedDone <- struct{}{}
		}
	}()

	if t.sys.aborted {
		panic(abortRun{})
	}
	t.state = tsRunning

	t.tseq++
	t.clock.Set(t.id, t.tseq)
	t.sys.record(t, memmodel.KindThreadStart, memmodel.Relaxed, 0, nil, 0)

	// The start grant also covers the thread's first visible operation.
	t.skipNextPark = true
	t.fn(t)
	t.skipNextPark = false

	t.tseq++
	t.clock.Set(t.id, t.tseq)
	t.sys.record(t, memmodel.KindThreadFinish, memmodel.Relaxed, 0, nil, 0)
}
