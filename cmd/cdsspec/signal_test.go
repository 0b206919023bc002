package main

import (
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestInterruptFires: a signal arriving mid-run closes the interrupt
// channel and stops signal delivery.
func TestInterruptFires(t *testing.T) {
	sig := make(chan os.Signal, 1)
	var mu sync.Mutex
	stopped := 0
	intr, cleanup := interruptFrom(sig, func() { mu.Lock(); stopped++; mu.Unlock() })
	sig <- os.Interrupt
	select {
	case <-intr:
	case <-time.After(5 * time.Second):
		t.Fatal("interrupt channel never closed after a signal")
	}
	mu.Lock()
	if stopped == 0 {
		t.Error("stop was not called before the interrupt fired")
	}
	mu.Unlock()
	cleanup()
}

// TestInterruptAfterCompletion is the regression test for the teardown
// bug: the old cleanup (signal.Stop + close(sig)) left a signal
// delivered around completion time sitting in sig's buffer, where the
// receiver goroutine could still drain it after the run finished and
// close the interrupt channel retroactively — making a completed explore
// run checkpoint as interrupted. Once cleanup returns, a buffered or
// late signal must never fire the interrupt.
func TestInterruptAfterCompletion(t *testing.T) {
	sig := make(chan os.Signal, 1)
	intr, cleanup := interruptFrom(sig, func() {})
	cleanup()           // the run completed normally
	sig <- os.Interrupt // a signal lands just after completion
	select {
	case <-intr:
		t.Fatal("interrupt fired after the run completed")
	case <-time.After(50 * time.Millisecond):
	}
}

// TestInterruptRaceWithCompletion pins down the exact interleaving the
// old code lost: the receiver has already taken the signal out of sig
// (it is inside stop, about to mark the run interrupted) when the run
// completes. Completion wins — the interrupt channel must stay open.
func TestInterruptRaceWithCompletion(t *testing.T) {
	sig := make(chan os.Signal, 1)
	inStop := make(chan struct{})
	release := make(chan struct{})
	// The receiver's stop call (always the first — the test waits on
	// inStop before triggering cleanup) parks until the test releases
	// it; cleanup's own stop call must return immediately, so this is a
	// call counter rather than a sync.Once (Once.Do would block the
	// second caller while the first is parked inside it).
	var mu sync.Mutex
	calls := 0
	stop := func() {
		mu.Lock()
		calls++
		first := calls == 1
		mu.Unlock()
		if first {
			close(inStop)
			<-release
		}
	}
	intr, cleanup := interruptFrom(sig, stop)
	sig <- os.Interrupt
	<-inStop  // the receiver holds the signal and is parked in stop
	cleanup() // the run completes while the receiver is mid-teardown
	close(release)
	select {
	case <-intr:
		t.Fatal("interrupt fired even though the run completed first")
	case <-time.After(50 * time.Millisecond):
	}
}

// TestFastrunTimeFlag: -time arms the interrupt a SIGINT would close,
// so a run budget that could never finish stops within a few seconds.
func TestFastrunTimeFlag(t *testing.T) {
	var out, errOut strings.Builder
	start := time.Now()
	code := run([]string{"fastrun", "-time", "50ms", "-max", "1000000000", "M&S Queue"}, &out, &errOut)
	if took := time.Since(start); took > 10*time.Second {
		t.Errorf("fastrun -time 50ms ran for %v", took)
	}
	if code != 0 {
		t.Fatalf("fastrun exited %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "stopped") {
		t.Errorf("fastrun cut by -time should report stopped:\n%s", out.String())
	}
}
