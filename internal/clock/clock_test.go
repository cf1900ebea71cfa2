package clock

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestRealDelegates(t *testing.T) {
	var c Clock = Real{}
	before := time.Now()
	if c.Now().Before(before) {
		t.Fatal("Real.Now went backwards")
	}
	c.Sleep(time.Millisecond)
	timer := c.NewTimer(time.Millisecond)
	select {
	case <-timer.C():
	case <-time.After(5 * time.Second):
		t.Fatal("real timer never fired")
	}
	if timer.Stop() {
		t.Fatal("Stop after fire should report false")
	}
	select {
	case <-c.After(time.Millisecond):
	case <-time.After(5 * time.Second):
		t.Fatal("real After never fired")
	}
	if IsVirtual(c) {
		t.Fatal("Real is not virtual")
	}
}

func TestVirtualNowFrozenUntilAdvanced(t *testing.T) {
	v := NewVirtual()
	if !v.Now().Equal(Epoch) {
		t.Fatalf("fresh virtual clock reads %v, want %v", v.Now(), Epoch)
	}
	time.Sleep(2 * time.Millisecond) // real time passing changes nothing
	if !v.Now().Equal(Epoch) {
		t.Fatal("virtual time moved without Advance")
	}
	v.Advance(3 * time.Second)
	if got := v.Now().Sub(Epoch); got != 3*time.Second {
		t.Fatalf("advanced %v, want 3s", got)
	}
	if !IsVirtual(v) {
		t.Fatal("IsVirtual(Virtual) = false")
	}
}

func TestVirtualTimerFiresAtDeadline(t *testing.T) {
	v := NewVirtual()
	tm := v.NewTimer(10 * time.Millisecond)
	v.Advance(9 * time.Millisecond)
	select {
	case <-tm.C():
		t.Fatal("timer fired early")
	default:
	}
	v.Advance(time.Millisecond)
	select {
	case at := <-tm.C():
		if want := Epoch.Add(10 * time.Millisecond); !at.Equal(want) {
			t.Fatalf("fired at %v, want %v", at, want)
		}
	default:
		t.Fatal("timer did not fire at its deadline")
	}
	if tm.Stop() {
		t.Fatal("Stop after fire should report false")
	}
}

func TestVirtualTimerStopAndReset(t *testing.T) {
	v := NewVirtual()
	tm := v.NewTimer(time.Millisecond)
	if !tm.Stop() {
		t.Fatal("Stop on pending timer should report true")
	}
	v.Advance(time.Hour)
	select {
	case <-tm.C():
		t.Fatal("stopped timer fired")
	default:
	}
	if tm.Reset(time.Millisecond) {
		t.Fatal("Reset on stopped timer should report false")
	}
	v.Advance(time.Millisecond)
	select {
	case <-tm.C():
	default:
		t.Fatal("reset timer did not fire")
	}
	// Non-positive durations fire immediately, like time.Timer.
	im := v.NewTimer(0)
	select {
	case <-im.C():
	default:
		t.Fatal("zero-duration timer should fire immediately")
	}
}

func TestVirtualSleepAndAfter(t *testing.T) {
	v := NewVirtual()
	done := make(chan struct{})
	go func() {
		v.Sleep(50 * time.Millisecond)
		close(done)
	}()
	// Wait until the sleeper is registered, then release it.
	for v.Waiters() == 0 {
		runtime.Gosched()
	}
	v.Advance(50 * time.Millisecond)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("virtual Sleep never returned")
	}

	ch := v.After(time.Second)
	v.Advance(time.Second)
	select {
	case <-ch:
	default:
		t.Fatal("After channel did not deliver")
	}
	v.Sleep(0) // non-positive: yields without registering
}

func TestStepJumpsToNextDeadlineInOrder(t *testing.T) {
	v := NewVirtual()
	// Two waiters at the same instant and one later: the first Step fires
	// exactly the co-deadlined pair, the second fires the straggler.
	t1, t2, t3 := v.NewTimer(5*time.Millisecond), v.NewTimer(5*time.Millisecond), v.NewTimer(7*time.Millisecond)

	if at, ok := v.NextDeadline(); !ok || !at.Equal(Epoch.Add(5*time.Millisecond)) {
		t.Fatalf("NextDeadline = %v, %v", at, ok)
	}
	if !v.Step() {
		t.Fatal("Step with waiters pending returned false")
	}
	if got := v.Now().Sub(Epoch); got != 5*time.Millisecond {
		t.Fatalf("Step advanced to %v", got)
	}
	fired := func(tm Timer) bool {
		select {
		case <-tm.C():
			return true
		default:
			return false
		}
	}
	if !fired(t1) || !fired(t2) {
		t.Fatal("co-deadlined timers did not both fire on the first Step")
	}
	if fired(t3) {
		t.Fatal("later timer fired early")
	}
	if !v.Step() {
		t.Fatal("second Step returned false")
	}
	if got := v.Now().Sub(Epoch); got != 7*time.Millisecond {
		t.Fatalf("second Step advanced to %v", got)
	}
	if !fired(t3) {
		t.Fatal("later timer did not fire on the second Step")
	}
	if v.Step() {
		t.Fatal("Step with no waiters should report false")
	}
}

func TestAutoAdvanceRunsSleepsWithoutDriver(t *testing.T) {
	v := NewVirtual()
	v.SetAutoAdvance(true)
	defer v.SetAutoAdvance(false)
	start := time.Now()
	done := make(chan struct{})
	go func() {
		// A whole simulated minute, step by step.
		for i := 0; i < 60; i++ {
			v.Sleep(time.Second)
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("auto-advance never drove the sleeps")
	}
	if got := v.Now().Sub(Epoch); got < time.Minute {
		t.Fatalf("virtual time advanced only %v", got)
	}
	if real := time.Since(start); real > 10*time.Second {
		t.Fatalf("60 virtual seconds took %v of real time", real)
	}
	v.SetAutoAdvance(true)  // idempotent
	v.SetAutoAdvance(false) // stops the loop
	v.SetAutoAdvance(false) // idempotent
	v.SetAutoAdvance(true)  // restartable
}

// TestVirtualGoroutineStabilityUnderChurn is the regression test for the
// clock's O(1) goroutine guarantee: timers, sleeps, and auto-advance
// must not leak goroutines no matter how many clock objects churn
// through. Virtual timers are heap entries, not goroutines, so thousands
// of them should leave the goroutine count where it started.
func TestVirtualGoroutineStabilityUnderChurn(t *testing.T) {
	v := NewVirtual()
	v.SetAutoAdvance(true)
	before := runtime.NumGoroutine()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				tm := v.NewTimer(time.Duration(1+i%7) * time.Millisecond)
				if i%2 == 0 {
					tm.Stop()
				}
				tm.Reset(time.Duration(1+i%5) * time.Millisecond)
				v.Sleep(time.Duration(1+i%4) * time.Millisecond)
			}
		}(g)
	}
	wg.Wait()
	v.SetAutoAdvance(false)
	// Drain timers that were reset and abandoned after the loop stopped.
	for v.Step() {
	}

	// Let fired-timer bookkeeping quiesce.
	for i := 0; i < 100; i++ {
		runtime.Gosched()
	}
	runtime.GC()
	after := runtime.NumGoroutine()
	// Allow slack for runtime/test goroutines, but 4000 timers and 4000
	// sleeps must not have pinned goroutines of their own.
	if after > before+4 {
		t.Fatalf("goroutines grew from %d to %d under timer churn", before, after)
	}
	if v.Waiters() != 0 {
		// Fired and stopped waiters must not linger as pending.
		t.Fatalf("%d waiters left pending after churn", v.Waiters())
	}
}

func TestAdvanceToNeverMovesBackwards(t *testing.T) {
	v := NewVirtual()
	v.Advance(time.Second)
	v.AdvanceTo(Epoch) // in the past: no-op
	if got := v.Now().Sub(Epoch); got != time.Second {
		t.Fatalf("time moved backwards to %v", got)
	}
	v.Advance(-time.Second) // negative: no-op
	if got := v.Now().Sub(Epoch); got != time.Second {
		t.Fatalf("negative Advance moved time to %v", got)
	}
}
