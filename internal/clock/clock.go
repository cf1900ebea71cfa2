// Package clock abstracts time for the whole runtime. Every layer that
// sleeps, schedules a deadline, or timestamps an event does so
// through a Clock, so one system — simnet, streams, guardians — can run
// either on the wall clock (Real) or on a deterministic logical clock
// (Virtual) without code changes.
//
// Real is the default everywhere and delegates to package time; nothing
// observable changes for code that never asks for a different clock.
// Virtual keeps a logical "now" that moves only when told to (Advance,
// Step) or when auto-advance decides the process is quiescent and jumps
// to the next deadline — so simulated seconds elapse in microseconds of
// real time, and a fault schedule expressed in virtual time is exactly
// reproducible.
package clock

import "time"

// Clock is the time source threaded through the runtime.
type Clock interface {
	// Now returns the current time on this clock.
	Now() time.Time
	// Sleep blocks the caller for d of this clock's time.
	Sleep(d time.Duration)
	// After returns a channel that delivers the clock's time once d has
	// elapsed. Like time.After, the underlying timer cannot be stopped;
	// prefer NewTimer in loops.
	After(d time.Duration) <-chan time.Time
	// NewTimer returns a single-shot timer that fires after d.
	NewTimer(d time.Duration) Timer
}

// Timer is a resettable single-shot timer with time.Timer semantics: the
// channel has capacity 1, a fire is a non-blocking send, and Stop/Reset
// report whether the timer was still pending. As with time.Timer, a
// caller that Resets after a failed Stop must drain the channel first or
// tolerate one stale delivery.
type Timer interface {
	C() <-chan time.Time
	Stop() bool
	Reset(d time.Duration) bool
}

// Real is the wall clock: every method delegates to package time.
type Real struct{}

// Now returns time.Now().
func (Real) Now() time.Time { return time.Now() }

// Sleep calls time.Sleep.
func (Real) Sleep(d time.Duration) { time.Sleep(d) }

// After calls time.After.
func (Real) After(d time.Duration) <-chan time.Time { return time.After(d) }

// NewTimer wraps time.NewTimer.
func (Real) NewTimer(d time.Duration) Timer { return realTimer{time.NewTimer(d)} }

type realTimer struct{ t *time.Timer }

func (t realTimer) C() <-chan time.Time        { return t.t.C }
func (t realTimer) Stop() bool                 { return t.t.Stop() }
func (t realTimer) Reset(d time.Duration) bool { return t.t.Reset(d) }

// IsVirtual reports whether c is a *Virtual clock. Layers that spin on
// the wall clock for sub-millisecond precision (the simnet dispatcher)
// use it to skip the spin: a virtual timer is exact, so there is no OS
// timer floor to dodge.
func IsVirtual(c Clock) bool {
	_, ok := c.(*Virtual)
	return ok
}
