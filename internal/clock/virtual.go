package clock

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"promises/internal/pqueue"
)

// Epoch is where virtual time starts: an arbitrary fixed instant (the
// paper's publication month), so virtual timestamps are recognizable in
// traces and identical across runs.
var Epoch = time.Date(1988, time.June, 22, 0, 0, 0, 0, time.UTC)

// waiter is one scheduled wake-up in the virtual clock's heap. fire runs
// with the clock's lock held and must not block — it is a close or a
// non-blocking send on a buffered channel. Cancellation is lazy: Stop
// clears active and the entry is skipped when it surfaces in the heap.
type waiter struct {
	at     time.Time
	seq    uint64 // registration order; FIFO tiebreak among equal deadlines
	active bool
	fire   func(at time.Time)
}

// Virtual is a deterministic logical clock. Time stands still until it is
// advanced: Advance/AdvanceTo move it explicitly, Step jumps to the next
// waiter deadline, and auto-advance (SetAutoAdvance) does the jumping on
// its own once the process looks quiescent. Waiters — sleeps and timers —
// live in a min-heap reusing pqueue.Heap, keyed by (deadline,
// registration order), so equal deadlines fire in FIFO order, the same
// every run.
//
// All methods are safe for concurrent use.
type Virtual struct {
	mu      sync.Mutex
	now     time.Time
	heap    *pqueue.Heap[*waiter]
	seq     uint64
	pending int // active waiters in the heap

	// activity counts every clock operation (Now, Sleep, timer arm, fire,
	// Stop). Settle watches it to decide the process has gone quiescent.
	activity atomic.Uint64
	// kick is signaled when a waiter is registered, so the auto-advance
	// loop wakes from its idle wait. Buffered: signals coalesce.
	kick chan struct{}

	autoMu sync.Mutex
	stop   chan struct{} // non-nil while auto-advance runs
	autoWG sync.WaitGroup
}

// NewVirtual creates a virtual clock reading Epoch, with no waiters and
// auto-advance off.
func NewVirtual() *Virtual {
	v := &Virtual{
		now:  Epoch,
		kick: make(chan struct{}, 1),
	}
	v.heap = pqueue.NewHeap(func(a, b *waiter) bool {
		if !a.at.Equal(b.at) {
			return a.at.Before(b.at)
		}
		return a.seq < b.seq
	})
	return v
}

// Now returns the current virtual time.
func (v *Virtual) Now() time.Time {
	v.activity.Add(1)
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// registerLocked arms a waiter. Caller holds v.mu.
func (v *Virtual) registerLocked(at time.Time, fire func(time.Time)) *waiter {
	v.seq++
	w := &waiter{at: at, seq: v.seq, active: true, fire: fire}
	v.heap.Push(w)
	v.pending++
	v.activity.Add(1)
	select {
	case v.kick <- struct{}{}:
	default:
	}
	return w
}

// cancelLocked lazily deletes a waiter, reporting whether it was still
// pending. Caller holds v.mu.
func (v *Virtual) cancelLocked(w *waiter) bool {
	if w == nil || !w.active {
		return false
	}
	w.active = false
	v.pending--
	v.activity.Add(1)
	return true
}

// Sleep blocks until virtual time has advanced by d. A non-positive d
// just yields, like time.Sleep.
func (v *Virtual) Sleep(d time.Duration) {
	v.activity.Add(1)
	if d <= 0 {
		runtime.Gosched()
		return
	}
	done := make(chan struct{})
	v.mu.Lock()
	v.registerLocked(v.now.Add(d), func(time.Time) { close(done) })
	v.mu.Unlock()
	<-done
}

// After returns a channel that delivers the virtual time once d has
// elapsed on this clock.
func (v *Virtual) After(d time.Duration) <-chan time.Time {
	return v.NewTimer(d).C()
}

// NewTimer returns a single-shot virtual timer. No goroutine is created;
// the timer is an entry in the clock's heap.
func (v *Virtual) NewTimer(d time.Duration) Timer {
	t := &vtimer{v: v, ch: make(chan time.Time, 1)}
	v.activity.Add(1)
	v.mu.Lock()
	if d <= 0 {
		t.ch <- v.now // fires immediately, like time.NewTimer(0)
	} else {
		t.w = v.registerLocked(v.now.Add(d), t.send)
	}
	v.mu.Unlock()
	return t
}

type vtimer struct {
	v  *Virtual
	ch chan time.Time
	w  *waiter // current heap entry; guarded by v.mu (nil after a d<=0 arm)
}

func (t *vtimer) send(at time.Time) {
	select {
	case t.ch <- at:
	default:
	}
}

func (t *vtimer) C() <-chan time.Time { return t.ch }

func (t *vtimer) Stop() bool {
	t.v.mu.Lock()
	defer t.v.mu.Unlock()
	return t.v.cancelLocked(t.w)
}

func (t *vtimer) Reset(d time.Duration) bool {
	t.v.mu.Lock()
	defer t.v.mu.Unlock()
	was := t.v.cancelLocked(t.w)
	if d <= 0 {
		t.w = nil
		t.send(t.v.now)
		return was
	}
	t.w = t.v.registerLocked(t.v.now.Add(d), t.send)
	return was
}

// AdvanceTo moves virtual time to target, firing every waiter whose
// deadline is at or before target in (deadline, registration) order.
// Waiters armed by fire callbacks that still fall within target fire in
// the same pass. Time never moves backwards; a
// target in the past only fires already-due waiters.
func (v *Virtual) AdvanceTo(target time.Time) {
	v.activity.Add(1)
	v.mu.Lock()
	for {
		w, ok := v.heap.Peek()
		if !ok || w.at.After(target) {
			break
		}
		v.heap.Pop()
		if !w.active {
			continue // lazily-deleted entry
		}
		if w.at.After(v.now) {
			v.now = w.at
		}
		w.fire(w.at)
		v.activity.Add(1)
		w.active = false
		v.pending--
	}
	if target.After(v.now) {
		v.now = target
	}
	v.mu.Unlock()
}

// Advance moves virtual time forward by d, firing due waiters in order.
func (v *Virtual) Advance(d time.Duration) {
	if d < 0 {
		d = 0
	}
	v.mu.Lock()
	target := v.now.Add(d)
	v.mu.Unlock()
	v.AdvanceTo(target)
}

// Step jumps to the earliest waiter deadline and fires every waiter due
// at that instant. It reports false when no waiter is pending (time does
// not move).
func (v *Virtual) Step() bool {
	at, ok := v.NextDeadline()
	if !ok {
		return false
	}
	v.AdvanceTo(at)
	return true
}

// NextDeadline returns the earliest pending waiter deadline.
func (v *Virtual) NextDeadline() (time.Time, bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	for {
		w, ok := v.heap.Peek()
		if !ok {
			return time.Time{}, false
		}
		if !w.active {
			v.heap.Pop() // compact lazily-deleted entries
			continue
		}
		return w.at, true
	}
}

// Waiters returns the number of pending waiters (sleeps and unfired
// timers).
func (v *Virtual) Waiters() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.pending
}

// Settle blocks until the process looks quiescent from the clock's point
// of view: no clock operation (Now, Sleep, timer arm/fire/stop) has
// happened for a few scheduling rounds. Lock-step drivers call it between
// advances so every consequence of the last advance — message deliveries,
// timer handlers, sends they trigger — has played out before time moves
// again. Goroutines blocked on non-clock events that will never touch the
// clock cannot be seen, and need not be: they do not affect time.
func (v *Virtual) Settle() {
	last := v.activity.Load()
	stable, rounds := 0, 0
	// With GOMAXPROCS > 1 a just-woken goroutine may sit runnable on
	// another P for longer than a burst of yields, so quiescence needs
	// more consecutive quiet observations — and an occasional real
	// micro-sleep — before it is believed. Single-P runs keep the cheap
	// fast path.
	need := 2
	if runtime.GOMAXPROCS(0) > 1 {
		need = 4
	}
	for stable < need {
		for i := 0; i < 64; i++ {
			runtime.Gosched()
		}
		rounds++
		if rounds%8 == 0 || (stable > 0 && need > 2) {
			// A periodic real micro-sleep (never a virtual one) lets
			// runnable goroutines on other Ps get CPU if pure yielding
			// starves them. Kept off the fast path: an OS sleep has a
			// ~50µs floor, and Settle runs once per simulated instant.
			time.Sleep(20 * time.Microsecond)
		}
		if cur := v.activity.Load(); cur == last {
			stable++
		} else {
			stable = 0
			last = cur
		}
	}
}

// SetAutoAdvance turns the auto-advance goroutine on or off. While on,
// the clock repeatedly waits for quiescence (Settle) and then jumps to
// the next waiter deadline (Step), so sleeps and timeouts elapse in
// microseconds of real time with no test code driving the clock. Turning
// it off blocks until the goroutine has exited. Auto-advance trades the
// strict determinism of explicit stepping for convenience: use explicit
// AdvanceTo loops (as package simtest does) when runs must be
// byte-for-byte reproducible.
func (v *Virtual) SetAutoAdvance(on bool) {
	v.autoMu.Lock()
	defer v.autoMu.Unlock()
	if on == (v.stop != nil) {
		return
	}
	if !on {
		close(v.stop)
		v.stop = nil
		v.autoWG.Wait()
		return
	}
	stop := make(chan struct{})
	v.stop = stop
	v.autoWG.Add(1)
	go v.autoLoop(stop)
}

func (v *Virtual) autoLoop(stop chan struct{}) {
	defer v.autoWG.Done()
	for {
		select {
		case <-stop:
			return
		default:
		}
		v.Settle()
		select {
		case <-stop:
			return
		default:
		}
		if !v.Step() {
			// Nothing scheduled: block until a waiter arrives.
			select {
			case <-stop:
				return
			case <-v.kick:
			}
		}
	}
}
