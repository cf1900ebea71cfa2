// Package promise implements the paper's primary contribution: the promise
// data type (Liskov & Shrira, PLDI 1988, §3).
//
// A promise is a place holder for a value that will exist in the future. It
// is created at the time a call is made; the call computes the value,
// running in parallel with the caller. A promise is in one of two states:
// blocked, then — once the call completes — ready, holding the outcome of
// the call: either a normal result or an exception. Once ready, a promise
// stays ready and its value never changes; it can be claimed any number of
// times with the same outcome each time.
//
// Unlike MultiLisp futures, promises are strongly typed — Promise[T] is a
// distinct compile-time type, so no runtime check is needed to distinguish
// a promise from an ordinary value — and they propagate exceptions from the
// called procedure to the claimer in the termination model: Claim either
// returns the normal result or returns the exception the call signalled
// (including the system exceptions unavailable and failure, which any
// remote call can raise).
//
// Promises arise three ways:
//
//   - stream calls (Call, Send, Start): the promise is one object holding
//     the stream transport's Pending and its result decoder, and becomes
//     ready in strict call order;
//   - local forks (the fork package): a new process runs the procedure and
//     resolves the promise when it terminates;
//   - directly (New + Fulfill/Signal), the building block for both.
package promise

import (
	"context"
	"sync"
	"sync/atomic"

	"promises/internal/exception"
	"promises/internal/stream"
)

// Promise is a strongly typed placeholder for a value of type T that will
// exist in the future. The zero value is not useful; create promises with
// New, Call, Send, or the fork package.
type Promise[T any] struct {
	// Exactly one of the two backings is active:
	//
	// Cell backing (New): mu/ready/done guard a write-once cell.
	//
	// Stream backing (Call/Send/Start): pend is the transport's handle for
	// the call and dec turns its outcome into val/exc. The first claimer
	// to see the outcome settles the promise — decodes once, under
	// settling — and the transport's pooled cell is released as soon as
	// nobody is using the handle any more (see hold). From then on every
	// operation answers from val/exc and the settled latch, never from
	// the handle.
	pend stream.Pending
	dec  Decoder[T]
	tail *pipeTail // Start only: how to finish an unpiped chain

	// settling is not mu: finishing an unpiped chain blocks on further
	// calls, and subscribing (onReady) must not wait for that.
	settling sync.Mutex
	settled  atomic.Bool  // val/exc are final; pend is not to be touched
	users    atomic.Int32 // goroutines inside an operation on pend
	freed    atomic.Bool  // pend's cell went back to the pool

	// results backs the decoded result list handed to dec, so a reply of
	// up to two values costs no slice. It is part of the promise, never
	// reused, so a decoder may keep the list.
	results [2]any

	mu    sync.Mutex
	done  chan struct{}
	ready bool
	val   T
	exc   *exception.Exception

	// subs are callbacks registered by onReady (the Then/Catch
	// subscription machinery) to run once the promise is ready; nil after
	// dispatch. dispatched marks that the ready callbacks have run (or
	// are running), so late subscribers execute inline instead of being
	// appended to a list nobody will drain. watching bounds stream-backed
	// promises to at most one waiter goroutine however many subscribers
	// attach. All guarded by mu.
	subs       []func()
	dispatched bool
	watching   bool
}

// closedChan is what Done returns for a settled stream-backed promise.
var closedChan = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// New creates a promise in the blocked state. It becomes ready when
// Fulfill or Signal is called.
func New[T any]() *Promise[T] {
	return &Promise[T]{done: make(chan struct{})}
}

// streamBacked reports which backing is active; it never changes.
func (p *Promise[T]) streamBacked() bool { return p.pend.Valid() }

// hold pins the transport handle for one operation on it, ended by drop.
// It reports false — and pins nothing — once the promise has settled:
// the caller answers from val/exc instead. Counting the users lets
// concurrent claimers, pollers and the subscription waiter share a handle
// that panics on any use after its Release.
func (p *Promise[T]) hold() bool {
	if p.settled.Load() {
		return false
	}
	p.users.Add(1)
	if p.settled.Load() {
		p.drop()
		return false
	}
	return true
}

// drop ends a hold. The last user out after the promise settled returns
// the transport cell to its pool; a hold that starts later increments
// users before it checks settled, so it is either counted here or backs
// off.
func (p *Promise[T]) drop() {
	if p.users.Add(-1) == 0 && p.settled.Load() && p.freed.CompareAndSwap(false, true) {
		p.pend.Release()
	}
}

// await waits for the stream to resolve the call, or for ctx to end, and
// settles the promise. A ready call returns at once; a context that
// cannot end waits on the transport cell's condition variable; only a
// cancellable wait selects on a channel.
func (p *Promise[T]) await(ctx context.Context) error {
	if !p.hold() {
		return nil
	}
	defer p.drop()
	o, err := p.pend.Wait(ctx)
	if err == nil {
		p.settle(o)
	}
	return err
}

// settle decodes the transport outcome into val/exc, once; the caller
// holds the handle. Later outcomes (every claimer that waited gets its
// own copy) are ignored.
func (p *Promise[T]) settle(o stream.Outcome) {
	p.settling.Lock()
	defer p.settling.Unlock()
	if p.settled.Load() {
		return
	}
	if t := p.tail; t != nil && o.Normal && !o.Piped {
		// Unpiped normal reply with hops outstanding: the endpoint does
		// not pipeline (legacy decoder, or pipelining disabled). The
		// reply is stage one's value; drive the rest caller-mediated.
		o = runFallback(t.s, o, t.stages, t.cause)
	}
	v, err := decodeOutcome(o, p.dec, p.results[:0])
	if err != nil {
		p.exc = toException(err)
	} else {
		p.val = v
	}
	p.settled.Store(true)
}

// Fulfill resolves the promise with a normal result. It reports whether
// this call performed the resolution: a promise is write-once, so on an
// already-ready promise Fulfill does nothing and returns false.
func (p *Promise[T]) Fulfill(v T) bool {
	if p.streamBacked() {
		return false // stream-backed promises resolve via the stream
	}
	p.mu.Lock()
	if p.ready {
		p.mu.Unlock()
		return false
	}
	p.val = v
	p.ready = true
	close(p.done)
	subs := p.takeSubsLocked()
	p.mu.Unlock()
	runSubs(subs)
	return true
}

// Signal resolves the promise with an exception. Like Fulfill it is
// write-once and reports whether this call performed the resolution.
func (p *Promise[T]) Signal(ex *exception.Exception) bool {
	if ex == nil {
		ex = exception.Failure("nil exception")
	}
	if p.streamBacked() {
		return false
	}
	p.mu.Lock()
	if p.ready {
		p.mu.Unlock()
		return false
	}
	p.exc = ex
	p.ready = true
	close(p.done)
	subs := p.takeSubsLocked()
	p.mu.Unlock()
	runSubs(subs)
	return true
}

// takeSubsLocked claims the subscriber list for dispatch. Caller holds
// p.mu and runs the returned callbacks after unlocking.
func (p *Promise[T]) takeSubsLocked() []func() {
	subs := p.subs
	p.subs = nil
	p.dispatched = true
	return subs
}

func runSubs(subs []func()) {
	for _, fn := range subs {
		fn()
	}
}

// onReady arranges for fn to run once the promise is ready. On an
// already-ready promise fn runs inline, before onReady returns — this is
// what makes combinator chains over resolved promises cost zero
// goroutines. On a blocked promise fn runs on whichever goroutine
// resolves it (Fulfill/Signal), or, for stream-backed promises, on a
// single shared waiter goroutine started at first subscription.
// Callbacks must therefore be brief and must not block on the promise's
// own resolution path.
func (p *Promise[T]) onReady(fn func()) {
	if p.streamBacked() && p.Ready() {
		fn()
		return
	}
	p.mu.Lock()
	if p.ready || p.dispatched {
		p.mu.Unlock()
		fn()
		return
	}
	p.subs = append(p.subs, fn)
	// One waiter goroutine per stream-backed promise, shared by every
	// subscriber; promises nobody subscribes to never start it.
	watch := p.streamBacked() && !p.watching
	if watch {
		p.watching = true
	}
	p.mu.Unlock()
	if watch {
		go func() {
			p.outcome() // blocks until the stream resolves the call
			p.mu.Lock()
			subs := p.takeSubsLocked()
			p.mu.Unlock()
			runSubs(subs)
		}()
	}
}

// Ready reports whether the promise is ready: true once the call has
// completed (normally or exceptionally), false while it is blocked.
func (p *Promise[T]) Ready() bool {
	if p.streamBacked() {
		if !p.hold() {
			return true
		}
		ready := p.pend.Ready()
		p.drop()
		return ready
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.ready
}

// Done returns a channel that is closed when the promise becomes ready,
// for use in select statements. A stream-backed promise makes the channel
// only when Done is first asked for; Claim, Ready and TryClaim never need
// it.
func (p *Promise[T]) Done() <-chan struct{} {
	if p.streamBacked() {
		if !p.hold() {
			return closedChan
		}
		done := p.pend.Done()
		p.drop()
		return done
	}
	return p.done
}

// Claim waits until the promise is ready, then returns the call's normal
// result, or the exception it terminated with as the error. A promise can
// be claimed multiple times; the same outcome occurs each time. Claim
// returns ctx.Err() if the context ends first — the promise itself is
// unaffected and can be claimed again.
func (p *Promise[T]) Claim(ctx context.Context) (T, error) {
	if p.streamBacked() {
		if err := p.await(ctx); err != nil {
			var zero T
			return zero, err
		}
	} else {
		select {
		case <-p.done:
		case <-ctx.Done():
			var zero T
			return zero, ctx.Err()
		}
	}
	v, exc := p.outcome()
	if exc != nil {
		return v, exc
	}
	return v, nil
}

// MustClaim is Claim with background context, for callers that cannot be
// cancelled (examples, tests).
func (p *Promise[T]) MustClaim() (T, error) {
	return p.Claim(context.Background())
}

// TryClaim claims the promise without blocking. ok is false while the
// promise is blocked; when ok is true, the value and error are exactly
// what Claim would return.
func (p *Promise[T]) TryClaim() (v T, err error, ok bool) {
	if !p.Ready() {
		var zero T
		return zero, nil, false
	}
	v, exc := p.outcome()
	if exc != nil {
		return v, exc, true
	}
	return v, nil, true
}

// Exception returns the exception the promise resolved with, or nil if it
// is blocked or resolved normally.
func (p *Promise[T]) Exception() *exception.Exception {
	if !p.Ready() {
		return nil
	}
	_, exc := p.outcome()
	return exc
}

// outcome returns the resolved value/exception pair. A cell-backed
// promise must be ready; a stream-backed one is waited for and settled if
// it has not been yet.
func (p *Promise[T]) outcome() (T, *exception.Exception) {
	if p.streamBacked() {
		_ = p.await(context.Background()) // cannot end early: no error
		return p.val, p.exc
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.val, p.exc
}

// Resolved returns a promise already ready with the given value. Useful
// for composing promise-typed data structures.
func Resolved[T any](v T) *Promise[T] {
	p := New[T]()
	p.Fulfill(v)
	return p
}

// Failed returns a promise already ready with the given exception.
func Failed[T any](ex *exception.Exception) *Promise[T] {
	p := New[T]()
	p.Signal(ex)
	return p
}
