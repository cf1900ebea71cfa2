package stream

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"promises/internal/clock"
	"promises/internal/exception"
	"promises/internal/metrics"
	"promises/internal/simnet"
	"promises/internal/trace"
)

// Flow control is always on: a sender admits a call only while its seq is
// within the credit the receiver last advertised, its completed prefix
// plus recvWindow. These tests run on zero-value Options plus timings.

// flowOpts leaves the batch size at its default. The RTO is long because
// a window parked behind a blocked handler outgrows the executor's queue,
// and the requests beyond it are retransmitted unanswered until the
// handler is released.
func flowOpts() Options {
	return Options{MaxBatchDelay: time.Millisecond, RTO: time.Second, MaxRetries: 8}
}

// fillCredit uses up the stream's credit. An RPC to echo goes first, so a
// reply batch has put the receiver's grant on record, its completed
// prefix of one plus recvWindow; then recvWindow calls to gate take the
// whole grant. gate's handler must hold them, which keeps the completed
// prefix, and with it the grant, where it is: the next call parks.
func fillCredit(t *testing.T, s *Stream, gate string) []Pending {
	t.Helper()
	if _, err := s.RPC(context.Background(), "echo", nil); err != nil {
		t.Fatal(err)
	}
	ps := make([]Pending, recvWindow)
	for i := range ps {
		p, err := s.Call(gate, []byte{byte(i), byte(i >> 8)})
		if err != nil {
			t.Fatal(err)
		}
		ps[i] = p
	}
	s.Flush()
	return ps
}

// newGate returns a channel handlers hold on and the function that opens
// it. Cleanup opens it too, before the fixture's peers close, so a test
// that fails while handlers hold does not hang.
func newGate(t *testing.T) (<-chan struct{}, func()) {
	ch := make(chan struct{})
	var once sync.Once
	open := func() { once.Do(func() { close(ch) }) }
	t.Cleanup(open)
	return ch, open
}

// waitFor polls cond until it holds, and fails with what after five
// seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatal(what)
		}
	}
}

// parked reports whether an enqueue is waiting for credit on s.
func parked(s *Stream) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.flowWaiters) > 0
}

// waitParked waits until an enqueue on s is parked on its credit.
func waitParked(t *testing.T, s *Stream) {
	t.Helper()
	waitFor(t, "no enqueue parked on the receiver's credit", func() bool { return parked(s) })
}

// openWhenParked opens a gate once an enqueue on s parks on its credit,
// or after five seconds, so a run that never parks still ends.
func openWhenParked(s *Stream, open func()) {
	go func() {
		for deadline := time.Now().Add(5 * time.Second); !parked(s) && time.Now().Before(deadline); {
			time.Sleep(100 * time.Microsecond)
		}
		open()
	}()
}

// TestCreditBoundsWindowAndUnblocks: behind a blocked handler the window
// fills to recvWindow without blocking, call recvWindow+1 parks, and the
// completions that follow the handler's release admit it.
func TestCreditBoundsWindowAndUnblocks(t *testing.T) {
	f := newFixture(t, simnet.Config{}, flowOpts())
	held, release := newGate(t)
	var executed atomic.Int64
	f.handle("echo", echoHandler)
	f.handle("gate", func(call *Incoming) Outcome {
		<-held
		executed.Add(1)
		return NormalOutcome(call.Args)
	})

	s := f.client.Agent("a1").Stream("server", "g1")
	ps := fillCredit(t, s, "gate")
	if got := s.InFlight(); got != recvWindow {
		t.Fatalf("InFlight = %d after using up the credit, want %d", got, recvWindow)
	}

	next := make(chan Pending, 1)
	errCh := make(chan error, 1)
	go func() {
		p, err := s.Call("gate", []byte{0, 0})
		errCh <- err
		next <- p
	}()
	waitParked(t, s)
	select {
	case <-errCh:
		t.Fatalf("call %d admitted past the receiver's credit", recvWindow+1)
	default:
	}

	release()
	if err := <-errCh; err != nil {
		t.Fatalf("parked call after the release: %v", err)
	}
	ps = append(ps, <-next)
	for i, p := range ps {
		if o := claim(t, p); !o.Normal {
			t.Fatalf("call %d outcome = %+v", i, o)
		}
	}
	if got := executed.Load(); got != recvWindow+1 {
		t.Errorf("executed %d calls, want %d", got, recvWindow+1)
	}
}

// TestCallCtxCanceledWhileBlocked: a context ending during Issue's
// flow-control wait returns ctx.Err() with no pending created and no seq
// consumed.
func TestCallCtxCanceledWhileBlocked(t *testing.T) {
	f := newFixture(t, simnet.Config{}, flowOpts())
	held, release := newGate(t)
	f.handle("echo", echoHandler)
	f.handle("gate", func(call *Incoming) Outcome {
		<-held
		return NormalOutcome(call.Args)
	})

	s := f.client.Agent("a1").Stream("server", "g1")
	ps := fillCredit(t, s, "gate")

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := s.Issue(ctx, Req{Port: "gate"})
		errCh <- err
	}()
	waitParked(t, s)
	cancel()
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("Issue = %v, want context.Canceled", err)
	}
	if got := s.InFlight(); got != recvWindow {
		t.Errorf("InFlight = %d after canceled enqueue, want %d (no pending created)", got, recvWindow)
	}

	release()
	for i, p := range ps {
		if o := claim(t, p); !o.Normal {
			t.Fatalf("call %d outcome = %+v", i, o)
		}
	}
}

// TestBreakUnblocksFlowWaiters: a sender-side break must wake enqueues
// parked on the credit; they observe the break and return its reason
// instead of hanging.
func TestBreakUnblocksFlowWaiters(t *testing.T) {
	f := newFixture(t, simnet.Config{}, flowOpts())
	held, _ := newGate(t)
	f.handle("echo", echoHandler)
	f.handle("gate", func(call *Incoming) Outcome {
		<-held
		return NormalOutcome(call.Args)
	})

	s := f.client.Agent("a1").Stream("server", "g1")
	ps := fillCredit(t, s, "gate")
	errCh := make(chan error, 1)
	go func() {
		_, err := s.Call("gate", nil)
		errCh <- err
	}()
	waitParked(t, s)

	s.Break(exception.Unavailable("operator break"))
	if err := <-errCh; err == nil {
		t.Fatal("blocked Call returned nil error after break")
	}
	for i, p := range ps {
		if o := claim(t, p); o.Normal || o.Exception != exception.NameUnavailable {
			t.Fatalf("call %d outcome = %+v, want unavailable", i, o)
		}
	}
}

// TestFlowControlAcrossReincarnation: an enqueue parked on a used-up
// credit survives retry exhaustion — the break resolves the window's
// calls exceptionally, auto-restart reincarnates the stream, and the
// parked call is admitted into the new incarnation (where the receiver's
// stale credit no longer applies) and completes once the partition heals.
func TestFlowControlAcrossReincarnation(t *testing.T) {
	opts := flowOpts()
	opts.RTO, opts.MaxRetries = 5*time.Millisecond, 20
	f := newFixture(t, simnet.Config{}, opts)
	held, release := newGate(t)
	f.handle("echo", echoHandler)
	f.handle("gate", func(call *Incoming) Outcome {
		<-held
		return NormalOutcome(call.Args)
	})

	s := f.client.Agent("a1").Stream("server", "g1")
	ps := fillCredit(t, s, "gate")
	f.net.Partition("client", "server")
	type res struct {
		p   Pending
		err error
	}
	ch := make(chan res, 1)
	go func() {
		p, err := s.Call("echo", []byte("parked"))
		ch <- res{p, err}
	}()

	// Retries exhaust against the partition: the window's calls resolve
	// unavailable and the stream reincarnates.
	for i, p := range ps {
		if o := claim(t, p); o.Normal {
			t.Fatalf("call %d during partition = %+v, want exception", i, o)
		}
	}
	r := <-ch
	if r.err != nil {
		t.Fatalf("parked call after reincarnation: %v", r.err)
	}
	if got := s.Incarnation(); got != 2 {
		t.Fatalf("incarnation = %d, want 2", got)
	}

	release()
	f.net.HealAll()
	if o := claim(t, r.p); !o.Normal || string(o.Payload) != "parked" {
		t.Fatalf("parked call outcome = %+v, want normal echo", o)
	}
}

// TestPreciseAgeFlushTimer drives a manual virtual clock to the exact
// instant bufferedAt+MaxBatchDelay: one microsecond earlier nothing has
// been transmitted, and the batch goes out stamped at precisely that
// instant — the tick-quantization the old age flush added is gone.
func TestPreciseAgeFlushTimer(t *testing.T) {
	vclk := clock.NewVirtual()
	t.Cleanup(func() { vclk.SetAutoAdvance(false) })
	const delay = 700 * time.Microsecond
	opts := Options{MaxBatch: 1000, MaxBatchDelay: delay,
		RTO: 50 * time.Millisecond, MaxRetries: 8}
	f := newFixture(t, simnet.Config{Clock: vclk}, opts)
	f.handle("echo", echoHandler)
	ring := trace.NewRing(64)
	f.client.SetTracer(ring)

	s := f.client.Agent("a1").Stream("server", "g1")
	base := vclk.Waiters()
	t0 := vclk.Now()
	p, err := s.Call("echo", nil)
	if err != nil {
		t.Fatal(err)
	}
	// Wait (in real time) for the flush timer to register with the clock;
	// until then an AdvanceTo could slip past the deadline it will pick.
	deadline := time.Now().Add(5 * time.Second)
	for vclk.Waiters() <= base {
		if time.Now().After(deadline) {
			t.Fatal("flush timer never armed")
		}
		time.Sleep(100 * time.Microsecond)
	}

	vclk.AdvanceTo(t0.Add(delay - time.Microsecond))
	time.Sleep(2 * time.Millisecond) // real time for any premature flush to surface
	if got := ring.Count(trace.BatchSent); got != 0 {
		t.Fatalf("batch transmitted %d times before MaxBatchDelay elapsed", got)
	}

	vclk.AdvanceTo(t0.Add(delay))
	for ring.Count(trace.BatchSent) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("flush never fired at the deadline")
		}
		time.Sleep(100 * time.Microsecond)
	}
	sent := ring.Filter(trace.BatchSent)[0]
	if want := t0.Add(delay); !sent.At.Equal(want) {
		t.Fatalf("batch sent at %v, want exactly %v", sent.At, want)
	}

	// Drain under auto-advance so the reply path and teardown complete.
	vclk.SetAutoAdvance(true)
	claim(t, p)
}

// ahead is how many calls s has admitted past the receiver's completed
// prefix as last reported: the window the credit bounds.
func ahead(s *Stream) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int(s.nextSeq - 1 - s.completedThrough)
}

// TestOverloadBoundsWindowAndWorkers: a producer far faster than the
// server, with parallel ports on. The calls admitted past the receiver's
// completed prefix must never exceed its credit, and handler concurrency
// must never exceed the worker pool cap — the two bounds the overload
// path promises. The handlers hold until the producer has parked, so the
// window fills.
func TestOverloadBoundsWindowAndWorkers(t *testing.T) {
	f := newFixture(t, simnet.Config{}, flowOpts())
	f.server.SetParallelPorts(func(string) bool { return true })
	held, release := newGate(t)
	var cur, maxConc atomic.Int64
	f.handle("echo", echoHandler)
	f.handle("work", func(call *Incoming) Outcome {
		c := cur.Add(1)
		for {
			m := maxConc.Load()
			if c <= m || maxConc.CompareAndSwap(m, c) {
				break
			}
		}
		<-held
		cur.Add(-1)
		return NormalOutcome(nil)
	})

	s := f.client.Agent("a1").Stream("server", "g1")
	ps := fillCredit(t, s, "work")
	maxWindow := ahead(s)
	openWhenParked(s, release)
	for i := 0; i < recvWindow; i++ {
		p, err := s.Call("work", nil)
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
		if w := ahead(s); w > maxWindow {
			maxWindow = w
		}
	}
	s.Flush()
	for i, p := range ps {
		if o := claim(t, p); !o.Normal {
			t.Fatalf("call %d outcome = %+v", i, o)
		}
	}
	if maxWindow != recvWindow {
		t.Errorf("window past the completed prefix reached %d, want the credit, %d", maxWindow, recvWindow)
	}
	if got := maxConc.Load(); got > execWorkers {
		t.Errorf("handler concurrency reached %d, worker pool cap %d", got, execWorkers)
	} else if got < 2 {
		t.Errorf("handler concurrency %d; parallel ports never ran in parallel", got)
	}
}

// TestExactlyOnceUnderLossWithFlowControl is the adversarial-delivery
// test with the credit binding: loss, duplication and reorder while the
// window runs into the receiver's credit must still yield exactly-once
// in-order execution and correct replies. Call 1 holds until the producer
// has parked on the credit, so every run binds at least once.
func TestExactlyOnceUnderLossWithFlowControl(t *testing.T) {
	for _, seed := range []int64{3, 17} {
		seed := seed
		t.Run(time.Duration(seed).String(), func(t *testing.T) {
			t.Parallel()
			reg := metrics.NewRegistry()
			cfg := simnet.Config{
				LossRate: 0.10,
				DupRate:  0.15,
				Jitter:   300 * time.Microsecond,
				Seed:     seed,
				Metrics:  reg,
			}
			opts := Options{MaxBatchDelay: 500 * time.Microsecond,
				RTO: 4 * time.Millisecond, MaxRetries: 100}
			f := newFixture(t, cfg, opts)
			s := f.client.Agent("a1").Stream("server", "g1")

			held, release := newGate(t)
			var mu sync.Mutex
			var order []int
			counts := make(map[int]int)
			f.handle("rec", func(call *Incoming) Outcome {
				v := int(call.Args[0]) | int(call.Args[1])<<8
				if v == 1 {
					<-held
				}
				mu.Lock()
				order = append(order, v)
				counts[v]++
				mu.Unlock()
				return NormalOutcome(call.Args)
			})
			openWhenParked(s, release)

			// Call 0 round-trips alone, so the credit is on record before
			// the window fills.
			const n = recvWindow + 256
			ps := make([]Pending, n)
			for i := range ps {
				p, err := s.Call("rec", []byte{byte(i), byte(i >> 8)})
				if err != nil {
					t.Fatal(err)
				}
				ps[i] = p
				if i == 0 {
					claim(t, p)
				}
			}
			s.Flush()
			for i, p := range ps {
				o := claim(t, p)
				if !o.Normal {
					t.Fatalf("call %d outcome = %+v", i, o)
				}
				if got := int(o.Payload[0]) | int(o.Payload[1])<<8; got != i {
					t.Fatalf("call %d reply = %d", i, got)
				}
			}
			if reg.Counter("stream_flow_blocked_total").Value() == 0 {
				t.Error("no enqueue ever waited for credit")
			}
			mu.Lock()
			defer mu.Unlock()
			if len(order) != n {
				t.Fatalf("executed %d calls, want %d", len(order), n)
			}
			for i, v := range order {
				if v != i {
					t.Fatalf("execution order[%d] = %d", i, v)
				}
			}
			for v, c := range counts {
				if c != 1 {
					t.Fatalf("call %d executed %d times", v, c)
				}
			}
		})
	}
}
