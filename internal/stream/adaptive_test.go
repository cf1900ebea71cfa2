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
	"promises/internal/simnet"
	"promises/internal/trace"
	"promises/internal/transport"
)

// TestByteBudgetClosesBatches: with the count limit and the age flush both
// out of reach, only the byte budget can transmit these calls. Eight
// 64-byte calls (~84 budget bytes each) against a 256-byte budget must go
// out as exactly two four-call batches, with no explicit Flush.
func TestByteBudgetClosesBatches(t *testing.T) {
	opts := Options{MaxBatch: 1000, MaxBatchDelay: 30 * time.Second, MaxBatchBytes: 256}
	f := newFixture(t, simnet.Config{}, opts)
	f.handle("echo", echoHandler)
	ring := trace.NewRing(64)
	f.client.SetTracer(ring)

	s := f.client.Agent("a1").Stream("server", "g1")
	arg := make([]byte, 64)
	ps := make([]Pending, 8)
	for i := range ps {
		p, err := s.Call("echo", arg)
		if err != nil {
			t.Fatal(err)
		}
		ps[i] = p
	}
	for i, p := range ps {
		if o := claim(t, p); !o.Normal {
			t.Fatalf("call %d outcome = %+v", i, o)
		}
	}
	carrying := 0
	for _, e := range ring.Filter(trace.BatchSent) {
		if e.Detail == "n=4" {
			carrying++
		}
	}
	if carrying != 2 {
		t.Errorf("byte budget produced %d four-call batches, want 2; batches: %+v",
			carrying, ring.Filter(trace.BatchSent))
	}
}

// TestMaxInFlightBoundsWindowAndUnblocks: the window fills to MaxInFlight
// without blocking, the next call parks, and resolution progress admits it.
func TestMaxInFlightBoundsWindowAndUnblocks(t *testing.T) {
	opts := Options{MaxBatch: 1, MaxBatchDelay: time.Millisecond,
		RTO: 50 * time.Millisecond, MaxRetries: 8, MaxInFlight: 4}
	f := newFixture(t, simnet.Config{}, opts)
	release := make(chan struct{})
	var executed atomic.Int64
	f.handle("gate", func(call *Incoming) Outcome {
		<-release
		executed.Add(1)
		return NormalOutcome(call.Args)
	})

	s := f.client.Agent("a1").Stream("server", "g1")
	ps := make([]Pending, 4)
	for i := range ps {
		p, err := s.Call("gate", []byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		ps[i] = p
	}
	if got := s.InFlight(); got != 4 {
		t.Fatalf("InFlight = %d after filling the window, want 4", got)
	}

	fifth := make(chan Pending, 1)
	errCh := make(chan error, 1)
	go func() {
		p, err := s.Call("gate", []byte{4})
		errCh <- err
		fifth <- p
	}()
	time.Sleep(20 * time.Millisecond)
	select {
	case <-errCh:
		t.Fatal("fifth call admitted past MaxInFlight=4")
	default:
	}

	close(release)
	if err := <-errCh; err != nil {
		t.Fatalf("fifth call after unblock: %v", err)
	}
	ps = append(ps, <-fifth)
	for i, p := range ps {
		if o := claim(t, p); !o.Normal {
			t.Fatalf("call %d outcome = %+v", i, o)
		}
	}
	if executed.Load() != 5 {
		t.Errorf("executed %d calls, want 5", executed.Load())
	}
}

// TestCallCtxCanceledWhileBlocked: a context ending during Issue's
// flow-control wait returns ctx.Err() with no pending created and no seq
// consumed.
func TestCallCtxCanceledWhileBlocked(t *testing.T) {
	opts := Options{MaxBatch: 1, MaxBatchDelay: time.Millisecond,
		RTO: 50 * time.Millisecond, MaxRetries: 8, MaxInFlight: 2}
	f := newFixture(t, simnet.Config{}, opts)
	release := make(chan struct{})
	f.handle("gate", func(call *Incoming) Outcome {
		<-release
		return NormalOutcome(call.Args)
	})

	s := f.client.Agent("a1").Stream("server", "g1")
	ps := make([]Pending, 2)
	for i := range ps {
		p, err := s.Call("gate", nil)
		if err != nil {
			t.Fatal(err)
		}
		ps[i] = p
	}

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := s.Issue(ctx, Req{Port: "gate"})
		errCh <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("Issue = %v, want context.Canceled", err)
	}
	if got := s.InFlight(); got != 2 {
		t.Errorf("InFlight = %d after canceled enqueue, want 2 (no pending created)", got)
	}

	close(release)
	for i, p := range ps {
		if o := claim(t, p); !o.Normal {
			t.Fatalf("call %d outcome = %+v", i, o)
		}
	}
}

// TestBreakUnblocksFlowWaiters: a sender-side break must wake enqueues
// parked on the window; they observe the break and return its reason
// instead of hanging.
func TestBreakUnblocksFlowWaiters(t *testing.T) {
	opts := Options{MaxBatch: 1, MaxBatchDelay: time.Millisecond,
		RTO: 50 * time.Millisecond, MaxRetries: 8, MaxInFlight: 2}
	f := newFixture(t, simnet.Config{}, opts)
	release := make(chan struct{})
	defer close(release)
	f.handle("gate", func(call *Incoming) Outcome {
		<-release
		return NormalOutcome(call.Args)
	})

	s := f.client.Agent("a1").Stream("server", "g1")
	ps := make([]Pending, 2)
	for i := range ps {
		p, err := s.Call("gate", nil)
		if err != nil {
			t.Fatal(err)
		}
		ps[i] = p
	}
	errCh := make(chan error, 1)
	go func() {
		_, err := s.Call("gate", nil)
		errCh <- err
	}()
	time.Sleep(10 * time.Millisecond)

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

// TestFlowControlAcrossReincarnation: an enqueue parked on a full window
// survives retry exhaustion — the break resolves the window's calls
// exceptionally, auto-restart reincarnates the stream, and the parked call
// is admitted into the new incarnation (where the receiver's stale credit
// no longer applies) and completes once the partition heals.
func TestFlowControlAcrossReincarnation(t *testing.T) {
	opts := Options{MaxBatch: 2, MaxBatchDelay: 500 * time.Microsecond,
		RTO: 5 * time.Millisecond, MaxRetries: 20, MaxInFlight: 2, AdaptiveBatch: true}
	f := newFixture(t, simnet.Config{}, opts)
	f.handle("echo", echoHandler)
	f.net.Partition("client", "server")

	s := f.client.Agent("a1").Stream("server", "g1")
	p1, err := s.Call("echo", []byte("one"))
	if err != nil {
		t.Fatal(err)
	}
	p2, err := s.Call("echo", []byte("two"))
	if err != nil {
		t.Fatal(err)
	}
	type res struct {
		p   Pending
		err error
	}
	ch := make(chan res, 1)
	go func() {
		p, err := s.Call("echo", []byte("third"))
		ch <- res{p, err}
	}()

	// Retries exhaust against the partition: the first two calls resolve
	// unavailable and the stream reincarnates.
	for _, p := range []Pending{p1, p2} {
		if o := claim(t, p); o.Normal {
			t.Fatalf("call during partition = %+v, want exception", o)
		}
	}
	r := <-ch
	if r.err != nil {
		t.Fatalf("parked call after reincarnation: %v", r.err)
	}
	if got := s.Incarnation(); got != 2 {
		t.Fatalf("incarnation = %d, want 2", got)
	}

	f.net.HealAll()
	if o := claim(t, r.p); !o.Normal || string(o.Payload) != "third" {
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

// TestAdaptControllerSteps unit-tests the hill-climbing controller's
// decision table by driving adaptMaybeAdjustLocked directly.
func TestAdaptControllerSteps(t *testing.T) {
	opts := fastOpts()
	opts.AdaptiveBatch = true // MaxBatch 8 is the starting limit
	f := newFixture(t, simnet.Config{}, opts)
	s := f.client.Agent("a1").Stream("server", "g1")

	step := func(resolved int, retrans, blocked bool, at time.Time) {
		s.mu.Lock()
		s.adapt.epochResolved = resolved
		s.adapt.epochRetrans = retrans
		s.adapt.epochBlocked = blocked
		s.adaptMaybeAdjustLocked(at)
		s.mu.Unlock()
	}
	limit := func() int {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.adapt.limit
	}
	set := func(limit int, lastRate float64) {
		s.mu.Lock()
		s.adapt.limit = limit
		s.adapt.lastRate = lastRate
		s.mu.Unlock()
	}

	s.mu.Lock()
	cur := s.adapt.epochStart
	s.mu.Unlock()

	// Not enough resolutions: no epoch boundary, nothing moves.
	step(adaptEpochResolutions-1, false, false, cur.Add(time.Second))
	if l := limit(); l != 8 {
		t.Fatalf("limit moved on a partial epoch: %d", l)
	}

	// First full epoch: baseline only.
	cur = cur.Add(time.Second)
	step(adaptEpochResolutions, false, false, cur) // rate 64/s
	if l := limit(); l != 8 {
		t.Fatalf("baseline epoch changed limit: %d", l)
	}

	// Goodput doubled: slow start doubles the limit.
	cur = cur.Add(500 * time.Millisecond) // rate 128/s
	step(adaptEpochResolutions, false, false, cur)
	if l := limit(); l != 16 {
		t.Fatalf("slow-start step: limit %d, want 16", l)
	}

	// Improvement while credit-blocked: the receiver is the bottleneck, no
	// upward step.
	cur = cur.Add(250 * time.Millisecond) // rate 256/s
	step(adaptEpochResolutions, false, true, cur)
	if l := limit(); l != 16 {
		t.Fatalf("credit-blocked epoch stepped upward: limit %d", l)
	}

	// First regression: could be noise, hold — but slow start is over.
	cur = cur.Add(2 * time.Second) // rate 32/s
	step(adaptEpochResolutions, false, false, cur)
	if l := limit(); l != 16 {
		t.Fatalf("single regression stepped: limit %d, want 16", l)
	}

	// Second consecutive regression: genuine, undo one probe step
	// (down step = limit/5, the inverse of the limit/4 up step).
	cur = cur.Add(4 * time.Second) // rate 16/s
	step(adaptEpochResolutions, false, false, cur)
	if l := limit(); l != 13 {
		t.Fatalf("sustained regression: limit %d, want 13", l)
	}

	// Same rate: inside the dead zone, hold once...
	cur = cur.Add(4 * time.Second) // rate 16/s
	step(adaptEpochResolutions, false, false, cur)
	if l := limit(); l != 13 {
		t.Fatalf("first flat epoch moved limit: %d", l)
	}

	// ...but a second flat epoch probes upward (linear step, not a
	// slow-start double): flat goodput says nothing about the next limit.
	cur = cur.Add(4 * time.Second) // rate 16/s
	step(adaptEpochResolutions, false, false, cur)
	if l := limit(); l != 16 {
		t.Fatalf("restless probe after flat epochs: limit %d, want 16", l)
	}

	// Retransmission evidence: multiplicative cut.
	cur = cur.Add(time.Second)
	step(adaptEpochResolutions, true, false, cur)
	if l := limit(); l != 8 {
		t.Fatalf("retransmit cut: limit %d, want 8", l)
	}

	// Cuts clamp at the minimum.
	set(adaptMinLimit, 0)
	cur = cur.Add(time.Second)
	step(adaptEpochResolutions, true, false, cur)
	if l := limit(); l != adaptMinLimit {
		t.Fatalf("cut went below the minimum: %d", l)
	}

	// Raises clamp at the maximum (slow start ended at the cut above, so
	// this is a linear probe from 1000).
	set(1000, 1)
	cur = cur.Add(time.Second)
	step(adaptEpochResolutions, false, false, cur) // huge improvement
	if l := limit(); l != adaptMaxLimit {
		t.Fatalf("raise went past the maximum: %d", l)
	}

	// Zero elapsed time (virtual-clock burst): no rate, epoch restarts.
	step(adaptEpochResolutions, false, false, cur)
	if l := limit(); l != adaptMaxLimit {
		t.Fatalf("zero-elapsed epoch moved limit: %d", l)
	}
	s.mu.Lock()
	resolved := s.adapt.epochResolved
	s.mu.Unlock()
	if resolved != 0 {
		t.Fatalf("zero-elapsed epoch did not restart: epochResolved %d", resolved)
	}
}

// TestResolveBatchBytes covers the byte-budget derivation sentinel logic.
func TestResolveBatchBytes(t *testing.T) {
	lan := transport.CostModel{KernelOverhead: 20 * time.Microsecond, PerByte: 10 * time.Nanosecond}
	cases := []struct {
		name string
		opts Options
		cfg  transport.CostModel
		want int
	}{
		{"explicit wins", Options{MaxBatchBytes: 4096}, lan, 4096},
		{"explicit negative disables", Options{MaxBatchBytes: -1, AdaptiveBatch: true}, lan, -1},
		{"legacy default disabled", Options{}, lan, -1},
		{"adaptive derives from cost model", Options{AdaptiveBatch: true}, lan, 32000},
		{"adaptive without cost model", Options{AdaptiveBatch: true}, transport.CostModel{}, maxDerivedBudget},
		{"derived clamps low", Options{AdaptiveBatch: true},
			transport.CostModel{KernelOverhead: 10 * time.Nanosecond, PerByte: 10 * time.Nanosecond}, minDerivedBudget},
		{"derived clamps high", Options{AdaptiveBatch: true},
			transport.CostModel{KernelOverhead: time.Second, PerByte: time.Nanosecond}, maxDerivedBudget},
	}
	for _, c := range cases {
		if got := resolveBatchBytes(c.opts, c.cfg); got != c.want {
			t.Errorf("%s: resolveBatchBytes = %d, want %d", c.name, got, c.want)
		}
	}
}

// TestResolveIdleFlush covers the quiescence-flush delay derivation:
// off without adaptation, a kernel-overhead multiple with a cost model,
// a fixed default without one, floored, and capped by MaxBatchDelay.
func TestResolveIdleFlush(t *testing.T) {
	lan := transport.CostModel{KernelOverhead: 20 * time.Microsecond, PerByte: 10 * time.Nanosecond}
	base := Options{MaxBatchDelay: 500 * time.Microsecond}
	adaptive := base
	adaptive.AdaptiveBatch = true
	tight := adaptive
	tight.MaxBatchDelay = 5 * time.Microsecond
	cases := []struct {
		name string
		opts Options
		cfg  transport.CostModel
		want time.Duration
	}{
		{"disabled without adaptation", base, lan, 0},
		{"kernel multiple", adaptive, lan, idleFlushKernelMultiple * 20 * time.Microsecond},
		{"default without cost model", adaptive, transport.CostModel{}, defaultIdleFlush},
		{"floored", adaptive, transport.CostModel{KernelOverhead: time.Nanosecond}, minIdleFlush},
		{"capped by MaxBatchDelay", tight, lan, 5 * time.Microsecond},
	}
	for _, c := range cases {
		if got := resolveIdleFlush(c.opts, c.cfg); got != c.want {
			t.Errorf("%s: resolveIdleFlush = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestAdaptTimerFlushClamp: a timer-closed batch below the limit proves
// the arrival process cannot fill it, so the limit clamps to the realized
// size (re-entering slow start); count- or byte-closed batches at the
// limit, and empty or oversized reports, leave it alone.
func TestAdaptTimerFlushClamp(t *testing.T) {
	opts := fastOpts()
	opts.AdaptiveBatch = true
	f := newFixture(t, simnet.Config{}, opts)
	s := f.client.Agent("a1").Stream("server", "g1")

	note := func(limit, n int) (int, bool) {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.adapt.limit = limit
		s.adapt.slowStart = false
		s.adaptNoteTimerFlushLocked(n)
		return s.adapt.limit, s.adapt.slowStart
	}
	if l, ss := note(64, 20); l != 20 || !ss {
		t.Errorf("timer flush at 20 under limit 64: limit %d slowStart %v, want 20 true", l, ss)
	}
	if l, ss := note(64, 64); l != 64 || ss {
		t.Errorf("full batch must not clamp: limit %d slowStart %v", l, ss)
	}
	if l, _ := note(64, 0); l != 64 {
		t.Errorf("empty report moved limit to %d", l)
	}
	if l, _ := note(1, 1); l != 1 {
		t.Errorf("minimum limit moved to %d", l)
	}
}

// TestOverloadBoundsWindowAndWorkers: a producer far faster than the
// server, with parallel ports on. The in-flight window must never exceed
// MaxInFlight, and handler concurrency must never exceed the worker pool
// cap — the two bounds the overload path promises.
func TestOverloadBoundsWindowAndWorkers(t *testing.T) {
	opts := Options{MaxBatch: 8, MaxBatchDelay: 500 * time.Microsecond,
		RTO: 100 * time.Millisecond, MaxRetries: 8,
		MaxInFlight: 64, AdaptiveBatch: true}
	f := newFixture(t, simnet.Config{}, opts)
	f.server.SetParallelPorts(func(string) bool { return true })
	var cur, maxConc atomic.Int64
	f.handle("work", func(call *Incoming) Outcome {
		c := cur.Add(1)
		for {
			m := maxConc.Load()
			if c <= m || maxConc.CompareAndSwap(m, c) {
				break
			}
		}
		time.Sleep(200 * time.Microsecond)
		cur.Add(-1)
		return NormalOutcome(nil)
	})

	s := f.client.Agent("a1").Stream("server", "g1")
	const n = 256
	ps := make([]Pending, 0, n)
	maxWindow := 0
	for i := 0; i < n; i++ {
		p, err := s.Call("work", nil)
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
		if w := s.InFlight(); w > maxWindow {
			maxWindow = w
		}
	}
	s.Flush()
	for i, p := range ps {
		if o := claim(t, p); !o.Normal {
			t.Fatalf("call %d outcome = %+v", i, o)
		}
	}
	if maxWindow > opts.MaxInFlight {
		t.Errorf("in-flight window reached %d, bound %d", maxWindow, opts.MaxInFlight)
	}
	if maxWindow < opts.MaxInFlight/2 {
		t.Errorf("window only reached %d of %d; overload never built up (weak test)",
			maxWindow, opts.MaxInFlight)
	}
	if got := maxConc.Load(); got > execWorkers {
		t.Errorf("handler concurrency reached %d, worker pool cap %d", got, execWorkers)
	} else if got < 2 {
		t.Errorf("handler concurrency %d; parallel ports never ran in parallel", got)
	}
}

// TestExactlyOnceUnderLossWithFlowControl is the adversarial-delivery
// test with the adaptive controller and credit flow control switched on:
// loss, duplication, and reorder with a bounded window must still yield
// exactly-once in-order execution and correct replies.
func TestExactlyOnceUnderLossWithFlowControl(t *testing.T) {
	for _, seed := range []int64{3, 17} {
		seed := seed
		t.Run(time.Duration(seed).String(), func(t *testing.T) {
			t.Parallel()
			cfg := simnet.Config{
				LossRate: 0.10,
				DupRate:  0.15,
				Jitter:   300 * time.Microsecond,
				Seed:     seed,
			}
			opts := Options{MaxBatch: 4, MaxBatchDelay: 500 * time.Microsecond,
				RTO: 4 * time.Millisecond, MaxRetries: 100,
				AdaptiveBatch: true, MaxInFlight: 32}
			f := newFixture(t, cfg, opts)

			var mu sync.Mutex
			var order []int
			counts := make(map[int]int)
			f.handle("rec", func(call *Incoming) Outcome {
				v := int(call.Args[0]) | int(call.Args[1])<<8
				mu.Lock()
				order = append(order, v)
				counts[v]++
				mu.Unlock()
				return NormalOutcome(call.Args)
			})

			s := f.client.Agent("a1").Stream("server", "g1")
			const n = 150
			ps := make([]Pending, n)
			for i := range ps {
				// Blocks when the window fills; resolution progress admits.
				p, err := s.Call("rec", []byte{byte(i), byte(i >> 8)})
				if err != nil {
					t.Fatal(err)
				}
				ps[i] = p
			}
			for i, p := range ps {
				o := claim(t, p)
				if !o.Normal {
					t.Fatalf("call %d outcome = %+v", i, o)
				}
				if got := int(o.Payload[0]) | int(o.Payload[1])<<8; got != i {
					t.Fatalf("call %d reply = %d", i, got)
				}
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
