package stream

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"promises/internal/clock"
	"promises/internal/exception"
	"promises/internal/simnet"
	"promises/internal/transport"
	"promises/internal/wire"
)

// testFixture wires a client peer and a server peer over one network.
type testFixture struct {
	net      *simnet.Network
	client   *Peer
	server   *Peer
	handlers map[string]Handler
	mu       sync.Mutex
}

func newFixture(t *testing.T, cfg simnet.Config, opts Options) *testFixture {
	t.Helper()
	n := simnet.New(cfg)
	f := &testFixture{
		net:      n,
		handlers: make(map[string]Handler),
	}
	f.start(t, n.MustAddNode("client"), n.MustAddNode("server"), opts, opts)
	return f
}

// start runs the fixture's peers on the given endpoints with the given
// options, the server dispatching to the fixture's handlers.
func (f *testFixture) start(t *testing.T, client, server transport.Endpoint, clientOpts, serverOpts Options) {
	f.client = NewPeer(client, clientOpts)
	f.server = NewPeer(server, serverOpts)
	f.server.SetDispatcher(func(port string) (Handler, bool) {
		f.mu.Lock()
		defer f.mu.Unlock()
		h, ok := f.handlers[port]
		return h, ok
	})
	t.Cleanup(func() {
		f.client.Close()
		f.server.Close()
		f.net.Close()
	})
}

// newVirtualFixture is newFixture on a virtual clock with auto-advance:
// sleeps and timeouts (the network's, the protocol's, and any the test
// itself takes via the returned clock) elapse in microseconds of real
// time. Timing assertions must measure with the returned clock — real
// elapsed time is meaningless under auto-advance.
func newVirtualFixture(t *testing.T, cfg simnet.Config, opts Options) (*testFixture, *clock.Virtual) {
	t.Helper()
	cfg.Clock = autoClock(t)
	return newFixture(t, cfg, opts), cfg.Clock.(*clock.Virtual)
}

// autoClock returns a virtual clock with auto-advance on. Made before a
// fixture, its cleanup is registered first, so (LIFO) the clock keeps
// advancing until the peers have closed and nothing is left waiting on it.
func autoClock(t *testing.T) *clock.Virtual {
	vclk := clock.NewVirtual()
	vclk.SetAutoAdvance(true)
	t.Cleanup(func() { vclk.SetAutoAdvance(false) })
	return vclk
}

func (f *testFixture) handle(port string, h Handler) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.handlers[port] = h
}

// echoHandler replies with the argument bytes unchanged.
func echoHandler(call *Incoming) Outcome { return NormalOutcome(call.Args) }

// fastOpts are protocol options tuned for tests.
func fastOpts() Options {
	return Options{MaxBatch: 8, MaxBatchDelay: time.Millisecond, RTO: 10 * time.Millisecond, MaxRetries: 4}
}

func claim(t *testing.T, p Pending) Outcome {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	o, err := p.Wait(ctx)
	if err != nil {
		t.Fatalf("Wait(seq %d): %v", p.Seq, err)
	}
	return o
}

func TestStreamCallRoundTrip(t *testing.T) {
	f := newFixture(t, simnet.Config{}, fastOpts())
	f.handle("echo", echoHandler)
	s := f.client.Agent("a1").Stream("server", "g1")
	p, err := s.Call("echo", []byte("payload"))
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	o := claim(t, p)
	if !o.Normal || string(o.Payload) != "payload" {
		t.Errorf("outcome = %+v", o)
	}
}

func TestRepliesResolveInCallOrder(t *testing.T) {
	f := newFixture(t, simnet.Config{Jitter: 500 * time.Microsecond, Seed: 5}, fastOpts())
	f.handle("echo", echoHandler)
	s := f.client.Agent("a1").Stream("server", "g1")
	const n = 100
	ps := make([]Pending, n)
	for i := range ps {
		p, err := s.Call("echo", []byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		ps[i] = p
	}
	s.Flush()
	// Ordered readiness: whenever pending i+1 is ready, pending i is too.
	for i := n - 1; i >= 0; i-- {
		claim(t, ps[i])
		for j := 0; j < i; j++ {
			_ = j // readiness of earlier is implied; spot-check below
		}
	}
	for i := 1; i < n; i++ {
		if ps[i].Ready() && !ps[i-1].Ready() {
			t.Fatalf("pending %d ready before %d", i, i-1)
		}
	}
}

func TestOrderedReadinessInvariant(t *testing.T) {
	// A handler that replies instantly; we poll readiness during the run
	// and assert the prefix property.
	f := newFixture(t, simnet.Config{Jitter: 300 * time.Microsecond, Seed: 11}, fastOpts())
	f.handle("echo", echoHandler)
	s := f.client.Agent("a1").Stream("server", "g1")
	const n = 64
	ps := make([]Pending, n)
	for i := range ps {
		p, err := s.Call("echo", nil)
		if err != nil {
			t.Fatal(err)
		}
		ps[i] = p
	}
	s.Flush()
	deadline := time.Now().Add(10 * time.Second)
	for !ps[n-1].Ready() {
		// Later calls are read first: a call read ready before an earlier
		// one is read unready was ready while that one was not. Read the
		// other way round, a pair resolving between the two reads would
		// look out of order.
		ready := make([]bool, n)
		for i := n - 1; i >= 0; i-- {
			ready[i] = ps[i].Ready()
		}
		for i := 1; i < n; i++ {
			if ready[i] && !ready[i-1] {
				t.Fatalf("readiness not prefix-closed at %d", i)
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("timed out")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func TestHandlerExceptionPropagates(t *testing.T) {
	f := newFixture(t, simnet.Config{}, fastOpts())
	f.handle("grade", func(call *Incoming) Outcome {
		return ExceptionOutcome(exception.New("no_such_student", "alice"))
	})
	s := f.client.Agent("a1").Stream("server", "g1")
	p, err := s.Call("grade", nil)
	if err != nil {
		t.Fatal(err)
	}
	o := claim(t, p)
	if o.Normal {
		t.Fatal("expected exceptional outcome")
	}
	ex := o.Err()
	if ex.Name != "no_such_student" || ex.StringArg(0) != "alice" {
		t.Errorf("exception = %v", ex)
	}
}

func TestUnknownPortIsFailure(t *testing.T) {
	f := newFixture(t, simnet.Config{}, fastOpts())
	s := f.client.Agent("a1").Stream("server", "g1")
	p, err := s.Call("nonexistent", nil)
	if err != nil {
		t.Fatal(err)
	}
	o := claim(t, p)
	if o.Normal || o.Exception != exception.NameFailure {
		t.Errorf("outcome = %+v", o)
	}
	if got := o.Err().StringArg(0); got != "handler does not exist" {
		t.Errorf("reason = %q", got)
	}
}

func TestSendCompletesWithoutIndividualReply(t *testing.T) {
	f := newFixture(t, simnet.Config{}, fastOpts())
	var executed atomic.Int64
	f.handle("notify", func(call *Incoming) Outcome {
		executed.Add(1)
		return NormalOutcome(nil)
	})
	s := f.client.Agent("a1").Stream("server", "g1")
	const n = 20
	ps := make([]Pending, n)
	for i := range ps {
		p, err := s.Send("notify", []byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		ps[i] = p
	}
	s.Flush()
	for _, p := range ps {
		if o := claim(t, p); !o.Normal {
			t.Errorf("send outcome = %+v", o)
		}
	}
	if executed.Load() != n {
		t.Errorf("executed %d of %d sends", executed.Load(), n)
	}
}

func TestSendExceptionStillReported(t *testing.T) {
	f := newFixture(t, simnet.Config{}, fastOpts())
	f.handle("notify", func(call *Incoming) Outcome {
		if call.Args[0] == 3 {
			return ExceptionOutcome(exception.New("bad_item", int64(3)))
		}
		return NormalOutcome(nil)
	})
	s := f.client.Agent("a1").Stream("server", "g1")
	ps := make([]Pending, 6)
	for i := range ps {
		p, err := s.Send("notify", []byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		ps[i] = p
	}
	s.Flush()
	for i, p := range ps {
		o := claim(t, p)
		if i == 3 {
			if o.Normal || o.Exception != "bad_item" {
				t.Errorf("send 3 outcome = %+v", o)
			}
		} else if !o.Normal {
			t.Errorf("send %d outcome = %+v", i, o)
		}
	}
}

func TestRPCWaitsForResult(t *testing.T) {
	f := newFixture(t, simnet.Config{}, fastOpts())
	f.handle("add", func(call *Incoming) Outcome {
		vals, err := wire.Unmarshal(call.Args)
		if err != nil {
			return ExceptionOutcome(exception.Failure("could not decode"))
		}
		a, _ := wire.IntArg(vals, 0)
		b, _ := wire.IntArg(vals, 1)
		enc, _ := wire.Marshal(a + b)
		return NormalOutcome(enc)
	})
	s := f.client.Agent("a1").Stream("server", "g1")
	args, _ := wire.Marshal(int64(2), int64(40))
	o, err := s.RPC(context.Background(), "add", args)
	if err != nil {
		t.Fatalf("RPC: %v", err)
	}
	res, err := o.Results()
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := wire.AsInt(res[0]); v != 42 {
		t.Errorf("add = %v", v)
	}
}

func TestSynchReportsExceptionReply(t *testing.T) {
	f := newFixture(t, simnet.Config{}, fastOpts())
	f.handle("maybe", func(call *Incoming) Outcome {
		if len(call.Args) > 0 && call.Args[0] == 1 {
			return ExceptionOutcome(exception.New("oops"))
		}
		return NormalOutcome(nil)
	})
	s := f.client.Agent("a1").Stream("server", "g1")
	for i := 0; i < 5; i++ {
		arg := byte(0)
		if i == 2 {
			arg = 1
		}
		if _, err := s.Call("maybe", []byte{arg}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Synch(context.Background()); !errors.Is(err, error(ErrExceptionReply)) {
		t.Errorf("Synch = %v, want exception_reply", err)
	}
	// The boundary reset: a second synch with only normal calls is clean.
	if _, err := s.Call("maybe", []byte{0}); err != nil {
		t.Fatal(err)
	}
	if err := s.Synch(context.Background()); err != nil {
		t.Errorf("second Synch = %v", err)
	}
}

func TestSynchNormalWhenAllSucceed(t *testing.T) {
	f := newFixture(t, simnet.Config{}, fastOpts())
	f.handle("ok", echoHandler)
	s := f.client.Agent("a1").Stream("server", "g1")
	for i := 0; i < 10; i++ {
		if _, err := s.Call("ok", nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Synch(context.Background()); err != nil {
		t.Errorf("Synch = %v", err)
	}
}

func TestSynchOnEmptyStream(t *testing.T) {
	f := newFixture(t, simnet.Config{}, fastOpts())
	s := f.client.Agent("a1").Stream("server", "g1")
	if err := s.Synch(context.Background()); err != nil {
		t.Errorf("Synch on fresh stream = %v", err)
	}
}

func TestRPCSetsSynchBoundary(t *testing.T) {
	f := newFixture(t, simnet.Config{}, fastOpts())
	f.handle("bad", func(*Incoming) Outcome { return ExceptionOutcome(exception.New("oops")) })
	f.handle("ok", echoHandler)
	s := f.client.Agent("a1").Stream("server", "g1")
	if _, err := s.Call("bad", nil); err != nil {
		t.Fatal(err)
	}
	// The RPC resets the boundary even though an earlier stream call
	// raised an exception.
	if _, err := s.RPC(context.Background(), "ok", nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Synch(context.Background()); err != nil {
		t.Errorf("Synch after RPC boundary = %v, want nil", err)
	}
}

func TestFlushSpeedsDelivery(t *testing.T) {
	opts := fastOpts()
	opts.MaxBatchDelay = 10 * time.Second // effectively never
	opts.MaxBatch = 1000
	f := newFixture(t, simnet.Config{}, opts)
	f.handle("echo", echoHandler)
	s := f.client.Agent("a1").Stream("server", "g1")
	p, err := s.Call("echo", nil)
	if err != nil {
		t.Fatal(err)
	}
	// Without a flush the batch would sit in the buffer.
	time.Sleep(20 * time.Millisecond)
	if p.Ready() {
		t.Fatal("call transmitted without flush despite huge batch window")
	}
	s.Flush()
	claim(t, p)
}

func TestBatchingReducesMessages(t *testing.T) {
	const n = 64
	run := func(mode Mode, maxBatch int) simnet.Stats {
		net := simnet.New(simnet.Config{})
		defer net.Close()
		opts := Options{MaxBatch: maxBatch, MaxBatchDelay: 500 * time.Millisecond, RTO: time.Second, MaxRetries: 3}
		client := NewPeer(net.MustAddNode("client"), opts)
		server := NewPeer(net.MustAddNode("server"), opts)
		defer client.Close()
		defer server.Close()
		server.SetDispatcher(func(string) (Handler, bool) { return echoHandler, true })
		s := client.Agent("a").Stream("server", "g")
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		ps := make([]Pending, 0, n)
		for i := 0; i < n; i++ {
			var (
				p   Pending
				err error
			)
			switch mode {
			case ModeRPC:
				_, err = s.RPC(ctx, "echo", []byte{byte(i)})
			case ModeSend:
				p, err = s.Send("echo", []byte{byte(i)})
			default:
				p, err = s.Call("echo", []byte{byte(i)})
			}
			if err != nil {
				panic(err)
			}
			if mode != ModeRPC {
				ps = append(ps, p)
			}
		}
		s.Flush()
		for _, p := range ps {
			if _, err := p.Wait(ctx); err != nil {
				panic(err)
			}
		}
		return net.Stats()
	}
	unbatched := run(ModeCall, 1).MessagesSent
	calls := run(ModeCall, 32)
	if calls.MessagesSent >= unbatched {
		t.Errorf("batched run used %d messages, unbatched %d; batching should reduce messages", calls.MessagesSent, unbatched)
	}
	// §2, sends < stream calls < RPCs. An RPC cannot share a message with
	// its neighbours; a send's normal reply is omitted, but the progress
	// ack that resolves it is a message too (one per receiver tick, so
	// their number varies), so what sends save is counted in bytes.
	sends, rpcs := run(ModeSend, 32), run(ModeRPC, 32)
	if calls.MessagesSent >= rpcs.MessagesSent || sends.MessagesSent >= rpcs.MessagesSent {
		t.Errorf("messages for %d ops: sends %d, stream calls %d, RPCs %d; want both below RPCs",
			n, sends.MessagesSent, calls.MessagesSent, rpcs.MessagesSent)
	}
	if sends.BytesSent >= calls.BytesSent {
		t.Errorf("bytes for %d ops: sends %d, stream calls %d; sends omit the replies", n, sends.BytesSent, calls.BytesSent)
	}
}

func TestLocalBreakResolvesOutstanding(t *testing.T) {
	opts := fastOpts()
	opts.MaxBatchDelay = 10 * time.Second
	opts.MaxBatch = 1000
	f := newFixture(t, simnet.Config{}, opts)
	f.handle("echo", echoHandler)
	s := f.client.Agent("a1").Stream("server", "g1")
	ps := make([]Pending, 5)
	for i := range ps {
		p, err := s.Call("echo", nil)
		if err != nil {
			t.Fatal(err)
		}
		ps[i] = p
	}
	s.Break(exception.Unavailable("operator break"))
	for _, p := range ps {
		o := claim(t, p)
		if o.Normal || o.Exception != exception.NameUnavailable {
			t.Errorf("outcome = %+v", o)
		}
	}
	// Calls on a broken (unrestarted) stream fail with no pending created.
	if _, err := s.Call("echo", nil); err == nil {
		t.Error("Call on broken stream should fail")
	}
	if !s.Broken() {
		t.Error("Broken() = false")
	}
}

func TestRestartReincarnatesStream(t *testing.T) {
	f := newFixture(t, simnet.Config{}, fastOpts())
	f.handle("echo", echoHandler)
	s := f.client.Agent("a1").Stream("server", "g1")
	if _, err := s.Call("echo", []byte("pre")); err != nil {
		t.Fatal(err)
	}
	inc1 := s.Incarnation()
	s.Break(exception.Unavailable("x"))
	s.Restart()
	if s.Broken() {
		t.Fatal("stream still broken after Restart")
	}
	if s.Incarnation() != inc1+1 {
		t.Errorf("incarnation = %d, want %d", s.Incarnation(), inc1+1)
	}
	p, err := s.Call("echo", []byte("post"))
	if err != nil {
		t.Fatalf("Call after restart: %v", err)
	}
	o := claim(t, p)
	if !o.Normal || string(o.Payload) != "post" {
		t.Errorf("outcome = %+v", o)
	}
}

func TestRetryExhaustionBreaksStream(t *testing.T) {
	f := newFixture(t, simnet.Config{}, fastOpts())
	f.handle("echo", echoHandler)
	f.net.Partition("client", "server")
	s := f.client.Agent("a1").Stream("server", "g1")
	p, err := s.Call("echo", nil)
	if err != nil {
		t.Fatal(err)
	}
	s.Flush()
	o := claim(t, p) // resolves once retries exhaust
	if o.Normal || o.Exception != exception.NameUnavailable {
		t.Errorf("outcome = %+v", o)
	}
	// AutoRestart: after the partition heals, the stream works again on a
	// new incarnation.
	f.net.HealAll()
	p2, err := s.Call("echo", []byte("back"))
	if err != nil {
		t.Fatalf("Call after auto-restart: %v", err)
	}
	o2 := claim(t, p2)
	if !o2.Normal || string(o2.Payload) != "back" {
		t.Errorf("outcome after heal = %+v", o2)
	}
}

func TestReceiverSynchronousBreak(t *testing.T) {
	f := newFixture(t, simnet.Config{}, fastOpts())
	requireBrokenAtTwo(t, breakingSteps(t, f))
}

func TestLossRecoveryExactlyOnceInOrder(t *testing.T) {
	var mu sync.Mutex
	var order []byte
	counts := make(map[byte]int)
	f := newFixture(t, simnet.Config{LossRate: 0.15, Jitter: 200 * time.Microsecond, Seed: 21}, fastOpts())
	f.handle("rec", func(call *Incoming) Outcome {
		mu.Lock()
		order = append(order, call.Args[0])
		counts[call.Args[0]]++
		mu.Unlock()
		return NormalOutcome(call.Args)
	})
	s := f.client.Agent("a1").Stream("server", "g1")
	const n = 120
	ps := make([]Pending, n)
	for i := range ps {
		p, err := s.Call("rec", []byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		ps[i] = p
	}
	s.Flush()
	for i, p := range ps {
		o := claim(t, p)
		if !o.Normal || o.Payload[0] != byte(i) {
			t.Fatalf("call %d outcome = %+v", i, o)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != n {
		t.Fatalf("executed %d calls, want %d", len(order), n)
	}
	for i, b := range order {
		if b != byte(i) {
			t.Fatalf("execution order[%d] = %d", i, b)
		}
	}
	for b, c := range counts {
		if c != 1 {
			t.Errorf("call %d executed %d times", b, c)
		}
	}
}

// TestHeavyLossJitterExactlyOnceInOrder: one datagram in five lost and
// delays jittered well past the propagation time, on the virtual clock —
// retransmission from the unacked set still delivers every call exactly
// once and in order.
func TestHeavyLossJitterExactlyOnceInOrder(t *testing.T) {
	cfg := simnet.Config{
		Seed:        7,
		LossRate:    0.2,
		Propagation: time.Millisecond,
		Jitter:      4 * time.Millisecond,
	}
	f, _ := newVirtualFixture(t, cfg, fastOpts())
	var mu sync.Mutex
	var order []uint64
	f.handle("rec", func(call *Incoming) Outcome {
		mu.Lock()
		order = append(order, call.Seq)
		mu.Unlock()
		return NormalOutcome(call.Args)
	})
	s := f.client.Agent("a1").Stream("server", "g1")
	const n = 120
	pendings := make([]Pending, 0, n)
	for i := 0; i < n; i++ {
		p, err := s.Call("rec", []byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		pendings = append(pendings, p)
	}
	s.Flush()
	for _, p := range pendings {
		o := claim(t, p)
		if !o.Normal {
			t.Fatalf("seq %d: %+v", p.Seq, o)
		}
		p.Release()
	}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != n {
		t.Fatalf("executed %d calls, want %d (exactly-once violated)", len(order), n)
	}
	for i, seq := range order {
		if seq != uint64(i+1) {
			t.Fatalf("order[%d] = %d, want %d", i, seq, i+1)
		}
	}
}

func TestDifferentAgentsUseDifferentStreams(t *testing.T) {
	// A slow call on agent a1's stream must not delay agent a2's call.
	release := make(chan struct{})
	var started atomic.Int64
	f := newFixture(t, simnet.Config{}, fastOpts())
	f.handle("slow", func(*Incoming) Outcome {
		started.Add(1)
		<-release
		return NormalOutcome(nil)
	})
	f.handle("fast", echoHandler)
	s1 := f.client.Agent("a1").Stream("server", "g1")
	s2 := f.client.Agent("a2").Stream("server", "g1")
	pSlow, err := s1.Call("slow", nil)
	if err != nil {
		t.Fatal(err)
	}
	s1.Flush()
	// Wait for slow to start executing.
	for started.Load() == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	pFast, err := s2.Call("fast", nil)
	if err != nil {
		t.Fatal(err)
	}
	s2.Flush()
	o := claim(t, pFast) // completes while slow is still blocked
	if !o.Normal {
		t.Errorf("fast = %+v", o)
	}
	close(release)
	claim(t, pSlow)
}

func TestSameStreamCallsAreSerial(t *testing.T) {
	var inHandler atomic.Int64
	var maxConcurrent atomic.Int64
	f := newFixture(t, simnet.Config{}, fastOpts())
	f.handle("serial", func(*Incoming) Outcome {
		cur := inHandler.Add(1)
		if cur > maxConcurrent.Load() {
			maxConcurrent.Store(cur)
		}
		time.Sleep(time.Millisecond)
		inHandler.Add(-1)
		return NormalOutcome(nil)
	})
	s := f.client.Agent("a1").Stream("server", "g1")
	ps := make([]Pending, 10)
	for i := range ps {
		p, err := s.Call("serial", nil)
		if err != nil {
			t.Fatal(err)
		}
		ps[i] = p
	}
	s.Flush()
	for _, p := range ps {
		claim(t, p)
	}
	if maxConcurrent.Load() != 1 {
		t.Errorf("max concurrent executions on one stream = %d, want 1", maxConcurrent.Load())
	}
}

func TestServerCrashBreaksThenRecoverWorks(t *testing.T) {
	f := newFixture(t, simnet.Config{}, fastOpts())
	var executed atomic.Int64
	f.handle("echo", func(call *Incoming) Outcome {
		executed.Add(1)
		return NormalOutcome(call.Args)
	})
	s := f.client.Agent("a1").Stream("server", "g1")
	p, err := s.Call("echo", []byte("pre"))
	if err != nil {
		t.Fatal(err)
	}
	claim(t, p)

	f.server.Crash()
	p2, err := s.Call("echo", []byte("during"))
	if err != nil {
		t.Fatal(err)
	}
	s.Flush()
	o := claim(t, p2)
	if o.Normal {
		t.Errorf("call during crash = %+v", o)
	}

	f.server.Recover()
	p3, err := s.Call("echo", []byte("post"))
	if err != nil {
		t.Fatalf("Call after recover: %v", err)
	}
	o3 := claim(t, p3)
	if !o3.Normal || string(o3.Payload) != "post" {
		t.Errorf("call after recover = %+v", o3)
	}
}

func TestPendingWaitContextCancel(t *testing.T) {
	p := newPending(1, ModeCall, nil, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.Wait(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("Wait = %v", err)
	}
	if p.Ready() {
		t.Error("unresolved pending reports ready")
	}
}

func TestOutcomeRoundTrip(t *testing.T) {
	enc, _ := wire.Marshal(3.5, "avg")
	o := NormalOutcome(enc)
	res, err := o.Results()
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != 3.5 || res[1] != "avg" {
		t.Errorf("results = %v", res)
	}
	if o.Err() != nil {
		t.Error("normal outcome has non-nil Err")
	}

	eo := ExceptionOutcome(exception.New("e1", int64(7), "ctx"))
	if _, err := eo.Results(); err == nil {
		t.Error("Results on exceptional outcome should error")
	}
	ex := eo.Err()
	if ex.Name != "e1" {
		t.Errorf("name = %q", ex.Name)
	}
	if v, _ := ex.Arg(0); v != int64(7) {
		t.Errorf("arg0 = %v", v)
	}
	if ex.StringArg(1) != "ctx" {
		t.Errorf("arg1 = %v", ex.Args[1])
	}
}

func TestOutcomeWithUnencodableExceptionArgs(t *testing.T) {
	type opaque struct{}
	eo := ExceptionOutcome(exception.New("e1", opaque{}))
	if eo.Normal {
		t.Fatal("should be exceptional")
	}
	if eo.Exception != exception.NameFailure {
		t.Errorf("degraded exception = %q, want failure", eo.Exception)
	}
}

func TestMessageCodecRoundTrip(t *testing.T) {
	rb := requestBatch{
		Agent: "a", Group: "g", Incarnation: 3, AckRepliesThrough: 17,
		Requests: []request{
			{Seq: 18, Port: "p1", Mode: ModeCall, Args: []byte{1, 2}},
			{Seq: 19, Port: "p2", Mode: ModeSend, Args: []byte{}},
		},
	}
	kind, got, _, _, err := decodeMessage(encodeRequestBatch(rb, nil))
	if err != nil || kind != kindRequestBatch {
		t.Fatalf("decode: kind=%d err=%v", kind, err)
	}
	if got.Agent != "a" || got.Group != "g" || got.Incarnation != 3 || got.AckRepliesThrough != 17 {
		t.Errorf("header = %+v", got)
	}
	if len(got.Requests) != 2 || got.Requests[0].Seq != 18 || got.Requests[1].Mode != ModeSend {
		t.Errorf("requests = %+v", got.Requests)
	}

	pb := replyBatch{
		Agent: "a", Group: "g", Incarnation: 3, AckRequestsThrough: 19, CompletedThrough: 19,
		Replies: []reply{
			{Seq: 18, Outcome: NormalOutcome([]byte{9})},
			{Seq: 19, Outcome: Outcome{Normal: false, Exception: "e", Payload: []byte{}}},
		},
	}
	kind, _, gpb, _, err := decodeMessage(encodeReplyBatch(pb, nil))
	if err != nil || kind != kindReplyBatch {
		t.Fatalf("decode: kind=%d err=%v", kind, err)
	}
	if gpb.CompletedThrough != 19 || len(gpb.Replies) != 2 || gpb.Replies[1].Outcome.Exception != "e" {
		t.Errorf("reply batch = %+v", gpb)
	}

	bm := breakMsg{Agent: "a", Group: "g", Incarnation: 3, ExcName: "failure", Reason: "why"}
	kind, _, _, gbm, err := decodeMessage(encodeBreak(bm))
	if err != nil || kind != kindBreak {
		t.Fatalf("decode: kind=%d err=%v", kind, err)
	}
	if *gbm != bm {
		t.Errorf("break = %+v, want %+v", *gbm, bm)
	}
}

func TestDecodeMessageRejectsGarbage(t *testing.T) {
	if _, _, _, _, err := decodeMessage([]byte{0xff, 0xfe}); err == nil {
		t.Error("garbage accepted")
	}
	// Valid wire data but wrong shape.
	b, _ := wire.Marshal(int64(99))
	if _, _, _, _, err := decodeMessage(b); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestModeString(t *testing.T) {
	for m, want := range map[Mode]string{ModeCall: "call", ModeSend: "send", ModeRPC: "rpc", Mode(9): "mode(9)"} {
		if m.String() != want {
			t.Errorf("Mode(%d).String() = %q", int(m), m.String())
		}
	}
}

func TestHandlersOnSameGroupShareStream(t *testing.T) {
	// Two ports in one group called by one agent: strictly ordered.
	var mu sync.Mutex
	var order []string
	f := newFixture(t, simnet.Config{}, fastOpts())
	rec := func(name string) Handler {
		return func(*Incoming) Outcome {
			mu.Lock()
			order = append(order, name)
			mu.Unlock()
			return NormalOutcome(nil)
		}
	}
	f.handle("first", rec("first"))
	f.handle("second", rec("second"))
	s := f.client.Agent("a1").Stream("server", "g1")
	var last Pending
	for i := 0; i < 10; i++ {
		p1, err := s.Call("first", nil)
		if err != nil {
			t.Fatal(err)
		}
		p2, err := s.Call("second", nil)
		if err != nil {
			t.Fatal(err)
		}
		_, last = p1, p2
	}
	s.Flush()
	claim(t, last)
	mu.Lock()
	defer mu.Unlock()
	for i := 0; i+1 < len(order); i += 2 {
		if order[i] != "first" || order[i+1] != "second" {
			t.Fatalf("order[%d:%d] = %v", i, i+2, order[i:i+2])
		}
	}
}

func TestManyCallsStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	f := newFixture(t, simnet.Config{LossRate: 0.02, Jitter: 100 * time.Microsecond, Seed: 77}, fastOpts())
	var sum atomic.Int64
	f.handle("acc", func(call *Incoming) Outcome {
		vals, err := wire.Unmarshal(call.Args)
		if err != nil {
			return ExceptionOutcome(exception.Failure("could not decode"))
		}
		v, _ := wire.IntArg(vals, 0)
		sum.Add(v)
		enc, _ := wire.Marshal(sum.Load())
		return NormalOutcome(enc)
	})
	s := f.client.Agent("a1").Stream("server", "g1")
	const n = 500
	ps := make([]Pending, n)
	want := int64(0)
	for i := range ps {
		want += int64(i)
		enc, _ := wire.Marshal(int64(i))
		p, err := s.Call("acc", enc)
		if err != nil {
			t.Fatal(err)
		}
		ps[i] = p
	}
	s.Flush()
	o := claim(t, ps[n-1])
	res, err := o.Results()
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := wire.AsInt(res[0]); v != want {
		t.Errorf("final sum = %d, want %d (exactly-once violated?)", v, want)
	}
}

func TestStreamKeyString(t *testing.T) {
	k := streamKey{senderNode: "c", agent: "a", recvNode: "s", group: "g"}
	if k.String() != "c/a->s/g" {
		t.Errorf("String = %q", k.String())
	}
}

func TestAgentName(t *testing.T) {
	f := newFixture(t, simnet.Config{}, fastOpts())
	a := f.client.Agent("worker-1")
	if a.Name() != "worker-1" {
		t.Errorf("Name = %q", a.Name())
	}
	if f.client.Agent("worker-1") != a {
		t.Error("Agent should return the same agent for the same name")
	}
	if s := a.Stream("server", "g"); s != a.Stream("server", "g") {
		t.Error("Stream should be cached per key")
	}
	_ = fmt.Sprintf("%v", a)
}
