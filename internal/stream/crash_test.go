package stream

import (
	"context"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"promises/internal/exception"
	"promises/internal/simnet"
	"promises/internal/wire"
)

// TestCrashAfterAckBreaksViaProbe covers the hardest crash case: the
// receiver acknowledges the requests (so the sender has nothing to
// retransmit) and then crashes before replying. The sender must detect
// the silence with probes and break the stream instead of waiting
// forever.
func TestCrashAfterAckBreaksViaProbe(t *testing.T) {
	f, clk := newVirtualFixture(t, simnet.Config{}, fastOpts())
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	f.handle("slow", func(call *Incoming) Outcome {
		select {
		case started <- struct{}{}:
		default:
		}
		<-release
		return NormalOutcome(nil)
	})
	defer close(release)

	s := f.client.Agent("a1").Stream("server", "g1")
	p, err := s.Call("slow", nil)
	if err != nil {
		t.Fatal(err)
	}
	s.Flush()
	<-started // the receiver has the request and is executing it

	// Give the ack (in a reply-progress batch) time to reach the sender,
	// then kill the server. Nothing is in the sender's retransmission
	// queue any more. Virtual milliseconds: auto-advance runs them off
	// in microseconds of real time.
	clk.Sleep(5 * time.Millisecond)
	f.server.Crash()

	o := claim(t, p)
	if o.Normal || o.Exception != exception.NameUnavailable {
		t.Fatalf("outcome = %+v, want unavailable", o)
	}
}

// TestReceiverRecoveryDetectedByEpoch covers crash + fast recovery: the
// recovered receiver answers probes, but with a different boot epoch, so
// the sender learns its calls were lost and breaks promptly rather than
// waiting on a receiver that will never reply to them. The sender knows
// the old epoch because the receiver acknowledges a request whose handler
// is still running (rstream.fire); without that the first epoch it saw
// would be the newcomer's, and the call would run a second time.
func TestReceiverRecoveryDetectedByEpoch(t *testing.T) {
	f, clk := newVirtualFixture(t, simnet.Config{}, fastOpts())
	started := make(chan struct{}, 4)
	release := make(chan struct{})
	f.handle("slow", func(call *Incoming) Outcome {
		started <- struct{}{}
		select {
		case <-release:
		case <-clk.After(5 * time.Second):
		}
		return NormalOutcome(nil)
	})
	defer close(release)

	s := f.client.Agent("a1").Stream("server", "g1")
	p, err := s.Call("slow", nil)
	if err != nil {
		t.Fatal(err)
	}
	s.Flush()
	<-started
	clk.Sleep(5 * time.Millisecond) // let the ack land
	f.server.Crash()
	f.server.Recover() // back up immediately, with fresh stream state

	start := clk.Now()
	o := claim(t, p)
	if o.Normal || o.Exception != exception.NameUnavailable {
		t.Fatalf("outcome = %+v, want unavailable", o)
	}
	// Detection must come from the epoch mismatch (an answered probe), in
	// roughly one RTO — far sooner than full probe-retry exhaustion, which
	// would say "cannot communicate" and is how a receiver that stayed
	// deaf after recovering would be found.
	if reason := o.Err().StringArg(0); reason != "receiver lost stream state" {
		t.Fatalf("stream broke with %q, want the epoch check's reason", reason)
	}
	exhaustion := time.Duration(fastOpts().MaxRetries+1) * fastOpts().RTO
	if elapsed := clk.Now().Sub(start); elapsed > exhaustion {
		t.Fatalf("detection took %v; epoch check should beat probe exhaustion (%v)", elapsed, exhaustion)
	}
	// The old incarnation acknowledged the call before it crashed, so the
	// sender never handed it to the new one.
	if n := len(started); n != 0 {
		t.Fatalf("the call was started %d more time(s) by the recovered receiver", n)
	}
}

// TestRecreatedReceiverAnswersRequestsPastGap: the receiver acks and
// answers call 1, then crashes and recovers with fresh stream state. Call
// 2's batch, which acks call 1's reply, reaches an end that has accepted
// nothing: past a gap the sender will never fill, since call 1 was acked.
// The end answers all the same, with its epoch, so the sender breaks at
// once for the epoch check's reason instead of re-sending into silence
// until its retries run out.
func TestRecreatedReceiverAnswersRequestsPastGap(t *testing.T) {
	opts := fastOpts()
	f, clk := newVirtualFixture(t, simnet.Config{}, opts)
	f.handle("echo", echoHandler)
	s := f.client.Agent("a1").Stream("server", "g1")
	if _, err := s.RPC(context.Background(), "echo", nil); err != nil {
		t.Fatal(err)
	}
	f.server.Crash()
	f.server.Recover()

	p, err := s.Call("echo", nil)
	if err != nil {
		t.Fatal(err)
	}
	start := clk.Now()
	s.Flush()
	o := claim(t, p)
	if o.Normal || o.Exception != exception.NameUnavailable {
		t.Fatalf("outcome = %+v, want unavailable", o)
	}
	if reason := o.Err().StringArg(0); reason != "receiver lost stream state" {
		t.Fatalf("stream broke with %q, want the epoch check's reason", reason)
	}
	if elapsed := clk.Now().Sub(start); elapsed >= f.client.rtoFloor {
		t.Fatalf("the break took %v, want it before any retransmission (the least timeout is %v)", elapsed, f.client.rtoFloor)
	}
}

// TestProbeDoesNotBreakSlowReceiver: a receiver that is merely slow —
// alive, answering probes, just not finished — must NOT be broken by the
// probe machinery, no matter how many probe intervals pass.
func TestProbeDoesNotBreakSlowReceiver(t *testing.T) {
	opts := fastOpts() // RTO 10ms, MaxRetries 4 => exhaustion at ~50ms
	f, clk := newVirtualFixture(t, simnet.Config{}, opts)
	f.handle("slow", func(call *Incoming) Outcome {
		clk.Sleep(150 * time.Millisecond) // >> probe exhaustion window
		return NormalOutcome([]byte("done"))
	})
	s := f.client.Agent("a1").Stream("server", "g1")
	p, err := s.Call("slow", nil)
	if err != nil {
		t.Fatal(err)
	}
	s.Flush()
	o := claim(t, p)
	if !o.Normal || string(o.Payload) != "done" {
		t.Fatalf("outcome = %+v; slow receiver must not be broken", o)
	}
}

// TestSendsResolveViaProbeProgress: a send whose progress notification
// was lost still resolves, because probe responses carry
// CompletedThrough.
func TestSendsResolveViaProbeProgress(t *testing.T) {
	var executed atomic.Int32
	f, _ := newVirtualFixture(t, simnet.Config{}, fastOpts())
	f.handle("note", func(call *Incoming) Outcome {
		executed.Add(1)
		return NormalOutcome(nil)
	})
	s := f.client.Agent("a1").Stream("server", "g1")
	p, err := s.Send("note", []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	s.Flush()
	o := claim(t, p)
	if !o.Normal {
		t.Fatalf("outcome = %+v", o)
	}
	if executed.Load() != 1 {
		t.Fatalf("executed %d times", executed.Load())
	}
}

// TestRestartAfterManualBreak exercises the explicit Break/Restart cycle:
// no auto-restart after an explicit break, then Restart reincarnates.
func TestRestartAfterManualBreak(t *testing.T) {
	f := newFixture(t, simnet.Config{}, fastOpts())
	f.handle("echo", echoHandler)
	s := f.client.Agent("a1").Stream("server", "g1")

	inc1 := s.Incarnation()
	s.Break(exception.Unavailable("operator"))
	if !s.Broken() {
		t.Fatal("stream should be broken after explicit Break")
	}
	if _, err := s.Call("echo", nil); err == nil {
		t.Fatal("Call on explicitly broken stream should fail")
	}
	s.Restart()
	if s.Broken() {
		t.Fatal("stream should be usable after Restart")
	}
	if s.Incarnation() <= inc1 {
		t.Fatalf("incarnation %d not bumped from %d", s.Incarnation(), inc1)
	}
	p, err := s.Call("echo", []byte("alive"))
	if err != nil {
		t.Fatal(err)
	}
	if o := claim(t, p); !o.Normal || string(o.Payload) != "alive" {
		t.Fatalf("outcome = %+v", o)
	}
}

// TestRestartOnHealthyStreamBreaksFirst: Restart on a healthy stream is
// "equivalent to a break done by the system at the sender at that
// moment, followed by the reincarnation."
func TestRestartOnHealthyStreamBreaksFirst(t *testing.T) {
	f := newFixture(t, simnet.Config{}, fastOpts())
	started := make(chan struct{})
	release := make(chan struct{})
	f.handle("slow", func(call *Incoming) Outcome {
		close(started)
		<-release
		return NormalOutcome(nil)
	})
	defer close(release)
	s := f.client.Agent("a1").Stream("server", "g1")
	p, err := s.Call("slow", nil)
	if err != nil {
		t.Fatal(err)
	}
	s.Flush()
	<-started
	s.Restart()
	o := claim(t, p)
	if o.Normal || o.Exception != exception.NameUnavailable {
		t.Fatalf("outcome = %+v; restart must resolve outstanding calls", o)
	}
	if s.Broken() {
		t.Fatal("stream should be usable after Restart")
	}
}

// TestCloseDoesNotHangWithInFlightTraffic is the regression test for a
// shutdown race: a request batch arriving concurrently with Close used
// to register a fresh receiving stream whose goroutine nothing would ever
// stop, deadlocking Peer.Close in wg.Wait.
func TestCloseDoesNotHangWithInFlightTraffic(t *testing.T) {
	for i := 0; i < 30; i++ {
		n := simnet.New(simnet.Config{})
		opts := fastOpts()
		server := NewPeer(n.MustAddNode("server"), opts)
		client := NewPeer(n.MustAddNode("client"), opts)
		server.SetDispatcher(func(string) (Handler, bool) { return echoHandler, true })
		s := client.Agent("a").Stream("server", "g")
		for j := 0; j < 8; j++ {
			if _, err := s.Call("echo", []byte{byte(j)}); err != nil {
				t.Fatal(err)
			}
		}
		s.Flush()
		// Close the server while requests may still be arriving.
		done := make(chan struct{})
		go func() {
			server.Close()
			client.Close()
			n.Close()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("iteration %d: Close hung", i)
		}
	}
}

// TestEpochsEncodeAtOneWidth: whatever a process draws at boot, the
// epochs it issues are nonzero, unique and encode at one width, so the
// bytes of a reply batch, which carries one, do not depend on the draw.
func TestEpochsEncodeAtOneWidth(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	draws := []uint64{0, math.MaxUint64}
	for i := 0; i < 10000; i++ {
		draws = append(draws, rng.Uint64())
	}
	width := wire.SizeInt(int64(nextEpoch()))
	for _, x := range draws {
		seen := make(map[uint64]bool)
		for e := epochSeed(x) + 1; e <= epochSeed(x)+64; e++ {
			if e == 0 || seen[e] {
				t.Fatalf("draw %#x: epoch %#x is zero or repeated", x, e)
			}
			seen[e] = true
			if got := wire.SizeInt(int64(e)); got != width {
				t.Fatalf("draw %#x: epoch %#x encodes in %d bytes, others in %d", x, e, got, width)
			}
		}
	}
}

// TestClosedReceiverSendsNoReply: a handler is blocked on a downstream
// RPC when its peer closes. Closing breaks the peer's sending streams,
// which hands the handler the peer's own "peer shut down", but its
// receiving streams are closed first, so that never goes out as a reply:
// the caller learns what its stream detects, that the peer is gone.
func TestClosedReceiverSendsNoReply(t *testing.T) {
	n := simnet.New(simnet.Config{})
	defer n.Close()
	caller := NewPeer(n.MustAddNode("caller"), fastOpts())
	defer caller.Close()
	tap := &epochTap{Node: n.MustAddNode("mid"), epochs: make(map[uint64]int)}
	mid := NewPeer(tap, fastOpts())
	defer mid.Close()
	down := NewPeer(n.MustAddNode("down"), fastOpts())
	defer down.Close()

	entered, release := make(chan struct{}), make(chan struct{})
	defer close(release)
	down.SetDispatcher(func(string) (Handler, bool) {
		return func(*Incoming) Outcome {
			close(entered)
			<-release
			return NormalOutcome(nil)
		}, true
	})
	mid.SetDispatcher(func(string) (Handler, bool) {
		return func(*Incoming) Outcome {
			o, err := mid.Agent("relay").Stream("down", "g1").RPC(context.Background(), "block", nil)
			if err != nil {
				return ExceptionOutcome(err.(*exception.Exception))
			}
			return o
		}, true
	})

	s := caller.Agent("a1").Stream("mid", "g1")
	p, err := s.Issue(context.Background(), Req{Mode: ModeRPC, Port: "relay"})
	if err != nil {
		t.Fatal(err)
	}
	<-entered
	waitFor(t, "mid never acknowledged the call", func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.lane.items) == 0
	})
	mid.mu.Lock()
	r := mid.recvs[s.key]
	mid.mu.Unlock()
	tap.sent(r.epoch) // what went out before Close: the receipt

	mid.Close() // returns once the handler has returned
	if n := tap.sent(r.epoch); n != 0 {
		t.Fatalf("the closing peer sent %d reply batches", n)
	}
	if o := claim(t, p); o.Normal || o.Exception != exception.NameUnavailable || o.Err().StringArg(0) != "cannot communicate" {
		t.Fatalf("caller's claim = %+v, want unavailable(cannot communicate)", o)
	}
}
