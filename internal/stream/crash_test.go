package stream

import (
	"sync/atomic"
	"testing"
	"time"

	"promises/internal/exception"
	"promises/internal/simnet"
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
// is still running (rstream.tick); without that the first epoch it saw
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
// to register a fresh receiving stream whose executor nothing would ever
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
