package stream

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"promises/internal/clock"
	"promises/internal/exception"
	"promises/internal/simnet"
)

// sendTap is a simnet node that shows every stream message it sends to
// pass, which says whether the message goes out or is lost.
type sendTap struct {
	*simnet.Node
	pass func(kind int64, rb *requestBatch, pb *replyBatch) bool
}

func (e sendTap) Send(to string, payload []byte) error {
	kind, rb, pb, _, err := decodeMessage(payload)
	if err != nil {
		return e.Node.Send(to, payload)
	}
	ok := e.pass(kind, rb, pb)
	if rb != nil {
		releaseRequestBatch(rb)
	}
	if pb != nil {
		releaseReplyBatch(pb)
	}
	if !ok {
		return nil
	}
	return e.Node.Send(to, payload)
}

// passAll lets every message through.
func passAll(int64, *requestBatch, *replyBatch) bool { return true }

// newTappedFixture is newVirtualFixture on clk (see autoClock), with each
// peer's own options, and the client's and the server's sends shown to
// the given taps.
func newTappedFixture(t *testing.T, clk *clock.Virtual, clientOpts, serverOpts Options, client, server func(int64, *requestBatch, *replyBatch) bool) *testFixture {
	t.Helper()
	n := simnet.New(simnet.Config{Clock: clk})
	f := &testFixture{net: n, handlers: make(map[string]Handler)}
	f.start(t, sendTap{n.MustAddNode("client"), client}, sendTap{n.MustAddNode("server"), server}, clientOpts, serverOpts)
	return f
}

// carries reports whether a reply batch carries seq's reply.
func carries(pb *replyBatch, seq uint64) bool {
	for _, r := range pb.Replies {
		if r.Seq == seq {
			return true
		}
	}
	return false
}

// firstOnly returns a tap that loses the first message match picks and
// lets every other through.
func firstOnly(match func(int64, *requestBatch, *replyBatch) bool) func(int64, *requestBatch, *replyBatch) bool {
	var lost atomic.Bool
	return func(kind int64, rb *requestBatch, pb *replyBatch) bool {
		return !match(kind, rb, pb) || !lost.CompareAndSwap(false, true)
	}
}

// breakingSteps makes five calls to a handler that breaks the stream at
// call index 2 (seq 3), as the paper's receiver does when a call's
// arguments do not decode, and flushes them.
func breakingSteps(t *testing.T, f *testFixture) []Pending {
	t.Helper()
	f.handle("step", func(call *Incoming) Outcome {
		if call.Args[0] == 2 {
			call.BreakStream(exception.Failure("could not decode"))
			return ExceptionOutcome(exception.Failure("could not decode"))
		}
		return NormalOutcome(call.Args)
	})
	s := f.client.Agent("a1").Stream("server", "g1")
	ps := make([]Pending, 5)
	for i := range ps {
		p, err := s.Call("step", []byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		ps[i] = p
	}
	s.Flush()
	return ps
}

// requireBrokenAtTwo checks breakingSteps' outcomes: calls 0 and 1 are
// unaffected, call 2 fails with its reply, and calls 3 and 4 are lost to
// the break with the handler's reason.
func requireBrokenAtTwo(t *testing.T, ps []Pending) {
	t.Helper()
	for i := 0; i < 2; i++ {
		if o := claim(t, ps[i]); !o.Normal || o.Payload[0] != byte(i) {
			t.Errorf("call %d = %+v, want its own normal reply", i, o)
		}
	}
	for i := 2; i < 5; i++ {
		o := claim(t, ps[i])
		if o.Normal || o.Exception != exception.NameFailure || o.Err().StringArg(0) != "could not decode" {
			t.Errorf("call %d = %+v, want failure(could not decode)", i, o)
		}
	}
}

// TestSynchronousBreakSurvivesLostFinalReplies: the reply batch that
// carries the breaking call's reply is lost. The receiver re-sends it,
// as any unacked reply, and breaks only once the sender has acked it, so
// the calls before the break keep their replies.
func TestSynchronousBreakSurvivesLostFinalReplies(t *testing.T) {
	f := newTappedFixture(t, autoClock(t), fastOpts(), fastOpts(), passAll, firstOnly(func(kind int64, _ *requestBatch, pb *replyBatch) bool {
		return kind == kindReplyBatch && carries(pb, 3)
	}))
	requireBrokenAtTwo(t, breakingSteps(t, f))
}

// TestSynchronousBreakSurvivesLostNotice: the break notice is lost. The
// sender, still waiting on calls 3 and 4, probes, and the broken receiver
// answers with its notice again, so they fail with the handler's reason,
// not with retry exhaustion's.
func TestSynchronousBreakSurvivesLostNotice(t *testing.T) {
	f := newTappedFixture(t, autoClock(t), fastOpts(), fastOpts(), passAll, firstOnly(func(kind int64, _ *requestBatch, _ *replyBatch) bool {
		return kind == kindBreak
	}))
	requireBrokenAtTwo(t, breakingSteps(t, f))
}

// heldHead starts a call to port "hold", whose handler runs until
// release is closed, and then one to "quick", and waits until quick's
// reply is held at the sender behind hold's. Every port is parallel, so
// quick completes while hold runs, and the receiver retains its reply
// until the sender can ack it.
func heldHead(t *testing.T, f *testFixture, hold Handler) (*Stream, Pending, Pending) {
	t.Helper()
	f.server.SetParallelPorts(func(string) bool { return true })
	f.handle("hold", hold)
	f.handle("quick", echoHandler)
	s := f.client.Agent("a1").Stream("server", "g1")
	ph, err := s.Call("hold", nil)
	if err != nil {
		t.Fatal(err)
	}
	pq, err := s.Call("quick", []byte("q"))
	if err != nil {
		t.Fatal(err)
	}
	s.Flush()
	waitFor(t, "quick's reply never reached the sender", func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.heldReplies.has(pq.Seq)
	})
	return s, ph, pq
}

// TestHeldHeadBreaksAfterSenderDies: the receiver's head call is held
// and a later reply is retained behind it when the sender crashes. The
// receiver's re-sends meet silence, and it breaks its stream once they
// run out, as it would with nothing held.
func TestHeldHeadBreaksAfterSenderDies(t *testing.T) {
	opts := fastOpts()
	var brokeAt atomic.Int64 // virtual instant the server sent its notice, in ns
	clk := autoClock(t)
	f := newTappedFixture(t, clk, opts, opts, passAll, func(kind int64, _ *requestBatch, _ *replyBatch) bool {
		if kind == kindBreak {
			brokeAt.CompareAndSwap(0, clk.Now().UnixNano())
		}
		return true
	})
	release := make(chan struct{})
	defer close(release)
	s, _, _ := heldHead(t, f, func(*Incoming) Outcome { <-release; return NormalOutcome(nil) })

	f.client.Crash()
	crashAt := clk.Now()
	waitFor(t, "the receiving stream never broke after its sender died", func() bool { return brokeAt.Load() != 0 })
	if d, bound := time.Duration(brokeAt.Load()-crashAt.UnixNano()), time.Duration(opts.MaxRetries+3)*opts.RTO; d > bound {
		t.Errorf("the receiving stream broke %v after the crash, want at most %v", d, bound)
	}
	f.server.mu.Lock()
	r := f.server.recvs[s.key]
	f.server.mu.Unlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.broken {
		t.Error("the receiver sent a notice but its stream is not broken")
	}
}

// TestHeldHeadLiveSenderKeepsStream: the same held head, with the sender
// alive. It cannot ack the retained reply until the head's arrives, but it
// answers each re-send, so the receiver never counts them toward a break,
// however long the head is held. The sender's RTO is twice the
// receiver's, so a probe of its own never speaks for it.
func TestHeldHeadLiveSenderKeepsStream(t *testing.T) {
	opts := fastOpts()
	slow := opts
	slow.RTO *= 2
	clk := autoClock(t)
	f := newTappedFixture(t, clk, slow, opts, passAll, passAll)
	_, ph, pq := heldHead(t, f, func(*Incoming) Outcome {
		clk.Sleep(time.Duration(6*opts.MaxRetries) * opts.RTO)
		return NormalOutcome([]byte("h"))
	})
	if o := claim(t, ph); !o.Normal || string(o.Payload) != "h" {
		t.Errorf("held call = %+v, want its normal reply", o)
	}
	if o := claim(t, pq); !o.Normal || string(o.Payload) != "q" {
		t.Errorf("quick call = %+v, want its normal reply", o)
	}
}

// TestHeldHeadCostsTwoDatagramsPerRTO: in TestHeldHeadLiveSenderKeepsStream's
// shape, each receiver RTO the head is held costs two datagrams: the
// receiver's re-send of the retained reply and the sender's pure ack of
// it. The pure ack asks nothing, so the receiver does not answer it as it
// answers a probe.
func TestHeldHeadCostsTwoDatagramsPerRTO(t *testing.T) {
	opts := fastOpts()
	slow := opts
	slow.RTO *= 2
	var holding atomic.Bool
	var datagrams, resends atomic.Int64
	count := func(kind int64, _ *requestBatch, pb *replyBatch) bool {
		if holding.Load() {
			datagrams.Add(1)
			if pb != nil && carries(pb, 2) { // quick's retained reply
				resends.Add(1)
			}
		}
		return true
	}
	clk := autoClock(t)
	f := newTappedFixture(t, clk, slow, opts, count, count)
	started := make(chan struct{})
	_, ph, pq := heldHead(t, f, func(*Incoming) Outcome {
		<-started
		clk.Sleep(time.Duration(6*opts.MaxRetries) * opts.RTO)
		holding.Store(false)
		return NormalOutcome([]byte("h"))
	})
	holding.Store(true)
	close(started)
	if o := claim(t, ph); !o.Normal || string(o.Payload) != "h" {
		t.Errorf("held call = %+v, want its normal reply", o)
	}
	if o := claim(t, pq); !o.Normal || string(o.Payload) != "q" {
		t.Errorf("quick call = %+v, want its normal reply", o)
	}
	n, r := datagrams.Load(), resends.Load()
	t.Logf("%d datagrams for %d re-sends of the retained reply", n, r)
	if r < int64(3*opts.MaxRetries) {
		t.Fatalf("%d re-sends while the head was held for %d RTOs", r, 6*opts.MaxRetries)
	}
	if n > 2*r+2 {
		t.Errorf("%d datagrams for %d re-sends of the retained reply, want 2 each", n, r)
	}
}

// TestParallelCallPastBreakPointNeverReplies: every port is parallel. A
// call after the breaking one is already running when the handler breaks
// the stream, and it returns while the sender has not yet acked the
// breaking call's reply, so the stream is not yet broken. Its reply still
// never leaves the receiver, and it fails with the break's reason; the
// calls through the break point resolve normally.
func TestParallelCallPastBreakPointNeverReplies(t *testing.T) {
	opts := fastOpts()
	opts.MaxRetries = 50 // the muted sender must not break the stream by silence
	var mute atomic.Bool // the sender's request batches are lost
	var mu sync.Mutex
	replied := map[uint64]bool{}
	clk := autoClock(t)
	f := newTappedFixture(t, clk, opts, opts,
		func(kind int64, _ *requestBatch, _ *replyBatch) bool { return !mute.Load() },
		func(kind int64, _ *requestBatch, pb *replyBatch) bool {
			if pb != nil {
				mu.Lock()
				for _, r := range pb.Replies {
					replied[r.Seq] = true
				}
				mu.Unlock()
			}
			return true
		})
	f.server.SetParallelPorts(func(string) bool { return true })
	started, release := make(chan struct{}), make(chan struct{})
	f.handle("ok", echoHandler)
	f.handle("brk", func(call *Incoming) Outcome {
		<-started
		call.BreakStream(exception.Failure("could not decode"))
		return NormalOutcome([]byte("b"))
	})
	f.handle("late", func(*Incoming) Outcome {
		close(started)
		<-release
		return NormalOutcome([]byte("l"))
	})
	s := f.client.Agent("a1").Stream("server", "g1")
	var ps []Pending
	for _, port := range []string{"ok", "brk", "late"} {
		p, err := s.Call(port, []byte(port[:1]))
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
	}
	s.Flush()
	mute.Store(true)
	for i, want := range []string{"o", "b"} {
		if o := claim(t, ps[i]); !o.Normal || string(o.Payload) != want {
			t.Errorf("call %d = %+v, want its normal reply", i, o)
		}
	}
	close(release)
	clk.Sleep(3 * opts.RTO) // late completes, and a reply would be flushed
	mu.Lock()
	if replied[3] {
		t.Error("the call past the break point sent its reply")
	}
	mu.Unlock()
	mute.Store(false)
	if o := claim(t, ps[2]); o.Normal || o.Exception != exception.NameFailure || o.Err().StringArg(0) != "could not decode" {
		t.Errorf("call 2 = %+v, want the break's failure(could not decode)", o)
	}
}
