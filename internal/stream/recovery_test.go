package stream

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"promises/internal/clock"
	"promises/internal/metrics"
	"promises/internal/simnet"
)

// reportOpts fill a batch at 8 calls, so a burst of calls leaves in full
// batches at once, while the retransmission floor (MaxBatchDelay and a
// tick) is 15 ms and the ceiling 200 ms: on a zero-cost virtual network a
// batch re-sent well inside the floor was re-sent on a report or an ack,
// not by the timer.
func reportOpts() Options {
	return Options{MaxBatch: 8, MaxBatchDelay: 10 * time.Millisecond, RTO: 200 * time.Millisecond, MaxRetries: 4}
}

// reportFloor is the least retransmission timeout under reportOpts.
const reportFloor = 15 * time.Millisecond

// burstAfterWarmUp runs four bursts of 8 echo calls on a zero-cost
// network on clk (see autoClock), so both lanes measure their round trip,
// then arms the taps and times a burst of n calls, n a multiple of 8, from
// the first call's enqueue to the last one's claim. The taps see every
// message, and armed says whether the timed burst has begun. Its first
// call is seq 33.
func burstAfterWarmUp(t *testing.T, clk *clock.Virtual, n int, client, server func(armed bool, kind int64, rb *requestBatch, pb *replyBatch) bool) time.Duration {
	t.Helper()
	var armed atomic.Bool
	f := newTappedFixture(t, clk, reportOpts(), reportOpts(),
		func(kind int64, rb *requestBatch, pb *replyBatch) bool { return client(armed.Load(), kind, rb, pb) },
		func(kind int64, rb *requestBatch, pb *replyBatch) bool { return server(armed.Load(), kind, rb, pb) })
	f.handle("echo", echoHandler)
	s := f.client.Agent("a1").Stream("server", "g1")
	burst := func(n int) {
		ps := make([]Pending, n)
		for i := range ps {
			p, err := s.Call("echo", []byte{byte(i)})
			if err != nil {
				t.Fatal(err)
			}
			ps[i] = p
		}
		for i, p := range ps {
			if o := claim(t, p); !o.Normal || len(o.Payload) != 1 || o.Payload[0] != byte(i) {
				t.Fatalf("call %d of the burst = %+v, want its echo", i, o)
			}
		}
	}
	for i := 0; i < 4; i++ {
		burst(8)
		clk.Sleep(3 * reportFloor) // the pure ack goes out
	}
	armed.Store(true)
	start := clk.Now()
	burst(n)
	return clk.Now().Sub(start)
}

// burstBase is the seq before the timed burst's first call.
const burstBase = 32

// loseFirst returns a tap that, once armed, loses the first message match
// picks and lets every other through.
func loseFirst(match func(kind int64, rb *requestBatch, pb *replyBatch) bool) func(bool, int64, *requestBatch, *replyBatch) bool {
	tap := firstOnly(match)
	return func(armed bool, kind int64, rb *requestBatch, pb *replyBatch) bool {
		return !armed || tap(kind, rb, pb)
	}
}

func passArmed(bool, int64, *requestBatch, *replyBatch) bool { return true }

// TestLostMidWindowRequestBatchResentOnReport: the second of four request
// batches is lost. The receiver holds the two behind it, reports how far
// past its ack it holds, and the sender re-sends the hole at once, so the
// burst comes back well inside the retransmission floor, where the timer
// would first have re-sent it.
func TestLostMidWindowRequestBatchResentOnReport(t *testing.T) {
	took := burstAfterWarmUp(t, autoClock(t), 32, loseFirst(func(_ int64, rb *requestBatch, _ *replyBatch) bool {
		return rb != nil && len(rb.Requests) > 0 && rb.Requests[0].Seq == burstBase+9
	}), passArmed)
	t.Logf("the burst took %v through its lost request batch", took)
	if took >= reportFloor {
		t.Errorf("the burst took %v through a lost mid-window request batch, want it re-sent on the receiver's report, inside the %v floor", took, reportFloor)
	}
}

// TestLostMidWindowReplyBatchResentOnReport is its twin for the second of
// four reply batches: the sender holds the replies behind it and reports
// them, and the receiver re-sends the hole.
func TestLostMidWindowReplyBatchResentOnReport(t *testing.T) {
	took := burstAfterWarmUp(t, autoClock(t), 32, passArmed, loseFirst(func(_ int64, _ *requestBatch, pb *replyBatch) bool {
		return pb != nil && carries(pb, burstBase+9)
	}))
	t.Logf("the burst took %v through its lost reply batch", took)
	if took >= reportFloor {
		t.Errorf("the burst took %v through a lost mid-window reply batch, want it re-sent on the sender's report, inside the %v floor", took, reportFloor)
	}
}

// TestSecondHoleResentOnPartialAck: both request batches of a burst are
// lost, and nothing is sent behind them, so no report can come. The timer
// re-sends the head; its ack stops short of what was sent before the
// timeout, and the second batch is re-sent at once, not a doubled timeout
// later.
func TestSecondHoleResentOnPartialAck(t *testing.T) {
	clk := autoClock(t)
	var (
		mu              sync.Mutex
		ackedAt, sentAt time.Time
		sends           = map[uint64]int{} // sends of each request batch, by first seq
	)
	client := func(armed bool, _ int64, rb *requestBatch, _ *replyBatch) bool {
		if !armed || rb == nil || len(rb.Requests) == 0 {
			return true
		}
		mu.Lock()
		defer mu.Unlock()
		first := rb.Requests[0].Seq
		sends[first]++
		if first == burstBase+9 && sends[first] == 2 {
			sentAt = clk.Now()
		}
		return sends[first] > 1 || first != burstBase+1 && first != burstBase+9 // both first sends are lost
	}
	server := func(armed bool, _ int64, _ *requestBatch, pb *replyBatch) bool {
		if armed && pb != nil && pb.AckRequestsThrough >= burstBase+8 {
			mu.Lock()
			if ackedAt.IsZero() {
				ackedAt = clk.Now()
			}
			mu.Unlock()
		}
		return true
	}
	took := burstAfterWarmUp(t, clk, 16, client, server)
	mu.Lock()
	defer mu.Unlock()
	t.Logf("the burst took %v; the head's ack went out at %v, the second batch's re-send at %v", took, ackedAt, sentAt)
	if ackedAt.IsZero() || sentAt.IsZero() {
		t.Fatalf("the head's ack (%v) or the second batch's re-send (%v) was never seen", ackedAt, sentAt)
	}
	if gap := sentAt.Sub(ackedAt); gap >= reportFloor {
		t.Errorf("the second batch was re-sent %v after the ack of the first, want at once (inside the %v floor)", gap, reportFloor)
	}
}

// TestRunningHeadHoldsRepliesWithoutResend: every port is parallel, and
// the head call runs 60 ms while the seven calls behind it complete and
// their replies are retained and sent. The sender cannot ack them until
// the head's reply comes, so nothing was lost: the reply lane re-sends
// none of them before the head completes, though its measured timeout is
// 1.5 ms. (Re-sends that ask after a silent sender wait Options.RTO, 200
// ms here.)
func TestRunningHeadHoldsRepliesWithoutResend(t *testing.T) {
	opts := Options{MaxBatch: 8, MaxBatchDelay: time.Millisecond, RTO: 200 * time.Millisecond, MaxRetries: 4}
	var (
		holding atomic.Bool
		mu      sync.Mutex
		carried = map[uint64]int{}
		resends int
	)
	count := func(_ int64, _ *requestBatch, pb *replyBatch) bool {
		if pb != nil && holding.Load() {
			mu.Lock()
			for _, r := range pb.Replies {
				if carried[r.Seq]++; carried[r.Seq] > 1 {
					resends++
				}
			}
			mu.Unlock()
		}
		return true
	}
	clk := autoClock(t)
	f := newTappedFixture(t, clk, opts, opts, passAll, count)
	f.server.SetParallelPorts(func(string) bool { return true })
	f.handle("echo", echoHandler)
	f.handle("hold", func(*Incoming) Outcome {
		clk.Sleep(60 * time.Millisecond)
		holding.Store(false)
		return NormalOutcome([]byte("h"))
	})
	s := f.client.Agent("a1").Stream("server", "g1")
	for i := 0; i < 8; i++ { // both lanes measure the round trip
		p, err := s.Call("echo", []byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		s.Flush()
		claim(t, p)
		clk.Sleep(5 * time.Millisecond)
	}
	holding.Store(true)
	ph, err := s.Call("hold", nil)
	if err != nil {
		t.Fatal(err)
	}
	ps := []Pending{ph}
	for i := 0; i < 7; i++ {
		p, err := s.Call("echo", []byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
	}
	s.Flush()
	for i, p := range ps {
		if o := claim(t, p); !o.Normal {
			t.Fatalf("call %d = %+v", i, o)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(carried) == 0 {
		t.Fatal("no reply was sent while the head ran")
	}
	if resends != 0 {
		t.Errorf("%d replies were re-sent while the head ran and nothing was lost", resends)
	}
}

// TestJitterWithoutLossResendsNothing: on the benchmark's LAN cost model
// with its 100 µs jitter, which reorders adjacent batches, and no loss,
// 1 024 calls in windows of 64 see no re-send of either kind and no
// duplicate request: a hole that fills within the reorder window is not
// reported.
func TestJitterWithoutLossResendsNothing(t *testing.T) {
	reg := metrics.NewRegistry()
	f, _ := newVirtualFixture(t, simnet.Config{KernelOverhead: 20 * time.Microsecond,
		Propagation: 150 * time.Microsecond, PerByte: 10 * time.Nanosecond,
		Jitter: 100 * time.Microsecond, Seed: 1}, Options{Metrics: reg})
	f.handle("echo", echoHandler)
	s := f.client.Agent("a1").Stream("server", "g1")
	for w := 0; w < 16; w++ {
		ps := make([]Pending, 64)
		for i := range ps {
			p, err := s.Call("echo", []byte{byte(i)})
			if err != nil {
				t.Fatal(err)
			}
			ps[i] = p
		}
		s.Flush()
		for i, p := range ps {
			if o := claim(t, p); !o.Normal || o.Payload[0] != byte(i) {
				t.Fatalf("window %d call %d = %+v", w, i, o)
			}
		}
	}
	for _, name := range []string{"stream_retransmits_total", "stream_reply_retransmits_total",
		"stream_hole_resends_total", "stream_duplicate_requests_total"} {
		if n := reg.Counter(name).Value(); n != 0 {
			t.Errorf("%s = %d over 1 024 calls with no loss", name, n)
		}
	}
	if n := reg.Counter("stream_batches_sent_total").Value(); n < 64 {
		t.Fatalf("only %d request batches sent: the test did not run", n)
	}
}

// rawSender is a hand-written sending end: a node on a frozen virtual
// clock that sends the request batches a test writes to a real receiving
// peer, "server", and reads the reply batches it answers with. No timer
// runs while the clock stands, so the receiver sends only what an arrival
// makes it send.
type rawSender struct {
	t      *testing.T
	node   *simnet.Node
	reg    *metrics.Registry
	server *Peer
}

func newRawSender(t *testing.T, opts Options, h Handler) rawSender {
	t.Helper()
	reg := metrics.NewRegistry()
	opts.Metrics = reg
	n := simnet.New(simnet.Config{Clock: clock.NewVirtual()})
	rs := rawSender{t: t, node: n.MustAddNode("client"), reg: reg, server: NewPeer(n.MustAddNode("server"), opts)}
	rs.server.SetDispatcher(func(string) (Handler, bool) { return h, true })
	t.Cleanup(func() {
		rs.server.Close()
		n.Close()
	})
	return rs
}

// send sends a request batch of incarnation 1 that acks replies through
// ack, probes if probe is not zero, and carries calls seqs, a run, each
// with its seq's low byte for argument.
func (rs rawSender) send(ack, probe uint64, seqs ...uint64) {
	rs.t.Helper()
	b := requestBatch{Agent: "a1", Group: "g1", Incarnation: 1, AckRepliesThrough: ack, Probe: probe}
	for _, q := range seqs {
		b.Requests = append(b.Requests, request{Seq: q, Port: "p", Args: []byte{byte(q)}})
	}
	if err := rs.node.Send("server", encodeRequestBatch(b, nil)); err != nil {
		rs.t.Fatal(err)
	}
}

// recv returns the seqs of the replies the next reply batch carries.
func (rs rawSender) recv() []uint64 {
	rs.t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for {
		msg, err := rs.node.Recv(ctx)
		if err != nil {
			rs.t.Fatalf("no reply batch came: %v", err)
		}
		if _, _, pb, _, err := decodeMessage(msg.Payload); err == nil && pb != nil {
			seqs := []uint64{}
			for _, r := range pb.Replies {
				seqs = append(seqs, r.Seq)
			}
			releaseReplyBatch(pb)
			return seqs
		}
	}
}

// replyResends returns stream_reply_retransmits_total at the receiver.
func (rs rawSender) replyResends() uint64 {
	return rs.reg.Snapshot().Counters["stream_reply_retransmits_total"]
}

// TestStaleDuplicateResendsNothing: a duplicate request arrives while the
// reply lane holds nothing, so there is nothing to re-send, and the
// duplicate is answered with the ack. The calls then complete and their
// replies are sent. A later batch with no duplicate, a pure ack of the
// first reply while the second is in flight, must not re-send the second:
// the duplicate said only that the sender had not seen the ack then.
func TestStaleDuplicateResendsNothing(t *testing.T) {
	gate, open := newGate(t)
	rs := newRawSender(t, Options{MaxBatch: 1}, func(call *Incoming) Outcome {
		if call.Seq == 1 {
			<-gate
		}
		return NormalOutcome(call.Args)
	})
	rs.send(0, 0, 1, 2) // call 1 runs and holds; call 2 waits behind it
	rs.send(0, 0, 1)    // a duplicate with no reply held
	if got := rs.recv(); len(got) != 0 {
		t.Fatalf("the duplicate was answered with replies %v while none was held", got)
	}
	open()
	if got := append(rs.recv(), rs.recv()...); !slices.Equal(got, []uint64{1, 2}) {
		t.Fatalf("the two calls' replies came as %v", got)
	}
	rs.send(1, 0) // the pure ack of reply 1: reply 2 is in flight
	rs.send(1, 3) // a probe, whose answer follows whatever the ack drew
	for got := rs.recv(); len(got) != 0; got = rs.recv() {
		t.Errorf("reply batch re-sent %v after a duplicate-free batch", got)
	}
	if n := rs.replyResends(); n != 0 {
		t.Errorf("stream_reply_retransmits_total = %d, want 0: the duplicate came while nothing was held", n)
	}
}

// TestDuplicateResendsHoleOncePerAck: the receiver has sent three reply
// batches of MaxBatch replies each, and the sender's ack stops at the
// first. A duplicate request re-sends the hole above that ack, at most
// MaxBatch replies from the ack plus one; a second duplicate at the same
// ack re-sends nothing and is answered with the ack alone.
func TestDuplicateResendsHoleOncePerAck(t *testing.T) {
	const maxBatch = 4
	rs := newRawSender(t, Options{MaxBatch: maxBatch}, echoHandler)
	var seqs []uint64
	for q := uint64(1); q <= 3*maxBatch; q++ {
		seqs = append(seqs, q)
	}
	rs.send(0, 0, seqs...)
	var got []uint64
	for len(got) < len(seqs) {
		got = append(got, rs.recv()...)
	}
	if !slices.Equal(got, seqs) {
		t.Fatalf("replies came as %v, want %v", got, seqs)
	}
	rs.send(maxBatch, 0, 1) // a duplicate; the ack covers the first batch
	if got := rs.recv(); !slices.Equal(got, []uint64{5, 6, 7, 8}) {
		t.Errorf("the first duplicate re-sent %v, want the hole above the ack, replies 5-8", got)
	}
	rs.send(maxBatch, 0, 1) // the same duplicate at the same ack
	if got := rs.recv(); len(got) != 0 {
		t.Errorf("the second duplicate at the same ack re-sent %v, want the ack alone", got)
	}
	if n := rs.replyResends(); n != 1 {
		t.Errorf("stream_reply_retransmits_total = %d, want 1", n)
	}
}
