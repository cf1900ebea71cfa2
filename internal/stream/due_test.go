package stream

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"promises/internal/clock"
	"promises/internal/simnet"
	"promises/internal/trace"
)

// eventCount is a tracer that only counts what it is told.
type eventCount struct{ n atomic.Int64 }

func (c *eventCount) Record(trace.Event) { c.n.Add(1) }

// stepThrough drives vclk through every deadline up to end, and leaves it
// at end. Before time moves on, each instant's handlers run out: the clock
// has settled and no event has been recorded for 20 ms of real time — a
// peer firing a thousand streams at one instant need not touch the clock
// while it works, so Settle alone could take it for quiet.
func stepThrough(vclk *clock.Virtual, end time.Time, events *eventCount) {
	quiesce := func() {
		for {
			n := events.n.Load()
			vclk.Settle()
			time.Sleep(20 * time.Millisecond)
			if events.n.Load() == n {
				return
			}
		}
	}
	for {
		quiesce()
		dl, ok := vclk.NextDeadline()
		if !ok || dl.After(end) {
			break
		}
		vclk.AdvanceTo(dl)
	}
	vclk.AdvanceTo(end)
	quiesce()
}

// TestIdlePeerArmsNoTimer: a peer with nothing due does nothing. N stream
// pairs over simnet on a virtual clock each make one RPC. One RTO and one
// tick later the pure acks have gone out and the retained replies are
// released, so no timer is registered with the clock at all (the
// network's idle dispatcher holds none either), and ten more seconds
// record no event — whatever N is.
func TestIdlePeerArmsNoTimer(t *testing.T) {
	for _, n := range []int{1, 1000} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			vclk := clock.NewVirtual()
			f := newFixture(t, simnet.Config{Clock: vclk}, Options{})
			f.handle("echo", echoHandler)
			events := &eventCount{}
			f.client.SetTracer(events)
			f.server.SetTracer(events)

			// A zero-cost network delivers at once: the RPCs need no time.
			ctx := context.Background()
			for i := 0; i < n; i++ {
				if _, err := f.client.Agent(fmt.Sprint("a", i)).Stream("server", "g1").RPC(ctx, "echo", nil); err != nil {
					t.Fatal(err)
				}
			}
			opts := f.client.Options()
			tick := min(opts.MaxBatchDelay, opts.RTO) / 2
			stepThrough(vclk, vclk.Now().Add(opts.RTO+tick), events)

			if dl, ok := vclk.NextDeadline(); ok {
				t.Fatalf("a timer is armed for +%v with nothing due", dl.Sub(vclk.Now()))
			}
			if w := vclk.Waiters(); w != 0 {
				t.Fatalf("%d clock waiters with nothing due, want 0", w)
			}
			quiet := events.n.Load()
			stepThrough(vclk, vclk.Now().Add(10*time.Second), events)
			if got := events.n.Load() - quiet; got != 0 {
				t.Fatalf("%d events recorded in 10 idle seconds", got)
			}
		})
	}
}

// epochTap records the boot epoch of every reply batch its peer sends.
type epochTap struct {
	*simnet.Node
	mu     sync.Mutex
	epochs map[uint64]int
}

func (e *epochTap) Send(to string, payload []byte) error {
	if kind, rb, pb, _, err := decodeMessage(payload); err == nil {
		switch kind {
		case kindReplyBatch:
			e.mu.Lock()
			e.epochs[pb.Epoch]++
			e.mu.Unlock()
			releaseReplyBatch(pb)
		case kindRequestBatch:
			releaseRequestBatch(rb)
		}
	}
	return e.Node.Send(to, payload)
}

// sent returns how many reply batches went out with epoch ep, and resets
// the count.
func (e *epochTap) sent(ep uint64) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := e.epochs[ep]
	delete(e.epochs, ep)
	return n
}

// TestCrashRecoverDropsArmedDuties: the server crashes and recovers at
// once while its receiving streams retain unsent replies and are queued
// to send them. The queue still holds their entries, but a dropped stream
// transmits nothing when they come due: its replies carry the crashed
// incarnation's boot epoch, and a sender hearing them from the recovered
// node would break a stream that is talking to the newcomer.
func TestCrashRecoverDropsArmedDuties(t *testing.T) {
	vclk := clock.NewVirtual()
	n := simnet.New(simnet.Config{Clock: vclk})
	t.Cleanup(func() { vclk.SetAutoAdvance(false) })
	tap := &epochTap{Node: n.MustAddNode("server"), epochs: make(map[uint64]int)}
	opts := Options{MaxBatch: 64, MaxBatchDelay: 2 * time.Millisecond, RTO: 10 * time.Millisecond, MaxRetries: 4}
	client := NewPeer(n.MustAddNode("client"), opts)
	server := NewPeer(tap, opts)
	server.SetDispatcher(func(string) (Handler, bool) { return echoHandler, true })
	t.Cleanup(func() {
		client.Close()
		server.Close()
		n.Close()
	})

	const streams, calls = 8, 4
	var pend []Pending
	for i := 0; i < streams; i++ {
		s := client.Agent(fmt.Sprint("a", i)).Stream("server", "g1")
		for j := 0; j < calls; j++ {
			p, err := s.Call("echo", nil)
			if err != nil {
				t.Fatal(err)
			}
			pend = append(pend, p)
		}
		s.Flush()
	}
	// Time stands still until every call has run and its reply waits,
	// retained and unsent, for the receiving stream's next tick.
	var dropped []*rstream
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(100 * time.Microsecond) {
		server.mu.Lock()
		dropped = dropped[:0]
		for _, r := range server.recvs {
			dropped = append(dropped, r)
		}
		server.mu.Unlock()
		held := 0
		for _, r := range dropped {
			r.mu.Lock()
			held += r.lane.unsent
			r.mu.Unlock()
		}
		if len(dropped) == streams && held == streams*calls {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d streams hold %d unsent replies, want %d and %d", len(dropped), held, streams, streams*calls)
		}
	}
	for _, r := range dropped {
		if r.due.at.Load() == 0 {
			t.Fatalf("%s owes its replies but is not queued", r.keyStr)
		}
	}

	server.Crash()
	server.Recover()
	vclk.SetAutoAdvance(true)
	for _, p := range pend {
		claim(t, p) // the calls run again on the recovered node, or the stream breaks
	}
	vclk.Sleep(5 * opts.RTO) // past every duty the dropped streams had queued
	for _, r := range dropped {
		if got := tap.sent(r.epoch); got != 0 {
			t.Fatalf("dropped stream %s sent %d reply batches after the crash", r.keyStr, got)
		}
	}
}

// TestCloseWithArmedDutiesFiresNothing: both peers close while a batch
// waits for its age flush, requests wait for their acks and replies wait
// to be sent. Close returns with no timer left armed, and nothing fires
// after it: ten more virtual seconds record no event.
func TestCloseWithArmedDutiesFiresNothing(t *testing.T) {
	vclk := clock.NewVirtual()
	f := newFixture(t, simnet.Config{Clock: vclk}, Options{MaxBatch: 64, MaxBatchDelay: 2 * time.Millisecond,
		RTO: 10 * time.Millisecond, MaxRetries: 4})
	release := make(chan struct{})
	f.handle("echo", echoHandler)
	f.handle("held", func(call *Incoming) Outcome {
		<-release
		return NormalOutcome(nil)
	})
	events := &eventCount{}
	f.client.SetTracer(events)
	f.server.SetTracer(events)
	base := vclk.Waiters()

	for i := 0; i < 4; i++ {
		s := f.client.Agent(fmt.Sprint("a", i)).Stream("server", "g1")
		for _, port := range []string{"echo", "echo", "held", "echo"} {
			if _, err := s.Call(port, nil); err != nil {
				t.Fatal(err)
			}
		}
		s.Flush()
		if _, err := s.Call("echo", nil); err != nil { // buffered: its age flush is queued
			t.Fatal(err)
		}
	}
	vclk.Settle()
	if vclk.Waiters() == base {
		t.Fatal("nothing is armed before Close")
	}

	closed := make(chan struct{})
	go func() {
		f.client.Close()
		f.server.Close()
		close(closed)
	}()
	close(release) // the held handlers return into a closing peer
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return with duties armed")
	}
	if w := vclk.Waiters(); w != base {
		t.Fatalf("%d clock waiters once Close returned, want %d", w, base)
	}
	after := events.n.Load()
	stepThrough(vclk, vclk.Now().Add(10*time.Second), events)
	if got := events.n.Load() - after; got != 0 {
		t.Fatalf("%d events recorded after Close", got)
	}
	if w := vclk.Waiters(); w != base {
		t.Fatalf("%d clock waiters after Close, want %d", w, base)
	}
}

// TestLateLoopProbesOnce: the clock jumps far past a probe's instant in
// one advance, as after a stalled process. The late loop serves the probe
// at the last tick it has reached, so the next is paced one RTO from
// then: one probe goes out, not one for every RTO the jump spanned, and
// the stream, whose receiver is alive, does not break.
func TestLateLoopProbesOnce(t *testing.T) {
	vclk := clock.NewVirtual()
	opts := Options{MaxBatch: 64, MaxBatchDelay: 2 * time.Millisecond, RTO: 10 * time.Millisecond, MaxRetries: 4}
	f := newFixture(t, simnet.Config{Clock: vclk, Propagation: time.Millisecond}, opts)
	release := make(chan struct{})
	var once sync.Once
	unhold := func() { once.Do(func() { close(release) }) }
	t.Cleanup(unhold) // before the peers close, if the test fails first
	f.handle("held", func(call *Incoming) Outcome {
		<-release
		return NormalOutcome(nil)
	})
	events := &eventCount{}
	f.server.SetTracer(events)
	ring := trace.NewRing(1024)
	f.client.SetTracer(ring)

	s := f.client.Agent("a").Stream("server", "g1")
	p, err := s.Call("held", nil)
	if err != nil {
		t.Fatal(err)
	}
	s.Flush()
	// The call is delivered and its receipt acked; it runs on, held.
	stepThrough(vclk, vclk.Now().Add(5*time.Millisecond), events)
	ring.Reset()

	vclk.Advance(100 * time.Millisecond)
	vclk.Settle()
	time.Sleep(20 * time.Millisecond)
	vclk.Settle()
	probes := 0
	for _, e := range ring.Filter(trace.BatchSent) {
		if e.Detail == "probe" {
			probes++
		}
	}
	if probes > 1 {
		t.Fatalf("%d probes after one late wake-up, want at most 1", probes)
	}
	if n := ring.Count(trace.StreamBroken); n != 0 {
		t.Fatalf("the stream broke after one late wake-up: %v", ring.Filter(trace.StreamBroken))
	}

	unhold()
	stepThrough(vclk, vclk.Now().Add(5*time.Millisecond), events)
	if o := claim(t, p); !o.Normal {
		t.Fatalf("held call: %v", o.Err())
	}
}

// TestProbeAsksOnlyAfterAckedCalls: a probe asks after calls the receiver
// acknowledged and has not answered, so none goes out while the receiver
// holds nothing of ours. A stream idle for longer than an RTO takes a
// call, whose batch is lost. No probe goes out while the call waits for
// its age flush, nor while its batch awaits the ack until the
// retransmission timer runs out: the timer, not a probe, looks after it.
func TestProbeAsksOnlyAfterAckedCalls(t *testing.T) {
	vclk := clock.NewVirtual()
	opts := Options{MaxBatch: 64, MaxBatchDelay: 4 * time.Millisecond, RTO: 10 * time.Millisecond, MaxRetries: 4}
	var probes atomic.Int64
	lossy := func(kind int64, rb *requestBatch, _ *replyBatch) bool {
		if rb != nil && rb.Probe != 0 {
			probes.Add(1)
		}
		return rb == nil || len(rb.Requests) == 0
	}
	f := newTappedFixture(t, vclk, opts, opts, lossy, passAll)
	f.handle("echo", echoHandler)
	events := &eventCount{}
	f.client.SetTracer(events)

	s := f.client.Agent("a").Stream("server", "g1")
	vclk.Advance(5 * opts.RTO)
	if _, err := s.Call("echo", nil); err != nil {
		t.Fatal(err)
	}
	flushed := vclk.Now().Add(opts.MaxBatchDelay)
	stepThrough(vclk, flushed.Add(-time.Microsecond), events)
	if n := probes.Swap(0); n != 0 {
		t.Errorf("%d probes asked after a call not yet sent", n)
	}
	stepThrough(vclk, flushed.Add(opts.RTO-time.Microsecond), events)
	if n := probes.Load(); n != 0 {
		t.Errorf("%d probes went out beside a batch that awaits its ack", n)
	}
}

// TestIdleStreamArmsNoPastProbe: a stream idle past an RTO takes a call,
// whose batch is lost. The stream's duty is armed when the flush starts
// the retransmission timer, for when it runs out: nothing fires before,
// where an arm at the last progress plus an RTO would lie in the past and
// fire at the next tick for nothing.
func TestIdleStreamArmsNoPastProbe(t *testing.T) {
	vclk := clock.NewVirtual()
	opts := Options{MaxBatch: 64, MaxBatchDelay: 4 * time.Millisecond, RTO: 10 * time.Millisecond, MaxRetries: 4}
	lossy := func(_ int64, rb *requestBatch, _ *replyBatch) bool { return rb == nil || len(rb.Requests) == 0 }
	f := newTappedFixture(t, vclk, opts, opts, lossy, passAll)
	f.handle("echo", echoHandler)
	events := &eventCount{}
	f.client.SetTracer(events)

	s := f.client.Agent("a").Stream("server", "g1")
	var fires atomic.Int64
	fire := s.due.fire
	s.due.fire = func(at time.Time) time.Time {
		fires.Add(1)
		return fire(at)
	}
	vclk.Advance(5 * opts.RTO)
	if _, err := s.Call("echo", nil); err != nil {
		t.Fatal(err)
	}
	s.Flush()
	resend := vclk.Now().Add(opts.RTO) // no round trip measured: the first estimate
	stepThrough(vclk, resend.Add(-time.Microsecond), events)
	if n := fires.Load(); n != 0 {
		t.Errorf("the stream's duty fired %d times before its retransmission deadline", n)
	}
	stepThrough(vclk, resend.Add(f.client.tick), events)
	if n := fires.Load(); n != 1 {
		t.Errorf("the stream's duty fired %d times by its retransmission deadline, want 1", n)
	}
}
