package stream

import (
	"context"
	"maps"
	"sync/atomic"
	"testing"
	"time"

	"promises/internal/clock"
	"promises/internal/metrics"
	"promises/internal/simnet"
	"promises/internal/trace"
	"promises/internal/wire"
)

// TestTraceReincarnationOrderingAndSeqRestart pins the event shape of a
// break + auto-restart: StreamBroken is recorded strictly before
// StreamRestarted, and the new incarnation's calls start over at seq 1
// with fresh trace IDs (the ID folds in the incarnation, so equal seqs
// across incarnations must not collide).
func TestTraceReincarnationOrderingAndSeqRestart(t *testing.T) {
	f := newFixture(t, simnet.Config{}, fastOpts())
	f.handle("echo", echoHandler)
	ring := trace.NewRing(512)
	f.client.SetTracer(ring)
	f.net.Partition("client", "server")

	s := f.client.Agent("a1").Stream("server", "g1")
	p, err := s.Call("echo", nil)
	if err != nil {
		t.Fatal(err)
	}
	s.Flush()
	if o := claim(t, p); o.Normal {
		t.Fatal("call across a partition resolved normally")
	}

	// The break must precede the reincarnation in recorded order. The
	// claim returns from inside the break, which restarts the stream
	// before it lets go of the stream lock; Incarnation takes that lock,
	// so after it the restart has been recorded.
	if inc := s.Incarnation(); inc != 2 {
		t.Fatalf("incarnation after the break = %d, want 2", inc)
	}
	events := ring.Events()
	brokeAt, restartAt := -1, -1
	for i, e := range events {
		switch e.Kind {
		case trace.StreamBroken:
			if brokeAt < 0 {
				brokeAt = i
			}
		case trace.StreamRestarted:
			if restartAt < 0 {
				restartAt = i
			}
		}
	}
	if brokeAt < 0 || restartAt < 0 || brokeAt > restartAt {
		t.Fatalf("break/restart order wrong: broken@%d restarted@%d", brokeAt, restartAt)
	}

	// Heal; the reincarnated stream serves calls, numbered from 1 again.
	f.net.Heal("client", "server")
	p2, err := s.Call("echo", []byte{42})
	if err != nil {
		t.Fatal(err)
	}
	s.Flush()
	if o := claim(t, p2); !o.Normal {
		t.Fatalf("post-restart call outcome = %+v", o)
	}

	enq := ring.Filter(trace.CallEnqueued)
	if len(enq) != 2 {
		t.Fatalf("CallEnqueued = %d, want 2", len(enq))
	}
	first, second := enq[0], enq[1]
	if first.Seq != 1 || second.Seq != 1 {
		t.Fatalf("seqs = %d, %d; want both 1 (seq restarts per incarnation)", first.Seq, second.Seq)
	}
	if first.TraceID == 0 || second.TraceID == 0 {
		t.Fatalf("trace IDs missing: %x, %x", first.TraceID, second.TraceID)
	}
	if first.TraceID == second.TraceID {
		t.Fatalf("trace ID %x reused across incarnations", first.TraceID)
	}
	// The restart event carries the new incarnation number.
	if rs := ring.Filter(trace.StreamRestarted); rs[0].Seq != 2 {
		t.Fatalf("restart incarnation = %d, want 2", rs[0].Seq)
	}
}

// TestCausePropagatesToHandler runs a cause-carrying call end to end:
// the handler sees the sender's causal context on its Incoming, and
// ChildCause derives the context for the handler's own downstream calls
// (root inherited, parent = this call).
func TestCausePropagatesToHandler(t *testing.T) {
	f := newFixture(t, simnet.Config{}, fastOpts())
	var gotCause, gotChild trace.Cause
	var gotTrace uint64
	f.handle("work", func(call *Incoming) Outcome {
		gotCause = call.Cause
		gotChild = call.ChildCause()
		gotTrace = call.Trace
		return NormalOutcome(nil)
	})

	cause := trace.Cause{Root: 0x1111, Parent: 0x2222}
	s := f.client.Agent("a1").Stream("server", "g1")
	p, err := s.Issue(context.Background(), Req{Port: "work", Cause: cause})
	if err != nil {
		t.Fatal(err)
	}
	s.Flush()
	if o := claim(t, p); !o.Normal {
		t.Fatalf("outcome = %+v", o)
	}
	if gotCause != cause {
		t.Errorf("handler cause = %+v, want %+v", gotCause, cause)
	}
	if gotTrace == 0 {
		t.Error("handler trace ID missing")
	}
	want := trace.Cause{Root: cause.Root, Parent: gotTrace}
	if gotChild != want {
		t.Errorf("ChildCause = %+v, want %+v", gotChild, want)
	}
}

// TestCauseRootDefaultsToSelf: a call with the zero Cause is a chain
// root; ChildCause at the handler starts a chain rooted at the call's
// own trace ID.
func TestCauseRootDefaultsToSelf(t *testing.T) {
	f := newFixture(t, simnet.Config{}, fastOpts())
	var gotChild trace.Cause
	var gotTrace uint64
	f.handle("work", func(call *Incoming) Outcome {
		gotChild = call.ChildCause()
		gotTrace = call.Trace
		return NormalOutcome(nil)
	})
	s := f.client.Agent("a1").Stream("server", "g1")
	p, err := s.Call("work", nil)
	if err != nil {
		t.Fatal(err)
	}
	s.Flush()
	if o := claim(t, p); !o.Normal {
		t.Fatalf("outcome = %+v", o)
	}
	if gotTrace == 0 {
		t.Fatal("handler trace ID missing")
	}
	if want := (trace.Cause{Root: gotTrace, Parent: gotTrace}); gotChild != want {
		t.Errorf("ChildCause = %+v, want %+v", gotChild, want)
	}
}

// TestCauseRidesTraceEventsAcrossProcesses asserts the cross-process
// join the correlator depends on: the sender's CallEnqueued and the
// receiver's CallDelivered/Executed carry the same (root, parent) so
// rings drained from two different peers group under one root.
func TestCauseRidesTraceEventsAcrossProcesses(t *testing.T) {
	f := newFixture(t, simnet.Config{}, fastOpts())
	f.handle("echo", echoHandler)
	cring := trace.NewRing(64)
	sring := trace.NewRing(64)
	f.client.SetTracer(cring)
	f.server.SetTracer(sring)

	cause := trace.Cause{Root: 0xBEEF, Parent: 0xF00D}
	s := f.client.Agent("a1").Stream("server", "g1")
	p, err := s.Issue(context.Background(), Req{Port: "echo", Args: plain([]byte{1}), Cause: cause})
	if err != nil {
		t.Fatal(err)
	}
	s.Flush()
	claim(t, p)

	deadline := time.Now().Add(5 * time.Second)
	for {
		enq := cring.Filter(trace.CallEnqueued)
		exe := sring.Filter(trace.CallExecuted)
		if len(enq) > 0 && len(exe) > 0 {
			if enq[0].Root != cause.Root || enq[0].Parent != cause.Parent {
				t.Fatalf("sender event cause = %x/%x, want %x/%x",
					enq[0].Root, enq[0].Parent, cause.Root, cause.Parent)
			}
			if exe[0].Root != cause.Root || exe[0].Parent != cause.Parent {
				t.Fatalf("receiver event cause = %x/%x, want %x/%x",
					exe[0].Root, exe[0].Parent, cause.Root, cause.Parent)
			}
			if enq[0].TraceID == 0 || enq[0].TraceID != exe[0].TraceID {
				t.Fatalf("trace IDs diverge across processes: %x vs %x",
					enq[0].TraceID, exe[0].TraceID)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("events missing: sender enq=%d receiver exec=%d", len(enq), len(exe))
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRejectedDatagramsCounted: datagrams in a layout this package no
// longer writes — the 6-value request batch of a sender from before trace
// IDs, the request batches that carried each call's seq and trace ID, the
// removed kinds 4 and 5, and the 8-value break — are not acted on, and show in
// stream_datagrams_rejected_total; the count costs no allocation once the
// counter exists.
func TestRejectedDatagramsCounted(t *testing.T) {
	reg := metrics.NewRegistry()
	net := simnet.New(simnet.Config{})
	defer net.Close()
	old := net.MustAddNode("old")
	server := NewPeer(net.MustAddNode("server"), Options{Metrics: reg})
	defer server.Close()
	var executed atomic.Int32
	server.SetDispatcher(func(string) (Handler, bool) {
		return func(call *Incoming) Outcome { executed.Add(1); return NormalOutcome(nil) }, true
	})

	msg, err := wire.Marshal(int64(1), "a", "g", int64(1), int64(0),
		[]any{[]any{int64(1), "echo", int64(ModeCall), []byte{7}}})
	if err != nil {
		t.Fatal(err)
	}
	sent := [][]byte{msg, removedRequests["trace-ids/8"], removedRequests["trace-ids/9"],
		removedKinds["resolve/10"], removedKinds["resolve-ack/7"], removedBreaks["synchronous/8"]}
	for _, m := range sent {
		if err := old.Send("server", m); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for reg.Snapshot().Counters["stream_datagrams_rejected_total"] != uint64(len(sent)) {
		if time.Now().After(deadline) {
			t.Fatalf("rejected datagrams = %d, want %d", reg.Snapshot().Counters["stream_datagrams_rejected_total"], len(sent))
		}
		time.Sleep(time.Millisecond)
	}
	if n := executed.Load(); n != 0 {
		t.Errorf("a call in a removed layout executed %d times", n)
	}
	requireAllocCeiling(t, 0, server.sm.noteRejected)
}

// TestAllocsStreamCallRoundTripWithTelemetry re-pins the end-to-end
// round-trip allocation ceiling with the full telemetry stack live — a
// metrics registry inherited by both peers and ring tracers installed.
// The budget allows one extra allocation per call over the bare path
// (ISSUE: trace-ID stamping <= 1 alloc/call; counter and histogram
// updates must add zero).
func TestAllocsStreamCallRoundTripWithTelemetry(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector changes allocation counts")
	}
	reg := metrics.NewRegistry()
	n := simnet.New(simnet.Config{Metrics: reg})
	client := NewPeer(n.MustAddNode("client"), Options{MaxBatch: 16})
	server := NewPeer(n.MustAddNode("server"), Options{MaxBatch: 16})
	server.SetDispatcher(func(port string) (Handler, bool) { return echoHandler, true })
	client.SetTracer(trace.NewRing(1 << 12))
	server.SetTracer(trace.NewRing(1 << 12))
	defer func() {
		client.Close()
		server.Close()
		n.Close()
	}()

	s := client.Agent("alloc").Stream("server", "g")
	arg := make([]byte, 32)
	ctx := context.Background()
	const window = 64
	pendings := make([]Pending, 0, window)

	runWindow := func() {
		for i := 0; i < window; i++ {
			p, err := s.Call("echo", arg)
			if err != nil {
				t.Fatalf("Call: %v", err)
			}
			pendings = append(pendings, p)
		}
		s.Flush()
		for _, p := range pendings {
			if _, err := p.Wait(ctx); err != nil {
				t.Fatalf("Wait: %v", err)
			}
		}
		pendings = pendings[:0]
	}
	runWindow() // warm pools, rings, intern table, and metric handles

	perRun := testing.AllocsPerRun(20, runWindow)
	perCall := perRun / window
	t.Logf("measured %.2f allocs/call with telemetry (ceiling 9)", perCall)
	if perCall > 9 {
		t.Errorf("instrumented round trip allocs/call = %.2f, want <= 9", perCall)
	}

	// The registry really was live through the inheritance chain.
	snap := reg.Snapshot()
	if snap.Counters["stream_calls_enqueued_total"] == 0 ||
		snap.Counters["stream_calls_executed_total"] == 0 {
		t.Fatalf("registry not wired: %+v", snap.Counters)
	}
}

// TestAllocsStreamMetricsUpdates pins the stream layer's own metric
// update path — the resolved handles, not the registry lookup — at zero
// allocations. Then, on a bare stream of each end over the same handles,
// each reason a batch is sent moves exactly its counters, once, and
// traces its detail: every batch goes out through one function per end.
func TestAllocsStreamMetricsUpdates(t *testing.T) {
	reg := metrics.NewRegistry()
	sm := newStreamMetrics(reg)
	t.Run("allocs", func(t *testing.T) {
		requireAllocCeiling(t, 0, func() {
			sm.callsEnqueued.Inc()
			sm.batchCalls.Observe(4)
			sm.batchBytes.Observe(512)
			sm.claimWait.ObserveDuration(3 * time.Microsecond)
		})
	})

	p := &Peer{sm: sm, clk: clock.NewVirtual()}
	ring := trace.NewRing(64)
	p.SetTracer(ring)
	key, opts := streamKey{"client", "a1", "server", "g1"}, Options{}.withDefaults()
	s, r := newStream(p, key, opts), newRStream(p, key, 1, opts)
	reqs := []request{{Seq: 1, Port: "echo"}, {Seq: 2, Port: "echo"}}
	reps := []reply{{Seq: 1, Outcome: NormalOutcome(nil)}, {Seq: 2, Outcome: NormalOutcome(nil)}}
	const (
		batches, bytes = "stream_batches_sent_total", "stream_batch_bytes"
		replyBatches   = "stream_reply_batches_sent_total"
		replyBytes     = "stream_reply_batch_bytes"
		resends        = "stream_retransmits_total"
		holes          = "stream_hole_resends_total"
		replyResends   = "stream_reply_retransmits_total"
	)
	for _, c := range []struct {
		reply  bool
		why    sendWhy
		n      int      // items carried
		moved  []string // the counters and histograms one batch moves by one
		detail string
	}{
		{false, whyFlush, 2, []string{batches, bytes}, "n=2"},
		{false, whyRetransmit, 2, []string{batches, bytes, resends}, "n=2 retransmit"},
		{false, whyHole, 2, []string{batches, bytes, resends, holes}, "n=2 hole"},
		{false, whyPartial, 2, []string{batches, bytes, resends}, "n=2 partial"},
		{false, whyAck, 0, []string{batches, "stream_acks_total"}, "ack"},
		{false, whyProbe, 0, []string{batches, "stream_probes_total"}, "probe"},
		{true, whyFlush, 2, []string{replyBatches, replyBytes}, "n=2"},
		{true, whyRetransmit, 2, []string{replyBatches, replyBytes, replyResends}, "n=2 retransmit"},
		{true, whyHole, 2, []string{replyBatches, replyBytes, replyResends, holes}, "n=2 hole"},
	} {
		before := reg.Snapshot()
		now := p.clk.Now()
		if c.reply {
			r.mu.Lock()
			r.replyBatchLocked(reps[:c.n], now, c.why)
			r.mu.Unlock()
		} else {
			s.mu.Lock()
			s.sendLocked(reqs[:c.n], now, c.why)
			s.mu.Unlock()
		}
		after := reg.Snapshot()
		moved := map[string]uint64{}
		for name, v := range after.Counters {
			if d := v - before.Counters[name]; d != 0 {
				moved[name] = d
			}
		}
		for name, h := range after.Histograms {
			if d := h.Count - before.Histograms[name].Count; d != 0 {
				moved[name] = d
			}
		}
		want := map[string]uint64{}
		for _, name := range c.moved {
			want[name] = 1
		}
		if !maps.Equal(moved, want) {
			t.Errorf("reply=%v why=%d moved %v, want %v", c.reply, c.why, moved, want)
		}
		if evs := ring.Events(); len(evs) == 0 || evs[len(evs)-1].Detail != c.detail {
			t.Errorf("reply=%v why=%d traced %+v, want detail %q", c.reply, c.why, evs, c.detail)
		}
	}
}
