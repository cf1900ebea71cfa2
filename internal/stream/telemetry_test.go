package stream

import (
	"context"
	"testing"
	"time"

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

// TestWireNewBatchReadableByLegacyDecoder pins the versioned request-
// batch format from the legacy side: a decoder written against the old
// 6-value layout parses a new batch positionally and never touches the
// trailing lists, while a version-aware reader finds one trace ID per
// request in the 7th value and the flattened (root, parent) causal
// context in the 8th.
func TestWireNewBatchReadableByLegacyDecoder(t *testing.T) {
	b := requestBatch{
		Agent: "a", Group: "g", Incarnation: 3, AckRepliesThrough: 9,
		Requests: []request{
			{Seq: 1, Port: "p", Mode: ModeCall, Args: []byte{1}, Trace: 0xAAA, Root: 0x111, Parent: 0x222},
			{Seq: 2, Port: "p", Mode: ModeSend, Args: []byte{2}, Trace: 0xBBB},
		},
	}
	msg := encodeRequestBatch(b)

	vals, err := wire.Unmarshal(msg)
	if err != nil {
		t.Fatal(err)
	}
	// Two extra top-level values after the six a legacy peer reads.
	if len(vals) != 8 {
		t.Fatalf("top-level values = %d, want 8", len(vals))
	}
	kind, _ := wire.IntArg(vals, 0)
	agent, _ := wire.StringArg(vals, 1)
	inc, _ := wire.IntArg(vals, 3)
	raw, _ := wire.Arg(vals, 5)
	reqs, _ := wire.AsList(raw)
	if kind != 1 || agent != "a" || inc != 3 || len(reqs) != 2 {
		t.Fatalf("legacy fields misparsed: kind=%d agent=%q inc=%d reqs=%d",
			kind, agent, inc, len(reqs))
	}
	for i, e := range reqs {
		fields, _ := wire.AsList(e)
		if len(fields) != 4 {
			t.Fatalf("request %d has %d fields; legacy decoders require 4", i, len(fields))
		}
	}
	// The 7th value is the parallel trace-ID list.
	tracesRaw, _ := wire.Arg(vals, 6)
	traces, err := wire.AsList(tracesRaw)
	if err != nil || len(traces) != 2 {
		t.Fatalf("trace list = %v (err %v), want 2 entries", traces, err)
	}
	for i, want := range []uint64{0xAAA, 0xBBB} {
		got, _ := wire.IntArg(traces, i)
		if uint64(got) != want {
			t.Fatalf("trace[%d] = %x, want %x", i, got, want)
		}
	}
	// The 8th value is the causal-context list: (root, parent) pairs
	// flattened, 2n ints for n requests.
	causesRaw, _ := wire.Arg(vals, 7)
	causes, err := wire.AsList(causesRaw)
	if err != nil || len(causes) != 4 {
		t.Fatalf("causal list = %v (err %v), want 4 entries", causes, err)
	}
	for i, want := range []uint64{0x111, 0x222, 0, 0} {
		got, _ := wire.IntArg(causes, i)
		if uint64(got) != want {
			t.Fatalf("cause[%d] = %x, want %x", i, got, want)
		}
	}
}

// TestWireLegacySenderAcceptedByNewReceiver is the other interop
// direction: a hand-encoded 6-value batch — what a pre-trace sender
// emits — must be executed and replied to by the current receiver, with
// the trace ID reported as 0 (unknown).
func TestWireLegacySenderAcceptedByNewReceiver(t *testing.T) {
	net := simnet.New(simnet.Config{})
	defer net.Close()
	legacy := net.MustAddNode("legacy")

	server := NewPeer(net.MustAddNode("server"), fastOpts())
	defer server.Close()
	server.SetDispatcher(func(port string) (Handler, bool) { return echoHandler, true })
	ring := trace.NewRing(64)
	server.SetTracer(ring)

	// The legacy 6-value request batch: no trailing trace list.
	msg, err := wire.Marshal(int64(1), "a", "g", int64(1), int64(0),
		[]any{[]any{int64(1), "echo", int64(ModeCall), []byte{7}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := legacy.Send("server", msg); err != nil {
		t.Fatal(err)
	}

	// The receiver executes the call and sends a reply batch back.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for {
		reply, err := legacy.Recv(ctx)
		if err != nil {
			t.Fatalf("no reply batch from new receiver: %v", err)
		}
		vals, err := wire.Unmarshal(reply.Payload)
		if err != nil {
			t.Fatal(err)
		}
		kind, _ := wire.IntArg(vals, 0)
		if kind != 2 {
			continue
		}
		completed, _ := wire.IntArg(vals, 6)
		if completed != 1 {
			continue // ack-only batch ahead of execution; keep waiting
		}
		raw, _ := wire.Arg(vals, 7)
		reps, _ := wire.AsList(raw)
		if len(reps) != 1 {
			t.Fatalf("replies = %d, want 1", len(reps))
		}
		fields, _ := wire.AsList(reps[0])
		seq, _ := wire.IntArg(fields, 0)
		normalRaw, _ := wire.Arg(fields, 1)
		normal, _ := wire.AsBool(normalRaw)
		if seq != 1 || !normal {
			t.Fatalf("reply = seq %d normal %v", seq, normal)
		}
		break
	}

	// The receiver traced the call with trace ID 0 — unknown, legacy.
	execs := ring.Filter(trace.CallExecuted)
	if len(execs) != 1 || execs[0].TraceID != 0 {
		t.Fatalf("CallExecuted events = %+v, want one with TraceID 0", execs)
	}
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
// allocations.
func TestAllocsStreamMetricsUpdates(t *testing.T) {
	sm := newStreamMetrics(metrics.NewRegistry())
	requireAllocCeiling(t, 0, func() {
		sm.callsEnqueued.Inc()
		sm.batchCalls.Observe(4)
		sm.batchBytes.Observe(512)
		sm.claimWait.ObserveDuration(3 * time.Microsecond)
	})
}
