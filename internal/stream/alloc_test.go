package stream

import (
	"context"
	"testing"

	"promises/internal/simnet"
)

// Allocation-regression ceilings for the stream fast path. These pin the
// steady-state allocation counts of the zero-copy decode path, the
// seq-indexed rings, and the end-to-end call round trip, so a future
// change cannot silently reintroduce per-call garbage. Ceilings carry a
// little headroom over the measured values; a failure here means the
// fast path regressed, not that the test is flaky.
//
// The race detector instruments allocations, so these only run in
// non-race builds (CI runs both).

func requireAllocCeiling(t *testing.T, ceiling float64, f func()) {
	t.Helper()
	if raceEnabled {
		t.Skip("race detector changes allocation counts")
	}
	got := testing.AllocsPerRun(100, f)
	t.Logf("measured %.2f allocs/op (ceiling %.1f)", got, ceiling)
	if got > ceiling {
		t.Errorf("allocs/op = %.2f, want <= %.1f", got, ceiling)
	}
}

func allocTestRequestBatch() requestBatch {
	batch := requestBatch{
		Agent:             "alloc",
		Group:             "g",
		Incarnation:       1,
		AckRepliesThrough: 7,
	}
	arg := make([]byte, 32)
	for i := 0; i < 16; i++ {
		batch.Requests = append(batch.Requests,
			request{Seq: uint64(i + 1), Port: "echo", Mode: ModeCall, Args: arg})
	}
	return batch
}

// TestAllocsEncodeRequestBatch pins sender-side batch encoding to the
// single allocation of the message, which is sized before it is built.
func TestAllocsEncodeRequestBatch(t *testing.T) {
	batch := allocTestRequestBatch()
	requireAllocCeiling(t, 1, func() {
		_ = encodeRequestBatch(batch)
	})
}

// TestAllocsEncodeReplyBatch is the receiver-side twin.
func TestAllocsEncodeReplyBatch(t *testing.T) {
	batch := replyBatch{
		Agent:              "alloc",
		Group:              "g",
		Incarnation:        1,
		Epoch:              3,
		AckRequestsThrough: 16,
		CompletedThrough:   16,
	}
	res := make([]byte, 32)
	for i := 0; i < 16; i++ {
		batch.Replies = append(batch.Replies,
			reply{Seq: uint64(i + 1), Outcome: NormalOutcome(res)})
	}
	requireAllocCeiling(t, 1, func() {
		_ = encodeReplyBatch(batch)
	})
}

// TestAllocsDecodeRequestBatch pins the zero-copy decode of a full
// 16-request batch at zero steady-state allocations: the batch struct
// comes from a pool, entry slices are reused at capacity, identifiers
// hit the intern table, and argument bytes alias the datagram.
func TestAllocsDecodeRequestBatch(t *testing.T) {
	msg := encodeRequestBatch(allocTestRequestBatch())
	requireAllocCeiling(t, 0, func() {
		kind, rb, _, _, err := decodeMessage(msg)
		if err != nil || kind != kindRequestBatch {
			t.Fatalf("decodeMessage: kind %d err %v", kind, err)
		}
		releaseRequestBatch(rb)
	})
}

// TestAllocsSeqRingSlidingWindow pins steady-state ring maintenance —
// put/get/del over a sliding window that fits the allocated slots — at
// zero allocations.
func TestAllocsSeqRingSlidingWindow(t *testing.T) {
	var ring seqRing[int]
	const window = 48
	seq := uint64(1)
	for ; seq <= window; seq++ {
		ring.put(seq, int(seq))
	}
	requireAllocCeiling(t, 0, func() {
		ring.put(seq, int(seq))
		if _, ok := ring.get(seq - window); !ok {
			t.Fatal("expected entry missing")
		}
		ring.del(seq - window)
		seq++
	})
}

// TestAllocsStreamCallRoundTrip pins the whole per-call round trip —
// enqueue, batch encode, simnet transfer, decode, execute, reply,
// resolution, Wait, Release — at zero per-call allocations: the Pending
// cell and the Incoming come from pools, the handle is a value, and the
// claim path blocks on a pooled sync.Cond. Only per-BATCH costs remain
// (one encode output buffer and one simnet message envelope per
// direction), amortized to well under one allocation per call, so the
// integer allocs/op a benchmark would report is 0.
func TestAllocsStreamCallRoundTrip(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector changes allocation counts")
	}
	n := simnet.New(simnet.Config{})
	client := NewPeer(n.MustAddNode("client"), Options{MaxBatch: 16})
	server := NewPeer(n.MustAddNode("server"), Options{MaxBatch: 16})
	server.SetDispatcher(func(port string) (Handler, bool) { return echoHandler, true })
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
			p.Release()
		}
		pendings = pendings[:0]
	}
	runWindow() // warm pools, rings, and the intern table

	perRun := testing.AllocsPerRun(20, runWindow)
	perCall := perRun / window
	t.Logf("measured %.2f allocs/call (must truncate to 0)", perCall)
	if perCall >= 1 {
		t.Errorf("round trip allocs/call = %.2f, want < 1 (0 allocs/op)", perCall)
	}
}

// TestAllocsStreamCallRoundTripFlowControl is the adaptive/flow-control
// twin: controller enabled, credit advertised in every reply batch, and a
// bounded (never-binding) in-flight window. The admission fast path is
// pure arithmetic and the credit integration allocation-free, so the
// ceiling is the same as the legacy path's.
func TestAllocsStreamCallRoundTripFlowControl(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector changes allocation counts")
	}
	n := simnet.New(simnet.Config{})
	opts := Options{MaxBatch: 16, AdaptiveBatch: true, MaxInFlight: 256}
	client := NewPeer(n.MustAddNode("client"), opts)
	server := NewPeer(n.MustAddNode("server"), opts)
	server.SetDispatcher(func(port string) (Handler, bool) { return echoHandler, true })
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
			p.Release()
		}
		pendings = pendings[:0]
	}
	runWindow() // warm pools, rings, and the intern table

	perRun := testing.AllocsPerRun(20, runWindow)
	perCall := perRun / window
	t.Logf("measured %.2f allocs/call with flow control (must truncate to 0)", perCall)
	if perCall >= 1 {
		t.Errorf("flow-controlled round trip allocs/call = %.2f, want < 1 (0 allocs/op)", perCall)
	}
}
