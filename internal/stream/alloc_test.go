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
		_ = encodeRequestBatch(batch, nil)
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
		_ = encodeReplyBatch(batch, nil)
	})
}

// TestAllocsDecodeRequestBatch pins the zero-copy decode of a full
// 16-request batch at zero steady-state allocations: the batch struct
// comes from a pool, entry slices are reused at capacity, identifiers
// hit the intern table, and argument bytes alias the datagram.
func TestAllocsDecodeRequestBatch(t *testing.T) {
	msg := encodeRequestBatch(allocTestRequestBatch(), nil)
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
func TestAllocsStreamCallRoundTrip(t *testing.T) { requireRoundTripAllocFree(t, 64, 20) }

// TestAllocsStreamCallRoundTripFlowControl is the flow-control twin: each
// window is the receiver's whole credit, so the grant the previous
// window's last reply batch advertised admits it with nothing to spare.
// The admission check is pure arithmetic and the credit integration
// allocation-free, so the ceiling is the same.
func TestAllocsStreamCallRoundTripFlowControl(t *testing.T) {
	requireRoundTripAllocFree(t, recvWindow, 5)
}

// TestAllocsStreamRPCRoundTrip pins an RPC's round trip under half an
// allocation. An RPC batches nothing: its request batch and its reply
// batch are messages of their own, one per call each way, and both are
// carved from the peers' marshal arenas rather than allocated apiece.
func TestAllocsStreamRPCRoundTrip(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector changes allocation counts")
	}
	n := simnet.New(simnet.Config{})
	client := NewPeer(n.MustAddNode("client"), Options{})
	server := NewPeer(n.MustAddNode("server"), Options{})
	server.SetDispatcher(func(port string) (Handler, bool) { return echoHandler, true })
	defer func() {
		client.Close()
		server.Close()
		n.Close()
	}()
	s := client.Agent("alloc").Stream("server", "g")
	arg := make([]byte, 32)
	ctx := context.Background()
	rpc := func() {
		if _, err := s.RPC(ctx, "echo", arg); err != nil {
			t.Fatalf("RPC: %v", err)
		}
	}
	rpc() // warm pools, rings, and the intern table
	got := testing.AllocsPerRun(200, rpc)
	t.Logf("measured %.2f allocs/RPC (ceiling 0.5)", got)
	if got >= 0.5 {
		t.Errorf("RPC round trip = %.2f allocs, want < 0.5", got)
	}
}

// requireRoundTripAllocFree measures windows of window echo calls, runs
// times after one warm-up window (which also puts the receiver's grant on
// record), and fails unless they cost under one allocation per call.
func requireRoundTripAllocFree(t *testing.T, window, runs int) {
	t.Helper()
	if raceEnabled {
		t.Skip("race detector changes allocation counts")
	}
	n := simnet.New(simnet.Config{})
	client := NewPeer(n.MustAddNode("client"), Options{})
	server := NewPeer(n.MustAddNode("server"), Options{})
	server.SetDispatcher(func(port string) (Handler, bool) { return echoHandler, true })
	defer func() {
		client.Close()
		server.Close()
		n.Close()
	}()

	s := client.Agent("alloc").Stream("server", "g")
	arg := make([]byte, 32)
	ctx := context.Background()
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

	perCall := testing.AllocsPerRun(runs, runWindow) / float64(window)
	t.Logf("measured %.2f allocs/call over windows of %d (must truncate to 0)", perCall, window)
	if perCall >= 1 {
		t.Errorf("round trip allocs/call = %.2f, want < 1 (0 allocs/op)", perCall)
	}
}

// marshalPeer is a peer with a stream and a handler's Incoming on it: the
// two ways into the peer's marshal arena.
func marshalPeer(t *testing.T) (p *Peer, via map[string]func(...any) (Marshalled, error)) {
	t.Helper()
	n := simnet.New(simnet.Config{})
	p = NewPeer(n.MustAddNode("p"), Options{})
	t.Cleanup(func() {
		p.Close()
		n.Close()
	})
	in := &Incoming{peer: p}
	return p, map[string]func(...any) (Marshalled, error){
		"Stream":   p.Agent("a").Stream("q", "g").Marshal,
		"Incoming": in.Marshal,
	}
}

// TestAllocsMarshalSmallList pins a small argument or result list to the
// peer's marshal arena: a 32-byte list costs a share of a chunk, under a
// tenth of an allocation, not a buffer of its own.
func TestAllocsMarshalSmallList(t *testing.T) {
	_, via := marshalPeer(t)
	vals := []any{make([]byte, 32)}
	const lists = 1000
	for name, marshal := range via {
		t.Run(name, func(t *testing.T) {
			if raceEnabled {
				t.Skip("race detector changes allocation counts")
			}
			perList := testing.AllocsPerRun(10, func() {
				for i := 0; i < lists; i++ {
					if m, err := marshal(vals...); err != nil || m.frame() != nil {
						t.Fatalf("Marshal = %v, framed %v", err, m.frame() != nil)
					}
				}
			}) / lists
			t.Logf("measured %.4f allocs/list (ceiling 0.1)", perList)
			if perList >= 0.1 {
				t.Errorf("%s.Marshal of 32 bytes = %.4f allocs/list, want < 0.1", name, perList)
			}
		})
	}
}

// TestAllocsMarshalBulkList: a list of a page or more never touches the
// arena. It comes back in one buffer of its own, framed, with
// frameHeadroom of room in front and frameTailroom behind.
func TestAllocsMarshalBulkList(t *testing.T) {
	p, via := marshalPeer(t)
	vals := []any{make([]byte, 16<<10)}
	for name, marshal := range via {
		t.Run(name, func(t *testing.T) {
			chunk := len(p.arena.chunk)
			m, err := marshal(vals...)
			if err != nil {
				t.Fatal(err)
			}
			fr := m.frame()
			if fr == nil || len(fr)-len(m.Bytes()) != frameHeadroom || cap(fr)-len(fr) < frameTailroom {
				t.Fatalf("16 KiB list: framed %v, room %d before and %d after", fr != nil,
					len(fr)-len(m.Bytes()), cap(fr)-len(fr))
			}
			if len(p.arena.chunk) != chunk {
				t.Fatalf("16 KiB list carved %d bytes from the arena", len(p.arena.chunk)-chunk)
			}
			requireAllocCeiling(t, 1, func() { _, _ = marshal(vals...) })
		})
	}
}
