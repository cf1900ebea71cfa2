package stream

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"promises/internal/exception"
	"promises/internal/metrics"
	"promises/internal/simnet"
	"promises/internal/trace"
	"promises/internal/wire"
)

// roomy puts payload in a buffer shaped like the one Marshal returns for a
// big list, whatever the payload's size, and returns the buffer and the
// payload's view of it.
func roomy(payload []byte) (frame, view []byte) {
	frame = make([]byte, frameHeadroom, frameHeadroom+len(payload)+frameTailroom)
	frame = append(frame, payload...)
	return frame, frame[frameHeadroom:]
}

// checkFramedRequest compares the in-place encoder with the copying one
// on a one-request batch whose arguments lie in a roomy buffer.
func checkFramedRequest(t *testing.T, b requestBatch, payload []byte) {
	t.Helper()
	r := &b.Requests[0]
	r.frame, r.Args = roomy(payload)
	want := encodeRequestBatch(b)
	if cap(want) != len(want) {
		t.Fatalf("copying request encoder sized its buffer at %d for %d bytes", cap(want), len(want))
	}
	head := len(appendRequestOpen(appendRequestsOpen(nil, &b, false), r))
	got := frameRequestBatch(b)
	if head > frameHeadroom {
		if got != nil {
			t.Fatalf("a %d-byte head was framed into %d bytes of headroom", head, frameHeadroom)
		}
		return
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("in-place and copying request encoders disagree (head %d, payload %d)\n got %x\nwant %x",
			head, len(payload), clip(got), clip(want))
	}
	if len(payload) > 0 && &got[head] != &r.Args[0] {
		t.Fatal("framed request batch is not built around the payload where it lies")
	}
}

// checkFramedReply is checkFramedRequest for a one-reply batch.
func checkFramedReply(t *testing.T, b replyBatch, payload []byte) {
	t.Helper()
	r := &b.Replies[0]
	r.Outcome.frame, r.Outcome.Payload = roomy(payload)
	want := encodeReplyBatch(b)
	if cap(want) != len(want) {
		t.Fatalf("copying reply encoder sized its buffer at %d for %d bytes", cap(want), len(want))
	}
	head := len(appendReplyOpen(appendRepliesOpen(nil, &b, 0), r))
	got := frameReplyBatch(b)
	if head > frameHeadroom {
		if got != nil {
			t.Fatalf("a %d-byte head was framed into %d bytes of headroom", head, frameHeadroom)
		}
		return
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("in-place and copying reply encoders disagree (head %d, payload %d)\n got %x\nwant %x",
			head, len(payload), clip(got), clip(want))
	}
	if len(payload) > 0 && &got[head] != &r.Outcome.Payload[0] {
		t.Fatal("framed reply batch is not built around the payload where it lies")
	}
}

// clip keeps a failure message readable: both ends of a long message.
func clip(b []byte) []byte {
	if len(b) <= 400 {
		return b
	}
	return append(append([]byte(nil), b[:200]...), b[len(b)-200:]...)
}

// varintWide returns a value whose integer encoding takes k varint bytes
// (1 to 10) after the tag.
func varintWide(k int) uint64 {
	if k == 10 {
		return 1 << 62
	}
	return 1 << (7*k - 2)
}

// TestFramedEncodersAgree walks the two encoder pairs over the corners of
// their input: every integer at each of the ten varint widths, names from
// empty (the head fits whatever the integers) to longer than the headroom
// (it cannot: the in-place encoder must decline, not truncate), payloads
// on both sides of a page and at 1 MiB.
func TestFramedEncodersAgree(t *testing.T) {
	payloads := [][]byte{nil, bytes.Repeat([]byte{0xC3}, 4095), bytes.Repeat([]byte{0x3C}, 4096),
		bytes.Repeat([]byte{0x77}, 1<<20)}
	nameLens := []int{0, 1, 20, frameHeadroom / 3, frameHeadroom - 60, frameHeadroom, frameHeadroom + 1, 300}
	for k := 1; k <= 10; k++ {
		v := varintWide(k)
		if got := len(wire.AppendInt(nil, int64(v))) - 1; got != k {
			t.Fatalf("varintWide(%d) encodes in %d bytes", k, got)
		}
		for _, n := range nameLens {
			name := strings.Repeat("n", n)
			for _, p := range payloads {
				for _, names := range [][3]string{{name, "g", "p"}, {"a", name, "p"}, {"a", "g", name}} {
					checkFramedRequest(t, requestBatch{Agent: names[0], Group: names[1], Incarnation: v,
						AckRepliesThrough: v, Requests: []request{{Seq: v, Port: names[2], Mode: Mode(k % 3),
							Trace: v, Root: v, Parent: v}}}, p)
					checkFramedReply(t, replyBatch{Agent: names[0], Group: names[1], Incarnation: v, Epoch: v,
						AckRequestsThrough: v, CompletedThrough: v, Credit: v,
						Replies: []reply{{Seq: v, Outcome: Outcome{Normal: true}}}}, p)
				}
			}
		}
	}
}

// TestFramedEncodersDecline: every shape outside the ride-alone rule is
// left to the copying encoders.
func TestFramedEncodersDecline(t *testing.T) {
	frame, view := roomy(bytes.Repeat([]byte{1}, rideAlone))
	req := request{Seq: 1, Port: "p", Args: view, frame: frame}
	for name, reqs := range map[string][]request{
		"empty batch":   nil,
		"two requests":  {req, req},
		"plain bytes":   {{Seq: 1, Port: "p", Args: view}},
		"continuation":  {{Seq: 1, Port: "p", Args: view, frame: frame, Cont: []byte{1}}},
		"small, framed": {{Seq: 1, Port: "p", Args: view, frame: frame}, {Seq: 2, Port: "p", Args: []byte{1}}},
	} {
		if frameRequestBatch(requestBatch{Agent: "a", Group: "g", Requests: reqs}) != nil {
			t.Errorf("request batch with %s was framed in place", name)
		}
	}
	ok := Outcome{Normal: true, Payload: view, frame: frame}
	exc, piped, plainO := ok, ok, ok
	exc.Normal, exc.Exception = false, "failure"
	piped.Piped = true
	plainO.frame = nil
	for name, reps := range map[string][]reply{
		"empty batch": nil,
		"two replies": {{Seq: 1, Outcome: ok}, {Seq: 2, Outcome: ok}},
		"exception":   {{Seq: 1, Outcome: exc}},
		"piped":       {{Seq: 1, Outcome: piped}},
		"plain bytes": {{Seq: 1, Outcome: plainO}},
	} {
		if frameReplyBatch(replyBatch{Agent: "a", Group: "g", Replies: reps}) != nil {
			t.Errorf("reply batch with %s was framed in place", name)
		}
	}
}

// FuzzFramedEncodersAgree lets the fuzzer pick the names, the integers and
// the payload; the in-place encoders must match the copying ones byte for
// byte whenever they accept, and accept exactly when the head fits.
func FuzzFramedEncodersAgree(f *testing.F) {
	f.Add("a1", "g1", "echo", uint64(1), uint64(0), uint64(1), uint64(0xDEADBEEF), uint64(0), uint64(0), uint8(0), uint16(4096), byte(7))
	f.Add("", "", "", uint64(1<<63), uint64(1<<62), ^uint64(0), ^uint64(0), uint64(1<<35), uint64(1<<14), uint8(2), uint16(0), byte(0))
	f.Add(strings.Repeat("x", 70), "main", strings.Repeat("y", 40), uint64(3), uint64(900), uint64(901), uint64(5), uint64(5), uint64(4), uint8(1), uint16(65535), byte(255))
	f.Add("agent", strings.Repeat("g", 200), "p", uint64(1), uint64(1), uint64(2), uint64(3), uint64(4), uint64(5), uint8(0), uint16(100), byte(1))
	f.Fuzz(func(t *testing.T, agent, group, port string, inc, ack, seq, tid, root, parent uint64, mode uint8, n uint16, fill byte) {
		payload := bytes.Repeat([]byte{fill}, int(n))
		checkFramedRequest(t, requestBatch{Agent: agent, Group: group, Incarnation: inc, AckRepliesThrough: ack,
			Requests: []request{{Seq: seq, Port: port, Mode: Mode(mode % 3), Trace: tid, Root: root, Parent: parent}}}, payload)
		checkFramedReply(t, replyBatch{Agent: agent, Group: group, Incarnation: inc, Epoch: tid,
			AckRequestsThrough: ack, CompletedThrough: root, Credit: parent,
			Replies: []reply{{Seq: seq, Outcome: Outcome{Normal: true}}}}, payload)
	})
}

// TestMarshalLeavesRoomFromOnePage: Marshal's encoding is wire.Marshal's;
// from one page up it comes with the room the in-place encoders need.
func TestMarshalLeavesRoomFromOnePage(t *testing.T) {
	for _, n := range []int{0, 32, rideAlone - 16, rideAlone, 16 << 10} {
		arg := bytes.Repeat([]byte{9}, n)
		m, err := Marshal(arg, int64(n))
		if err != nil {
			t.Fatal(err)
		}
		want, _ := wire.Marshal(arg, int64(n))
		if !bytes.Equal(m.Bytes(), want) {
			t.Fatalf("%d bytes: Marshal's encoding differs from wire.Marshal's", n)
		}
		if big := len(want) >= rideAlone; big != (m.frame() != nil) {
			t.Fatalf("%d bytes (encoded %d): framed = %v", n, len(want), m.frame() != nil)
		}
		if fr := m.frame(); fr != nil && (len(fr)-len(want) != frameHeadroom || cap(fr)-len(fr) < frameTailroom) {
			t.Fatalf("%d bytes: room %d before, %d after", n, len(fr)-len(want), cap(fr)-len(fr))
		}
	}
}

// bulkArg is the i-th call's argument in the tests below: size bytes that
// carry i at the front and a pattern that differs from call to call.
func bulkArg(i, size int) []byte {
	b := make([]byte, size)
	for j := range b {
		b[j] = byte(i + j)
	}
	b[0], b[1] = byte(i), byte(i>>8)
	return b
}

// reMarshal is the test dispatcher's echo: decode the argument list as
// views, encode it again as the results. What a guardian handler that
// returns call.Args does, minus the guardian.
func reMarshal(call *Incoming) Outcome {
	vals, err := wire.UnmarshalInto(nil, call.Args)
	if err != nil {
		return ExceptionOutcome(exception.Failure("reMarshal"))
	}
	m, err := Marshal(vals...)
	if err != nil {
		return ExceptionOutcome(exception.Failure("reMarshal"))
	}
	return NormalMarshalled(m)
}

// callBulk marshals arg the way promise.Call does and makes the call.
func callBulk(t *testing.T, s *Stream, port string, arg []byte) (Pending, Marshalled) {
	t.Helper()
	m, err := Marshal(arg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.CallMarshalled(context.Background(), port, m, trace.Cause{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return p, m
}

// claimBulk claims p and checks the echoed list is arg, byte for byte.
func claimBulk(t *testing.T, p Pending, i int, arg []byte) Outcome {
	t.Helper()
	o := claim(t, p)
	if !o.Normal {
		t.Fatalf("call %d: outcome %+v", i, o.Err())
	}
	vals, err := wire.Unmarshal(o.Payload)
	if err != nil || len(vals) != 1 {
		t.Fatalf("call %d: reply decodes to %v, %v", i, vals, err)
	}
	if got, _ := vals[0].([]byte); !bytes.Equal(got, arg) {
		t.Fatalf("call %d: echoed %d bytes, not the %d sent", i, len(got), len(arg))
	}
	return o
}

// TestBulkCallTravelsInItsOwnBuffer follows one big call over a lossless
// simnet, which hands the receiver the very slice the sender transmitted:
// the handler's argument bytes are the caller's marshalled bytes and the
// claimed payload is the handler's marshalled results — neither was copied
// into a message on the way — and each rode in a batch of one.
func TestBulkCallTravelsInItsOwnBuffer(t *testing.T) {
	reg := metrics.NewRegistry()
	opts := fastOpts()
	opts.Metrics = reg
	f := newFixture(t, simnet.Config{}, opts)
	var argsAt, resultsAt atomic.Pointer[byte]
	f.handle("echo", func(call *Incoming) Outcome {
		argsAt.Store(&call.Args[0])
		o := reMarshal(call)
		resultsAt.Store(&o.Payload[0])
		return o
	})
	s := f.client.Agent("a1").Stream("server", "g1")
	arg := bulkArg(1, 16<<10)
	p, m := callBulk(t, s, "echo", arg) // no Flush: a big call closes its batch
	o := claimBulk(t, p, 1, arg)
	if argsAt.Load() != &m.Bytes()[0] {
		t.Error("the handler's argument bytes are a copy of what the caller marshalled")
	}
	if resultsAt.Load() != &o.Payload[0] {
		t.Error("the claimed payload is a copy of what the handler marshalled")
	}
	snap := reg.Snapshot()
	if h := snap.Histograms["stream_batch_calls"]; h.Count != 1 || h.Sum != 1 {
		t.Errorf("request batches: %d carrying %d calls, want 1 and 1", h.Count, h.Sum)
	}
}

// TestMixedBatchStaysOneBatch: small calls are waiting in the buffer when
// a big one arrives. The big call closes the batch, which goes out whole —
// one message, through the copying encoder, nothing reordered.
func TestMixedBatchStaysOneBatch(t *testing.T) {
	f := newFixture(t, simnet.Config{}, Options{MaxBatch: 16, MaxBatchDelay: time.Second, RTO: time.Second})
	ring := trace.NewRing(64)
	f.client.SetTracer(ring)
	var order []int
	var argsAt atomic.Pointer[byte]
	f.handle("echo", func(call *Incoming) Outcome {
		order = append(order, int(call.Seq)) // serial executor: no lock needed
		argsAt.Store(&call.Args[0])
		return reMarshal(call)
	})
	s := f.client.Agent("a1").Stream("server", "g1")
	var ps []Pending
	var args [][]byte
	for i := 0; i < 3; i++ {
		args = append(args, bulkArg(i, 24))
		p, _ := callBulk(t, s, "echo", args[i])
		ps = append(ps, p)
	}
	args = append(args, bulkArg(3, 8<<10))
	p, m := callBulk(t, s, "echo", args[3])
	ps = append(ps, p)
	for i, p := range ps {
		claimBulk(t, p, i, args[i])
	}
	if sent := ring.Filter(trace.BatchSent); len(sent) != 1 || sent[0].Detail != trace.BatchDetail(4) {
		t.Errorf("request batches sent: %+v, want one of 4 calls", sent)
	}
	if fmt.Sprint(order) != "[1 2 3 4]" {
		t.Errorf("execution order %v", order)
	}
	if argsAt.Load() == &m.Bytes()[0] {
		t.Error("a batch of four was built in the big call's buffer")
	}
}

// TestBulkInterleavedUnderLossAndDuplication: small and big calls
// alternate on one stream over a network that drops and duplicates.
// Every call executes exactly once, in order, and every reply is the
// caller's own bytes — whichever encoder each transmission and
// retransmission went through.
func TestBulkInterleavedUnderLossAndDuplication(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			t.Parallel()
			cfg := simnet.Config{LossRate: 0.05, DupRate: 0.05, Jitter: 200 * time.Microsecond, Seed: seed}
			opts := Options{MaxBatch: 4, MaxBatchDelay: 500 * time.Microsecond,
				RTO: 4 * time.Millisecond, MaxRetries: 100}
			f := newFixture(t, cfg, opts)
			var mu sync.Mutex
			var order []int
			f.handle("echo", func(call *Incoming) Outcome {
				mu.Lock()
				order = append(order, int(call.Seq))
				mu.Unlock()
				return reMarshal(call)
			})
			s := f.client.Agent("a1").Stream("server", "g1")
			const n = 120
			ps, args := make([]Pending, n), make([][]byte, n)
			for i := range ps {
				size := 16
				if i%3 == 1 {
					size = 5<<10 + i // past a page, a different length each time
				}
				args[i] = bulkArg(i, size)
				ps[i], _ = callBulk(t, s, "echo", args[i])
			}
			s.Flush()
			for i, p := range ps {
				claimBulk(t, p, i, args[i])
			}
			mu.Lock()
			defer mu.Unlock()
			if len(order) != n {
				t.Fatalf("%d executions of %d calls", len(order), n)
			}
			for i, seq := range order {
				if seq != i+1 {
					t.Fatalf("execution %d was seq %d", i, seq)
				}
			}
		})
	}
}

// TestBulkCallRetransmittedThroughCopyingPath: the one transmission that
// may use the call's own buffer is lost. The retransmission is encoded
// from the stream's view of the arguments, arrives intact, and the call
// runs once.
func TestBulkCallRetransmittedThroughCopyingPath(t *testing.T) {
	reg := metrics.NewRegistry()
	opts := fastOpts()
	opts.Metrics = reg
	f := newFixture(t, simnet.Config{}, opts)
	var runs atomic.Int32
	var argsAt atomic.Pointer[byte]
	f.handle("echo", func(call *Incoming) Outcome {
		runs.Add(1)
		argsAt.Store(&call.Args[0])
		return reMarshal(call)
	})
	s := f.client.Agent("a1").Stream("server", "g1")
	f.net.Partition("client", "server")
	arg := bulkArg(7, 16<<10)
	p, m := callBulk(t, s, "echo", arg) // transmitted at once, into the partition
	f.net.Heal("client", "server")
	claimBulk(t, p, 7, arg)
	if n := runs.Load(); n != 1 {
		t.Errorf("executed %d times", n)
	}
	if reg.Snapshot().Counters["stream_retransmits_total"] == 0 {
		t.Error("the call arrived without a retransmission; the test did not drop the first one")
	}
	if argsAt.Load() == &m.Bytes()[0] {
		t.Error("the retransmission reused the buffer the first transmission was built in")
	}
}

// TestBulkResultsFromParallelPorts: handlers of a parallel port finish out
// of order, each with results that ride alone; replies still resolve in
// call order with the right bytes.
func TestBulkResultsFromParallelPorts(t *testing.T) {
	f := newFixture(t, simnet.Config{}, fastOpts())
	f.server.SetParallelPorts(func(port string) bool { return port == "par" })
	f.handle("par", func(call *Incoming) Outcome {
		if call.Seq%2 == 1 {
			time.Sleep(time.Millisecond) // odd calls finish after their successors
		}
		return reMarshal(call)
	})
	s := f.client.Agent("a1").Stream("server", "g1")
	const n = 24
	ps, args := make([]Pending, n), make([][]byte, n)
	for i := range ps {
		args[i] = bulkArg(i, 6<<10)
		ps[i], _ = callBulk(t, s, "par", args[i])
	}
	for i := n - 1; i >= 0; i-- {
		claimBulk(t, ps[i], i, args[i])
		if i > 0 && !ps[i-1].Ready() {
			t.Fatalf("call %d ready before call %d", i, i-1)
		}
	}
}

// TestBulkCallsDoNotSteerAdaptiveBatching: a framed single is closed by
// its size, not by a timer, and says nothing about how many small calls
// the arrival process could fill a batch with. A run of them must leave
// the adaptive limit where the small-call traffic put it.
func TestBulkCallsDoNotSteerAdaptiveBatching(t *testing.T) {
	reg := metrics.NewRegistry()
	opts := Options{MaxBatch: 16, AdaptiveBatch: true, Metrics: reg}
	f := newFixture(t, simnet.Config{}, opts)
	f.handle("echo", reMarshal)
	s := f.client.Agent("a1").Stream("server", "g1")
	before := s.BatchLimit()
	for i := 0; i < 3*adaptEpochResolutions; i++ {
		arg := bulkArg(i, 4<<10)
		p, _ := callBulk(t, s, "echo", arg)
		claimBulk(t, p, i, arg)
	}
	if after := s.BatchLimit(); after < before {
		t.Errorf("batch limit fell from %d to %d over a run of ride-alone calls", before, after)
	}
	snap := reg.Snapshot()
	if h := snap.Histograms["stream_batch_calls"]; h.Count != h.Sum {
		t.Errorf("%d batches carried %d calls; every big call should ride alone", h.Count, h.Sum)
	}
}
