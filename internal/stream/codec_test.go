package stream

import (
	"context"
	"encoding/hex"
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"promises/internal/exception"
	"promises/internal/simnet"
	"promises/internal/wire"
)

func TestRequestBatchRoundTrip(t *testing.T) {
	in := requestBatch{
		Agent:             "a1",
		Group:             "g1",
		Incarnation:       3,
		AckRepliesThrough: 17,
		Requests: []request{
			{Seq: 18, Port: "record_grade", Mode: ModeCall, Args: []byte{1, 2}},
			{Seq: 19, Port: "print", Mode: ModeSend, Args: nil},
			{Seq: 20, Port: "read", Mode: ModeRPC, Args: []byte{}},
		},
	}
	kind, rb, pb, bm, err := decodeMessage(encodeRequestBatch(in))
	if err != nil || kind != kindRequestBatch || pb != nil || bm != nil {
		t.Fatalf("decode = %d, %v, %v, %v, %v", kind, rb, pb, bm, err)
	}
	if rb.Agent != in.Agent || rb.Group != in.Group ||
		rb.Incarnation != in.Incarnation || rb.AckRepliesThrough != in.AckRepliesThrough {
		t.Fatalf("header = %+v", rb)
	}
	if len(rb.Requests) != 3 {
		t.Fatalf("requests = %+v", rb.Requests)
	}
	for i, r := range rb.Requests {
		if r.Seq != in.Requests[i].Seq || r.Port != in.Requests[i].Port ||
			r.Mode != in.Requests[i].Mode || string(r.Args) != string(in.Requests[i].Args) {
			t.Fatalf("request %d = %+v, want %+v", i, r, in.Requests[i])
		}
	}
}

func TestReplyBatchRoundTrip(t *testing.T) {
	in := replyBatch{
		Agent:              "a1",
		Group:              "g1",
		Incarnation:        2,
		Epoch:              99,
		AckRequestsThrough: 7,
		CompletedThrough:   5,
		Replies: []reply{
			{Seq: 4, Outcome: NormalOutcome([]byte("ok"))},
			{Seq: 5, Outcome: Outcome{Normal: false, Exception: "no_such_user", Payload: []byte{9}}},
		},
	}
	kind, rb, pb, bm, err := decodeMessage(encodeReplyBatch(in))
	if err != nil || kind != kindReplyBatch || rb != nil || bm != nil {
		t.Fatalf("decode = %d, %v, %v, %v, %v", kind, rb, pb, bm, err)
	}
	if pb.Epoch != 99 || pb.AckRequestsThrough != 7 || pb.CompletedThrough != 5 {
		t.Fatalf("header = %+v", pb)
	}
	if len(pb.Replies) != 2 || pb.Replies[0].Outcome.Normal == false ||
		pb.Replies[1].Outcome.Exception != "no_such_user" {
		t.Fatalf("replies = %+v", pb.Replies)
	}
}

func TestBreakMsgRoundTrip(t *testing.T) {
	in := breakMsg{
		Agent:       "a",
		Group:       "g",
		Incarnation: 4,
		Synchronous: true,
		BrokenAfter: 12,
		ExcName:     exception.NameFailure,
		Reason:      "could not decode",
	}
	kind, rb, pb, bm, err := decodeMessage(encodeBreak(in))
	if err != nil || kind != kindBreak || rb != nil || pb != nil {
		t.Fatalf("decode = %d, %v, %v, %v, %v", kind, rb, pb, bm, err)
	}
	if *bm != in {
		t.Fatalf("break = %+v, want %+v", *bm, in)
	}
}

// Property: request batches round-trip for arbitrary contents.
func TestPropertyRequestBatchRoundTrip(t *testing.T) {
	f := func(agent, group string, inc, ack uint32, seqs []uint16, port string, args []byte) bool {
		in := requestBatch{
			Agent: agent, Group: group,
			Incarnation: uint64(inc), AckRepliesThrough: uint64(ack),
		}
		for i, s := range seqs {
			in.Requests = append(in.Requests, request{
				Seq: uint64(s), Port: port, Mode: Mode(i % 3), Args: args,
			})
		}
		kind, rb, _, _, err := decodeMessage(encodeRequestBatch(in))
		if err != nil || kind != kindRequestBatch {
			return false
		}
		if rb.Agent != agent || rb.Group != group || len(rb.Requests) != len(in.Requests) {
			return false
		}
		for i := range in.Requests {
			if rb.Requests[i].Seq != in.Requests[i].Seq ||
				rb.Requests[i].Mode != in.Requests[i].Mode ||
				string(rb.Requests[i].Args) != string(in.Requests[i].Args) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: decodeMessage never panics and reports an error (or a valid
// kind) for arbitrary garbage — a garbled datagram must not kill a peer.
func TestPropertyDecodeMessageRobustToGarbage(t *testing.T) {
	f := func(data []byte) bool {
		defer func() {
			if recover() != nil {
				t.Error("decodeMessage panicked")
			}
		}()
		kind, _, _, _, err := decodeMessage(data)
		if err != nil {
			return true
		}
		return kind == kindRequestBatch || kind == kindReplyBatch || kind == kindBreak
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Truncating a valid message at every prefix must error, not panic.
func TestDecodeMessageTruncation(t *testing.T) {
	full := encodeReplyBatch(replyBatch{
		Agent: "a", Group: "g", Incarnation: 1, Epoch: 2,
		Replies: []reply{{Seq: 1, Outcome: NormalOutcome([]byte("abc"))}},
	})
	for i := 0; i < len(full); i++ {
		if _, _, _, _, err := decodeMessage(full[:i]); err == nil {
			t.Fatalf("truncation at %d decoded successfully", i)
		}
	}
}

// Flipping random bytes of valid messages must never panic.
func TestDecodeMessageBitflips(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	msgs := [][]byte{
		encodeRequestBatch(requestBatch{Agent: "a", Group: "g", Incarnation: 1,
			Requests: []request{{Seq: 1, Port: "p", Args: []byte("xyz")}}}),
		encodeReplyBatch(replyBatch{Agent: "a", Group: "g", Incarnation: 1, Epoch: 1,
			Replies: []reply{{Seq: 1, Outcome: NormalOutcome([]byte("xyz"))}}}),
		encodeBreak(breakMsg{Agent: "a", Group: "g", Incarnation: 1, ExcName: "e", Reason: "r"}),
	}
	for _, msg := range msgs {
		for trial := 0; trial < 200; trial++ {
			mut := append([]byte(nil), msg...)
			for flips := 0; flips <= trial%4; flips++ {
				mut[rng.Intn(len(mut))] ^= byte(1 << rng.Intn(8))
			}
			decodeMessage(mut) // must not panic; error or success both fine
		}
	}
}

// TestReplyBatchCreditCodecRoundTrip: the admission credit, a reply
// batch's 9th value, survives encode/decode.
func TestReplyBatchCreditCodecRoundTrip(t *testing.T) {
	in := replyBatch{
		Agent: "a1", Group: "g1", Incarnation: 2, Epoch: 5,
		AckRequestsThrough: 9, CompletedThrough: 9,
		Replies: []reply{{Seq: 9, Outcome: NormalOutcome([]byte("ok"))}},
		Credit:  4105,
	}
	kind, _, pb, _, err := decodeMessage(encodeReplyBatch(in))
	if err != nil || kind != kindReplyBatch {
		t.Fatalf("decode: kind %d err %v", kind, err)
	}
	if pb.Credit != 4105 {
		t.Fatalf("Credit = %d, want 4105", pb.Credit)
	}
	if pb.CompletedThrough != 9 || len(pb.Replies) != 1 {
		t.Fatalf("batch = %+v", pb)
	}
}

// TestCauseCodecRoundTrip pins the request batch's trace-ID and cause
// lists through the real encoder and decoder: each request's (Root,
// Parent) pair survives, including zero pairs for chain roots.
func TestCauseCodecRoundTrip(t *testing.T) {
	in := requestBatch{
		Agent: "a", Group: "g", Incarnation: 2, AckRepliesThrough: 5,
		Requests: []request{
			{Seq: 1, Port: "p", Mode: ModeCall, Args: []byte{1}, Trace: 0xA1, Root: 0x51, Parent: 0x61},
			{Seq: 2, Port: "p", Mode: ModeSend, Args: []byte{2}, Trace: 0xA2},
			{Seq: 3, Port: "q", Mode: ModeRPC, Args: nil, Trace: 0xA3, Root: 0xA3, Parent: 0xA1},
		},
	}
	kind, out, _, _, err := decodeMessage(encodeRequestBatch(in))
	if err != nil || kind != kindRequestBatch {
		t.Fatalf("decode: kind %d err %v", kind, err)
	}
	defer releaseRequestBatch(out)
	if len(out.Requests) != len(in.Requests) {
		t.Fatalf("decoded %d requests, want %d", len(out.Requests), len(in.Requests))
	}
	for i, want := range in.Requests {
		got := out.Requests[i]
		if got.Trace != want.Trace || got.Root != want.Root || got.Parent != want.Parent {
			t.Errorf("request %d: trace/root/parent = %x/%x/%x, want %x/%x/%x",
				i, got.Trace, got.Root, got.Parent, want.Trace, want.Root, want.Parent)
		}
	}
}

// removedKinds are the two messages of the chain-resolution side channel
// that pipelined chains once used, as its encoder last wrote them: kind 4,
// a resolution (10 values), and kind 5, its acknowledgement (7). A chain's
// result now rides a ~pipe stream, and both kinds are unknown.
var removedKinds = map[string][]byte{
	"resolve/10":    mustHex("0a03080502643005046d61696e03080506636c69656e7405027331039a01020500062807070707070707070707070707070707070707070707070707070707070707070707070707070707"),
	"resolve-ack/7": mustHex("07030a0502643005046d61696e03080506636c69656e7405027331039a01"),
}

func mustHex(s string) []byte {
	b, err := hex.DecodeString(s)
	if err != nil {
		panic(err)
	}
	return b
}

// TestDecodeMessageRejectsRemovedLayouts: the decoder accepts one layout
// per message kind — request batches of 8 values, or 9 with continuations,
// reply batches of 9, and breaks of 8. The shorter and longer forms earlier
// encoders wrote (requests without trace IDs or causes, replies without
// credit or with a piped-seq list) are errors, as are the removed kinds 4
// and 5 and anything else.
func TestDecodeMessageRejectsRemovedLayouts(t *testing.T) {
	// The values after the sixth of a request batch, in order.
	reqTail := []func([]byte) []byte{
		func(b []byte) []byte { return wire.AppendInt(wire.AppendList(b, 1), 0xCAFE) },               // trace IDs
		func(b []byte) []byte { return wire.AppendInt(wire.AppendInt(wire.AppendList(b, 2), 5), 6) }, // causes
		func(b []byte) []byte { return wire.AppendBytes(wire.AppendList(b, 1), nil) },                // continuations
		func(b []byte) []byte { return wire.AppendInt(wire.AppendList(b, 1), 1) },                    // nothing writes this
	}
	req := func(nvals int) []byte {
		b := wire.AppendHeader(nil, nvals)
		b = wire.AppendInt(b, kindRequestBatch)
		b = wire.AppendString(b, "a")
		b = wire.AppendString(b, "g")
		b = wire.AppendInt(b, 1) // incarnation
		b = wire.AppendInt(b, 0) // reply ack
		b = wire.AppendList(b, 1)
		b = wire.AppendList(b, 4)
		b = wire.AppendInt(b, 1)
		b = wire.AppendString(b, "echo")
		b = wire.AppendInt(b, int64(ModeCall))
		b = wire.AppendBytes(b, []byte{7})
		for _, tail := range reqTail[:nvals-6] {
			b = tail(b)
		}
		return b
	}
	rep := func(nvals int) []byte {
		b := wire.AppendHeader(nil, nvals)
		b = wire.AppendInt(b, kindReplyBatch)
		b = wire.AppendString(b, "a")
		b = wire.AppendString(b, "g")
		for _, v := range []int64{1, 9, 1, 1} { // incarnation, epoch, request ack, completed
			b = wire.AppendInt(b, v)
		}
		b = wire.AppendList(b, 1)
		b = wire.AppendList(b, 4)
		b = wire.AppendInt(b, 1)
		b = wire.AppendBool(b, true)
		b = wire.AppendString(b, "")
		b = wire.AppendBytes(b, []byte("ok"))
		if nvals > 8 {
			b = wire.AppendInt(b, 4097) // credit
		}
		if nvals > 9 {
			b = wire.AppendInt(wire.AppendList(b, 1), 1) // piped seqs
		}
		return b
	}
	for _, tc := range []struct {
		name string
		msg  []byte
		ok   bool
	}{
		{"request/6", req(6), false},
		{"request/7", req(7), false},
		{"request/8", req(8), true},
		{"request/9", req(9), true},
		{"request/10", req(10), false},
		{"reply/8", rep(8), false},
		{"reply/9", rep(9), true},
		{"reply/10", rep(10), false},
		{"break/8", encodeBreak(breakMsg{Agent: "a", Group: "g", Incarnation: 1}), true},
		{"break/9", append(wire.AppendHeader(nil, 9), encodeBreak(breakMsg{Agent: "a", Group: "g", Incarnation: 1})[1:]...), false},
		{"resolve/10", removedKinds["resolve/10"], false},
		{"resolve-ack/7", removedKinds["resolve-ack/7"], false},
	} {
		_, _, _, _, err := decodeMessage(tc.msg)
		if (err == nil) != tc.ok {
			t.Errorf("%s: decode error %v, want accepted = %v", tc.name, err, tc.ok)
		}
	}
}

// foreignReceiver runs, on node, a responder written WITHOUT this package:
// it decodes request batches by hand, answers each in-order call with
// exec(args), and hand-encodes 9-value reply batches with a stable epoch
// and a credit of window calls past its completed prefix. It keeps the
// protocol obligations — ack requests, report completion, reply in order,
// echo the incarnation — and counts request seqs that arrive beyond the
// credit it last advertised.
func foreignReceiver(ctx context.Context, node *simnet.Node, window int64, exec func([]byte) []byte) *atomic.Int64 {
	violations := new(atomic.Int64)
	go func() {
		const epoch = int64(7777)
		expected, advertised := int64(1), int64(0)
		var replies []any
		for {
			msg, err := node.Recv(ctx)
			if err != nil {
				return
			}
			vals, err := wire.Unmarshal(msg.Payload)
			if err != nil || len(vals) < 6 {
				continue
			}
			if kind, _ := wire.IntArg(vals, 0); kind != 1 { // request batch
				continue
			}
			agent, _ := wire.StringArg(vals, 1)
			group, _ := wire.StringArg(vals, 2)
			inc, _ := wire.IntArg(vals, 3)
			raw, _ := wire.Arg(vals, 5)
			reqs, _ := wire.AsList(raw)
			for _, e := range reqs {
				fields, _ := wire.AsList(e)
				seq, _ := wire.IntArg(fields, 0)
				// The receive loop is single-threaded, so any seq past the
				// credit advertised before this batch arrived is a sender
				// flow-control violation (retransmits of admitted seqs are
				// always at or below it).
				if advertised > 0 && seq > advertised {
					violations.Add(1)
				}
				if seq != expected {
					continue // out of order or duplicate; these tests' net is clean
				}
				argsRaw, _ := wire.Arg(fields, 3)
				argBytes, _ := wire.AsBytes(argsRaw)
				replies = append(replies, []any{seq, true, "", exec(argBytes)})
				expected++
			}
			advertised = expected - 1 + window
			// kind=2 reply batch: agent, group, incarnation, epoch,
			// ackRequestsThrough, completedThrough, replies, credit
			reply, err := wire.Marshal(int64(2), agent, group, inc, epoch,
				expected-1, expected-1, replies, advertised)
			if err != nil {
				continue
			}
			_ = node.Send(msg.From, reply)
		}
	}()
	return violations
}

// TestForeignReceiverInterop is the heterogeneity check the Mercury
// context implies: the stream protocol is language-independent, so a
// receiver implemented without this package, speaking only the wire
// format, must serve our sender. If this test breaks, the wire format
// changed incompatibly.
func TestForeignReceiverInterop(t *testing.T) {
	net := simnet.New(simnet.Config{})
	defer net.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	foreignReceiver(ctx, net.MustAddNode("foreign"), recvWindow, func(args []byte) []byte {
		callVals, _ := wire.Unmarshal(args)
		s, _ := wire.StringArg(callVals, 0)
		payload, _ := wire.Marshal(upper(s))
		return payload
	})

	// Our sender talks to it through the normal stack.
	client := NewPeer(net.MustAddNode("client"), fastOpts())
	defer client.Close()
	s := client.Agent("a1").Stream("foreign", "g1")

	words := []string{"promise", "stream", "claim"}
	ps := make([]Pending, len(words))
	for i, w := range words {
		args, err := wire.Marshal(w)
		if err != nil {
			t.Fatal(err)
		}
		p, err := s.Call("upper", args)
		if err != nil {
			t.Fatal(err)
		}
		ps[i] = p
	}
	s.Flush()
	for i, p := range ps {
		o := claim(t, p)
		if !o.Normal {
			t.Fatalf("call %d outcome = %+v", i, o)
		}
		vals, err := o.Results()
		if err != nil {
			t.Fatal(err)
		}
		got, err := wire.StringArg(vals, 0)
		if err != nil || got != upper(words[i]) {
			t.Fatalf("call %d = %q, %v", i, got, err)
		}
	}

	// Synch also completes against the foreign endpoint.
	sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer scancel()
	if err := s.Synch(sctx); err != nil {
		t.Fatalf("Synch = %v", err)
	}
}

func upper(s string) string {
	b := []byte(s)
	for i, c := range b {
		if 'a' <= c && c <= 'z' {
			b[i] = c - 'a' + 'A'
		}
	}
	return string(b)
}

// TestForeignReceiverCreditRespected: a foreign receiver advertises a
// 2-call admission window, far below this package's own. The sender must
// never transmit a request seq beyond the credit it was granted.
func TestForeignReceiverCreditRespected(t *testing.T) {
	net := simnet.New(simnet.Config{})
	defer net.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	violations := foreignReceiver(ctx, net.MustAddNode("foreign"), 2, func(args []byte) []byte { return args })

	client := NewPeer(net.MustAddNode("client"), Options{
		MaxBatchDelay: 500 * time.Microsecond, RTO: 20 * time.Millisecond, MaxRetries: 50})
	defer client.Close()
	s := client.Agent("a1").Stream("foreign", "g1")

	// The first call round-trips alone, so the receiver's credit is on
	// record before the pipelined burst begins.
	p0, err := s.Call("echo", []byte{0})
	if err != nil {
		t.Fatal(err)
	}
	if o := claim(t, p0); !o.Normal || o.Payload[0] != 0 {
		t.Fatalf("warmup call = %+v", o)
	}

	const n = 12
	pch := make(chan Pending, n)
	go func() {
		for i := 1; i < n; i++ {
			p, err := s.Call("echo", []byte{byte(i)})
			if err != nil {
				t.Errorf("Call %d: %v", i, err)
				close(pch)
				return
			}
			pch <- p
		}
		close(pch)
	}()
	i := 1
	for p := range pch {
		o := claim(t, p)
		if !o.Normal || o.Payload[0] != byte(i) {
			t.Fatalf("call %d outcome = %+v", i, o)
		}
		i++
	}
	if i != n {
		t.Fatalf("claimed %d calls, want %d", i, n)
	}
	if v := violations.Load(); v != 0 {
		t.Errorf("sender transmitted %d request seqs beyond the advertised credit", v)
	}
}
