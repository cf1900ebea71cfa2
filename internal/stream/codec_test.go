package stream

import (
	"bytes"
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
	kind, rb, pb, bm, err := decodeMessage(encodeRequestBatch(in, nil))
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
	kind, rb, pb, bm, err := decodeMessage(encodeReplyBatch(in, nil))
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
	f := func(agent, group string, inc, ack uint32, first uint16, n uint8, port string, args []byte) bool {
		in := requestBatch{
			Agent: agent, Group: group,
			Incarnation: uint64(inc), AckRepliesThrough: uint64(ack),
		}
		for i := 0; i < int(n%32); i++ {
			in.Requests = append(in.Requests, request{
				Seq: uint64(first) + 1 + uint64(i), Port: port, Mode: Mode(i % 3), Args: args,
			})
		}
		kind, rb, _, _, err := decodeMessage(encodeRequestBatch(in, nil))
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

// FuzzRequestBatchRoundTrip: a batch of consecutive calls decodes to
// itself, request i as seq first+i, and an empty one keeps what it says
// in place of a first seq (a probe's next unsent seq, a pure ack's 0); a
// batch with requests that would start at seq 0, or run past the widest
// seq the integer encoding carries, is rejected; and arbitrary bytes
// never panic the decoder. Every golden message of either batch kind
// seeds the arbitrary bytes, those that report a hole in Held included.
func FuzzRequestBatchRoundTrip(f *testing.F) {
	for _, b := range goldenRequestBatches() {
		var first uint64
		if len(b.Requests) > 0 {
			first = b.Requests[0].Seq
		}
		f.Add(encodeRequestBatch(b, nil), b.Agent, b.Group, "echo", b.Incarnation, b.AckRepliesThrough, b.Held,
			first, uint8(len(b.Requests)), []byte{1}, uint64(7), []byte(nil))
	}
	for _, b := range goldenReplyBatches() {
		f.Add(encodeReplyBatch(b, nil), b.Agent, b.Group, "echo", b.Incarnation, b.AckRequestsThrough, b.Held,
			uint64(1), uint8(1), []byte{2}, uint64(0), []byte{3})
	}
	f.Add([]byte{}, "a", "g", "p", uint64(1), uint64(0), uint64(0), uint64(0), uint8(1), []byte(nil), uint64(0), []byte(nil))
	f.Add([]byte{8}, "a", "g", "p", uint64(1), uint64(0), uint64(maxSeq), uint64(maxSeq), uint8(2), []byte(nil), uint64(0), []byte("c"))
	f.Fuzz(func(t *testing.T, raw []byte, agent, group, port string, inc, ack, held, first uint64, n uint8,
		args []byte, cause uint64, cont []byte) {
		if kind, rb, pb, _, err := decodeMessage(raw); err == nil && kind == kindRequestBatch {
			releaseRequestBatch(rb)
		} else if err == nil && kind == kindReplyBatch {
			releaseReplyBatch(pb)
		}

		in := requestBatch{Agent: agent, Group: group, Incarnation: inc, AckRepliesThrough: ack, Held: held}
		for i := 0; i < int(n%40); i++ {
			r := request{Seq: first + uint64(i), Port: port, Mode: Mode(i % 3), Args: args,
				Root: cause + uint64(i), Parent: cause ^ uint64(i)}
			if i%3 == 1 && len(cont) > 0 {
				r.Cont = cont
			}
			in.Requests = append(in.Requests, r)
		}
		if len(in.Requests) == 0 {
			in.Probe = first // an empty batch is a probe unless it says 0
		}
		k := uint64(len(in.Requests))
		valid := k == 0 || first >= 1 && first <= maxSeq-(k-1)
		kind, out, _, _, err := decodeMessage(encodeRequestBatch(in, nil))
		if !valid {
			if err == nil {
				t.Fatalf("%d requests from seq %d decoded", k, first)
			}
			return
		}
		if err != nil || kind != kindRequestBatch {
			t.Fatalf("decode: kind %d, %v", kind, err)
		}
		defer releaseRequestBatch(out)
		if out.Agent != agent || out.Group != group || out.Incarnation != inc ||
			out.AckRepliesThrough != ack || out.Held != held || out.Probe != in.Probe || len(out.Requests) != len(in.Requests) {
			t.Fatalf("header %+v, %d requests; want %+v", *out, len(out.Requests), in)
		}
		for i, want := range in.Requests {
			got := out.Requests[i]
			if got.Seq != first+uint64(i) || got.Port != want.Port || got.Mode != want.Mode ||
				!bytes.Equal(got.Args, want.Args) || got.Root != want.Root || got.Parent != want.Parent ||
				!bytes.Equal(got.Cont, want.Cont) {
				t.Fatalf("request %d = %+v, want %+v", i, got, want)
			}
		}
	})
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
	}, nil)
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
			Requests: []request{{Seq: 1, Port: "p", Args: []byte("xyz")}}}, nil),
		encodeReplyBatch(replyBatch{Agent: "a", Group: "g", Incarnation: 1, Epoch: 1,
			Replies: []reply{{Seq: 1, Outcome: NormalOutcome([]byte("xyz"))}}}, nil),
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
// batch's 10th value, and Held before it survive encode/decode.
func TestReplyBatchCreditCodecRoundTrip(t *testing.T) {
	in := replyBatch{
		Agent: "a1", Group: "g1", Incarnation: 2, Epoch: 5,
		AckRequestsThrough: 9, Held: 300, CompletedThrough: 9,
		Replies: []reply{{Seq: 9, Outcome: NormalOutcome([]byte("ok"))}},
		Credit:  4105,
	}
	kind, _, pb, _, err := decodeMessage(encodeReplyBatch(in, nil))
	if err != nil || kind != kindReplyBatch {
		t.Fatalf("decode: kind %d err %v", kind, err)
	}
	if pb.Credit != 4105 || pb.Held != 300 {
		t.Fatalf("Credit, Held = %d, %d; want 4105, 300", pb.Credit, pb.Held)
	}
	if pb.CompletedThrough != 9 || len(pb.Replies) != 1 {
		t.Fatalf("batch = %+v", pb)
	}
}

// TestCauseCodecRoundTrip pins the request batch's cause list through the
// real encoder and decoder: each request's (Root, Parent) pair survives,
// including zero pairs for chain roots.
func TestCauseCodecRoundTrip(t *testing.T) {
	in := requestBatch{
		Agent: "a", Group: "g", Incarnation: 2, AckRepliesThrough: 5,
		Requests: []request{
			{Seq: 1, Port: "p", Mode: ModeCall, Args: []byte{1}, Root: 0x51, Parent: 0x61},
			{Seq: 2, Port: "p", Mode: ModeSend, Args: []byte{2}},
			{Seq: 3, Port: "q", Mode: ModeRPC, Args: nil, Root: 0xA3, Parent: 0xA1},
		},
	}
	kind, out, _, _, err := decodeMessage(encodeRequestBatch(in, nil))
	if err != nil || kind != kindRequestBatch {
		t.Fatalf("decode: kind %d err %v", kind, err)
	}
	defer releaseRequestBatch(out)
	if len(out.Requests) != len(in.Requests) {
		t.Fatalf("decoded %d requests, want %d", len(out.Requests), len(in.Requests))
	}
	for i, want := range in.Requests {
		got := out.Requests[i]
		if got.Seq != want.Seq || got.Root != want.Root || got.Parent != want.Parent {
			t.Errorf("request %d: seq, root, parent = %d, %x, %x; want %d, %x, %x",
				i, got.Seq, got.Root, got.Parent, want.Seq, want.Root, want.Parent)
		}
	}
}

// removedKinds are the two messages of the chain-resolution side channel
// that pipelined chains once used, as its encoder last wrote them: kind 4,
// a resolution (10 values), and kind 5, its acknowledgement (7). A chain's
// result now rides a ~pipe stream, and both kinds are unknown.
//
// removedBreaks is the break message as its encoder wrote it while the
// sender held a receiver's break open for a grace period: 8 values, with a
// synchronous flag and the seq the break came after before the exception.
//
// removedRequests are request batches in two layouts earlier encoders
// wrote (copied from the goldens they printed). From commit ce35917 until
// the first-seq layout replaced it, trace-ids: a seq in every request
// tuple, and a list of trace IDs before the cause list, 8 values or 9 with
// continuations; their 6th value is a list where a batch now has its
// first seq. Then no-held: the first-seq layout before Held, 8 values or
// 9, whose 6th value is the first seq where a batch now has Held, and an
// empty batch (a probe) of that layout.
//
// removedReplies is the reply batch of the layout before Held: 9 values,
// the completed prefix 7th where a batch now has Held.
var (
	removedKinds = map[string][]byte{
		"resolve/10":    mustHex("0a03080502643005046d61696e03080506636c69656e7405027331039a01020500062807070707070707070707070707070707070707070707070707070707070707070707070707070707"),
		"resolve-ack/7": mustHex("07030a0502643005046d61696e03080506636c69656e7405027331039a01"),
	}
	removedBreaks = map[string][]byte{
		"synchronous/8": mustMarshal(kindBreak, "a", "g", int64(1), true, int64(3), exception.NameFailure, "could not decode"),
	}
	removedRequests = map[string][]byte{
		"trace-ids/8":     mustHex("080302050261310502673103060322070107040324050c7265636f72645f6772616465030006020102070103fcabfeeeb7ab6f0702030e0312"),
		"trace-ids/9":     mustHex("0903020501610501670302030807020704030a0503696e630300060203040704030c0503696e63030006010507020316031807040300030003160316070206000611636f6e74696e756174696f6e20626c6f62"),
		"no-held/8":       mustHex("080302050261310502673103060322032407010703050c7265636f72645f67726164650300060201020702030e0312"),
		"no-held/9":       mustHex("09030205016105016703020308030a070207030503696e6303000602030407030503696e63030006010507040300030003160316070206000611636f6e74696e756174696f6e20626c6f62"),
		"no-held/8 probe": mustHex("080302050261310502673103020300030007000700"),
	}
	removedReplies = map[string][]byte{
		"no-held/9": mustHex("090304050261310502673103040390e4d0b287d3aeeefe01030e030a07020704030802050006026f6b0704030a01050c6e6f5f737563685f75736572060109038a40"),
	}
)

func mustHex(s string) []byte {
	b, err := hex.DecodeString(s)
	if err != nil {
		panic(err)
	}
	return b
}

// TestDecodeMessageRejectsRemovedLayouts: the decoder accepts one layout
// per message kind — request batches of 9 values, or 10 with
// continuations, reply batches of 10, and breaks of 6. The shorter and
// longer forms earlier encoders wrote (requests without trace IDs or
// causes, replies without credit or with a piped-seq list, breaks with a
// synchronous flag and break point, batches of either kind without Held)
// are errors, as are requests that carry their seqs and trace IDs, the
// removed kinds 4 and 5, and anything else.
func TestDecodeMessageRejectsRemovedLayouts(t *testing.T) {
	// The values after the eighth of a request batch, in order.
	reqTail := []func([]byte) []byte{
		func(b []byte) []byte { return wire.AppendInt(wire.AppendInt(wire.AppendList(b, 2), 5), 6) }, // causes
		func(b []byte) []byte { return wire.AppendBytes(wire.AppendList(b, 1), nil) },                // continuations
		func(b []byte) []byte { return wire.AppendInt(wire.AppendList(b, 1), 1) },                    // nothing writes this
	}
	// req writes a batch of one call: the first nvals values of the
	// layout, with the request list in place of the first seq when
	// first < 0, and first as the first seq otherwise.
	req := func(nvals int, first int64) []byte {
		b := wire.AppendHeader(nil, nvals)
		b = wire.AppendInt(b, kindRequestBatch)
		b = wire.AppendString(b, "a")
		b = wire.AppendString(b, "g")
		b = wire.AppendInt(b, 1) // incarnation
		b = wire.AppendInt(b, 0) // reply ack
		b = wire.AppendInt(b, 0) // held
		if first >= 0 {
			b = wire.AppendInt(b, first)
		}
		b = wire.AppendList(b, 1)
		b = wire.AppendList(b, 3)
		b = wire.AppendString(b, "echo")
		b = wire.AppendInt(b, int64(ModeCall))
		b = wire.AppendBytes(b, []byte{7})
		for _, tail := range reqTail[:max(nvals-8, 0)] {
			b = tail(b)
		}
		return b
	}
	rep := func(nvals int) []byte {
		b := wire.AppendHeader(nil, nvals)
		b = wire.AppendInt(b, kindReplyBatch)
		b = wire.AppendString(b, "a")
		b = wire.AppendString(b, "g")
		for _, v := range []int64{1, 9, 1, 0, 1} { // incarnation, epoch, request ack, held, completed
			b = wire.AppendInt(b, v)
		}
		b = wire.AppendList(b, 1)
		b = wire.AppendList(b, 4)
		b = wire.AppendInt(b, 1)
		b = wire.AppendBool(b, true)
		b = wire.AppendString(b, "")
		b = wire.AppendBytes(b, []byte("ok"))
		if nvals > 9 {
			b = wire.AppendInt(b, 4097) // credit
		}
		if nvals > 10 {
			b = wire.AppendInt(wire.AppendList(b, 1), 1) // piped seqs
		}
		return b
	}
	for _, tc := range []struct {
		name string
		msg  []byte
		ok   bool
	}{
		{"request/7", req(7, -1), false},
		{"request/8", req(8, 1), false},
		{"request/9", req(9, 1), true},
		{"request/10", req(10, 1), true},
		{"request/11", req(11, 1), false},
		{"request/9 from seq 0", req(9, 0), false},
		{"request/8 past the widest seq", encodeRequestBatch(requestBatch{Agent: "a", Group: "g",
			Requests: []request{{Seq: maxSeq}, {Seq: maxSeq + 1}}}, nil), false},
		{"request/trace-ids/8", removedRequests["trace-ids/8"], false},
		{"request/trace-ids/9", removedRequests["trace-ids/9"], false},
		{"request/no-held/8", removedRequests["no-held/8"], false},
		{"request/no-held/9", removedRequests["no-held/9"], false},
		{"request/no-held/8 probe", removedRequests["no-held/8 probe"], false},
		{"reply/9", rep(9), false},
		{"reply/10", rep(10), true},
		{"reply/11", rep(11), false},
		{"reply/no-held/9", removedReplies["no-held/9"], false},
		{"break/5", append(wire.AppendHeader(nil, 5), encodeBreak(breakMsg{Agent: "a", Group: "g", Incarnation: 1})[1:]...), false},
		{"break/6", encodeBreak(breakMsg{Agent: "a", Group: "g", Incarnation: 1}), true},
		{"break/8", removedBreaks["synchronous/8"], false},
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
// exec(args), and hand-encodes 10-value reply batches with a stable epoch
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
			if err != nil || len(vals) < 8 {
				continue
			}
			if kind, _ := wire.IntArg(vals, 0); kind != 1 { // request batch
				continue
			}
			agent, _ := wire.StringArg(vals, 1)
			group, _ := wire.StringArg(vals, 2)
			inc, _ := wire.IntArg(vals, 3)
			first, _ := wire.IntArg(vals, 6) // request i is call first+i
			raw, _ := wire.Arg(vals, 7)
			reqs, _ := wire.AsList(raw)
			for i, e := range reqs {
				fields, _ := wire.AsList(e)
				seq := first + int64(i)
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
				argsRaw, _ := wire.Arg(fields, 2)
				argBytes, _ := wire.AsBytes(argsRaw)
				replies = append(replies, []any{seq, true, "", exec(argBytes)})
				expected++
			}
			advertised = expected - 1 + window
			// kind=2 reply batch: agent, group, incarnation, epoch,
			// ackRequestsThrough, held (0: it keeps nothing out of order),
			// completedThrough, replies, credit
			reply, err := wire.Marshal(int64(2), agent, group, inc, epoch,
				expected-1, int64(0), expected-1, replies, advertised)
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
