package stream

import (
	"bytes"
	"encoding/hex"
	"testing"
)

// The golden messages pin the wire format of the three batch encoders to
// the bytes the encoders of PR 13 produced (the hex in golden_data_test.go
// was printed by that commit's encodeRequestBatch / encodeReplyBatch /
// encodeResolve on exactly these inputs): both request header counts (8,
// and 9 with continuations), both reply header counts (9, and 10 with
// piped seqs), and both resolve kinds.

const maxSeq = 1<<63 - 1 // the widest value the integer encoding carries

func goldenRequestBatches() map[string]requestBatch {
	big := bytes.Repeat([]byte{0xA5}, 300)
	return map[string]requestBatch{
		"req/probe": {Agent: "a1", Group: "g1", Incarnation: 1, AckRepliesThrough: 0},
		"req/one": {Agent: "a1", Group: "g1", Incarnation: 3, AckRepliesThrough: 17,
			Requests: []request{{Seq: 18, Port: "record_grade", Mode: ModeCall, Args: []byte{1, 2},
				Trace: 0xDEADBEEFCAFE, Root: 7, Parent: 9}}},
		"req/modes": {Agent: "agent-with-a-longer-name", Group: "main", Incarnation: 2, AckRepliesThrough: 300,
			Requests: []request{
				{Seq: 301, Port: "print", Mode: ModeSend, Args: nil, Trace: 1},
				{Seq: 302, Port: "read", Mode: ModeRPC, Args: []byte{}, Trace: 2, Root: 1, Parent: 1},
				{Seq: 303, Port: "echo", Mode: ModeCall, Args: big, Trace: maxSeq, Root: maxSeq, Parent: maxSeq},
			}},
		"req/wide": {Agent: "", Group: "", Incarnation: maxSeq, AckRepliesThrough: maxSeq,
			Requests: []request{{Seq: maxSeq, Port: "", Mode: ModeCall, Args: []byte("x")}}},
		"req/cont": {Agent: "a", Group: "g", Incarnation: 1, AckRepliesThrough: 4,
			Requests: []request{
				{Seq: 5, Port: "inc", Mode: ModeCall, Args: []byte{3, 4}, Trace: 11},
				{Seq: 6, Port: "inc", Mode: ModeCall, Args: []byte{5}, Trace: 12, Root: 11, Parent: 11,
					Cont: []byte("continuation blob")},
			}},
		"req/cont-alone": {Agent: "a", Group: "g", Incarnation: 9, AckRepliesThrough: 0,
			Requests: []request{{Seq: 1, Port: "inc", Mode: ModeCall, Args: big, Trace: 5, Cont: []byte{0}}}},
	}
}

func goldenReplyBatches() map[string]replyBatch {
	big := bytes.Repeat([]byte{0x5A}, 300)
	return map[string]replyBatch{
		"rep/progress": {Agent: "a1", Group: "g1", Incarnation: 1, Epoch: 99,
			AckRequestsThrough: 7, CompletedThrough: 5, Credit: 4101},
		"rep/two": {Agent: "a1", Group: "g1", Incarnation: 2, Epoch: 0xFEDCBA9876543210 >> 1,
			AckRequestsThrough: 7, CompletedThrough: 5, Credit: 4101,
			Replies: []reply{
				{Seq: 4, Outcome: NormalOutcome([]byte("ok"))},
				{Seq: 5, Outcome: Outcome{Exception: "no_such_user", Payload: []byte{9}}},
			}},
		"rep/legacy-credit": {Agent: "a", Group: "g", Incarnation: 1, Epoch: 1,
			AckRequestsThrough: 1, CompletedThrough: 1, Credit: 0,
			Replies: []reply{{Seq: 1, Outcome: NormalOutcome(nil)}}},
		"rep/wide": {Agent: "", Group: "", Incarnation: maxSeq, Epoch: maxSeq,
			AckRequestsThrough: maxSeq, CompletedThrough: maxSeq, Credit: maxSeq,
			Replies: []reply{{Seq: maxSeq, Outcome: NormalOutcome(big)}}},
		"rep/piped": {Agent: "a", Group: "g", Incarnation: 1, Epoch: 3,
			AckRequestsThrough: 9, CompletedThrough: 9, Credit: 4105,
			Replies: []reply{
				{Seq: 7, Outcome: NormalOutcome([]byte{1})},
				{Seq: 8, Outcome: Outcome{Normal: true, Payload: big, Piped: true}},
				{Seq: 9, Outcome: Outcome{Exception: "unavailable", Payload: []byte("gone"), Piped: true}},
			}},
	}
}

func goldenResolves() map[string]resolveMsg {
	m := resolveMsg{Agent: "d0", Group: "main", Incarnation: 4, SenderNode: "client", RecvNode: "s1", Seq: 77}
	ok, exc := m, m
	ok.Outcome = Outcome{Normal: true, Payload: bytes.Repeat([]byte{7}, 40), Piped: true}
	exc.Outcome = Outcome{Exception: "failure", Payload: []byte("could not decode"), Piped: true}
	return map[string]resolveMsg{"res/ack": m, "res/normal": ok, "res/exception": exc}
}

// goldenEncodings runs every golden input through the encoders under test.
func goldenEncodings() map[string][]byte {
	out := make(map[string][]byte)
	for name, b := range goldenRequestBatches() {
		out[name] = encodeRequestBatch(b)
	}
	for name, b := range goldenReplyBatches() {
		out[name] = encodeReplyBatch(b)
	}
	for name, m := range goldenResolves() {
		out[name] = encodeResolve(m, name == "res/ack")
	}
	return out
}

func TestBatchEncodersMatchGolden(t *testing.T) {
	got := goldenEncodings()
	if len(got) != len(goldenHex) {
		t.Fatalf("%d golden inputs, %d recorded encodings", len(got), len(goldenHex))
	}
	for name, enc := range got {
		want, ok := goldenHex[name]
		if !ok {
			t.Errorf("%s: no recorded encoding", name)
			continue
		}
		if h := hex.EncodeToString(enc); h != want {
			t.Errorf("%s: encoding changed\n got %s\nwant %s", name, h, want)
		}
	}
}

// TestBatchEncodersAllocateExactly: on every golden input each message is
// built in one buffer of exactly its size — the encoders' size sums agree
// with what their append helpers write, so nothing is grown, copied out or
// left over.
func TestBatchEncodersAllocateExactly(t *testing.T) {
	for name, enc := range goldenEncodings() {
		if cap(enc) != len(enc) {
			t.Errorf("%s: %d bytes encoded in a buffer of %d", name, len(enc), cap(enc))
		}
	}
}
