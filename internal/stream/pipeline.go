package stream

import (
	"fmt"

	"promises/internal/wire"
)

// Promise pipelining (DESIGN.md §13). A pipelined call carries a
// continuation chain: after the receiving guardian executes the call, the
// result does not come home — it is spliced into the arguments of the
// chain's next stage and forwarded guardian-to-guardian, so stage N+1
// starts at the guardian that produced stage N's output with no hop back
// to the caller. The chain's last guardian forwards the final outcome
// directly to the promise's subscribers: the caller (fast path) and the
// origin guardian, which still owes the caller an on-stream reply (the
// reliable path — it rides normal reply batches with retransmission).
//
// The promise reference that travels with the chain is the origin
// stream's key plus its incarnation and the call's seq: exactly enough
// for any guardian to address a resolution back to both subscribers, and
// for the subscribers to drop stale chains after a reincarnation.

// PipeStage names one continuation stage of a pipelined call: the
// guardian (node, port group) that runs it, the port to invoke, and extra
// pre-encoded arguments appended after the previous stage's results.
type PipeStage struct {
	Node  string
	Group string
	Port  string
	Extra []byte // wire-encoded argument list; nil for none
}

// pipeRef is the promise reference a continuation chain resolves: the
// origin stream plus incarnation and seq.
type pipeRef struct {
	senderNode  string
	agent       string
	recvNode    string
	group       string
	incarnation uint64
	seq         uint64
}

func (ref pipeRef) key() streamKey {
	return streamKey{senderNode: ref.senderNode, agent: ref.agent,
		recvNode: ref.recvNode, group: ref.group}
}

// pipeContVersion versions the continuation blob; a blob of any other
// version is malformed, and the call carrying it fails.
const pipeContVersion = 1

// pipeAgentName is the agent mid-chain forwards travel on. Each
// forwarding guardian sends continuation hops from this agent, one stream
// per downstream guardian, so chain traffic batches and sequences
// independently of any application agent.
const pipeAgentName = "~pipe"

// encodePipeCont writes the continuation blob riding a pipelined request:
//
//	[version, senderNode, agent, recvNode, group, incarnation, seq,
//	 stages(list of 4 values each: node, group, port, extra)]
//
// Meaning: after executing the call this blob rides with, splice the
// result into stages[0]'s arguments and forward; with no stages left,
// the result IS the chain's resolution — deliver it to the reference.
func encodePipeCont(ref pipeRef, stages []PipeStage) []byte {
	buf := make([]byte, 0, 64)
	buf = wire.AppendHeader(buf, 8)
	buf = wire.AppendInt(buf, pipeContVersion)
	buf = wire.AppendString(buf, ref.senderNode)
	buf = wire.AppendString(buf, ref.agent)
	buf = wire.AppendString(buf, ref.recvNode)
	buf = wire.AppendString(buf, ref.group)
	buf = wire.AppendInt(buf, int64(ref.incarnation))
	buf = wire.AppendInt(buf, int64(ref.seq))
	buf = wire.AppendList(buf, 4*len(stages))
	for _, st := range stages {
		buf = wire.AppendString(buf, st.Node)
		buf = wire.AppendString(buf, st.Group)
		buf = wire.AppendString(buf, st.Port)
		buf = wire.AppendBytes(buf, st.Extra)
	}
	return buf
}

// decodePipeCont parses a continuation blob. Stage Extra views alias the
// blob (and therefore the request datagram); strings come from the intern
// table. An unknown version or garbled blob is an error — the receiver
// then fails the call with failure("malformed continuation").
func decodePipeCont(blob []byte) (pipeRef, []PipeStage, error) {
	var ref pipeRef
	d := wire.NewDecoder(blob)
	nvals, err := d.Header()
	if err != nil {
		return ref, nil, err
	}
	if nvals < 8 {
		return ref, nil, fmt.Errorf("stream: short continuation: %d values", nvals)
	}
	ver, err := d.Int()
	if err != nil {
		return ref, nil, err
	}
	if ver != pipeContVersion {
		return ref, nil, fmt.Errorf("stream: unknown continuation version %d", ver)
	}
	var views [4][]byte
	for i := range views {
		if views[i], err = d.StringView(); err != nil {
			return ref, nil, err
		}
	}
	ref.senderNode = internString(views[0])
	ref.agent = internString(views[1])
	ref.recvNode = internString(views[2])
	ref.group = internString(views[3])
	inc, err := d.Int()
	if err != nil {
		return ref, nil, err
	}
	ref.incarnation = uint64(inc)
	seq, err := d.Int()
	if err != nil {
		return ref, nil, err
	}
	ref.seq = uint64(seq)
	n, err := d.List()
	if err != nil {
		return ref, nil, err
	}
	if n%4 != 0 {
		return ref, nil, fmt.Errorf("stream: continuation stage list has %d values", n)
	}
	stages := make([]PipeStage, 0, n/4)
	for i := 0; i < n; i += 4 {
		var st PipeStage
		node, err := d.StringView()
		if err != nil {
			return ref, nil, err
		}
		group, err := d.StringView()
		if err != nil {
			return ref, nil, err
		}
		port, err := d.StringView()
		if err != nil {
			return ref, nil, err
		}
		extra, err := d.BytesView()
		if err != nil {
			return ref, nil, err
		}
		st.Node = internString(node)
		st.Group = internString(group)
		st.Port = internString(port)
		if len(extra) > 0 {
			st.Extra = extra
		}
		stages = append(stages, st)
	}
	return ref, stages, nil
}
