// Package stream implements call-streams, the communication mechanism that
// promises were designed for (Liskov & Shrira, PLDI 1988, §2; Liskov et
// al., "Communication in the Mercury System").
//
// A stream connects an agent (the sending end, identifying one activity
// within an entity) to a port group (the receiving end, a set of ports
// belonging to one entity). The stream guarantees exactly-once, ordered
// delivery of call requests and of replies: request n+1 is delivered to
// user code only after request n, and reply n+1 only after reply n. Calls
// and replies are buffered and batched so the kernel-call and transmission
// overheads are amortized over several calls. If the system cannot live up
// to the guarantees — the sender or receiver crashes, or there are serious
// communication problems — it breaks the stream; calls without replies then
// terminate with the unavailable or failure exception, and the stream is
// reincarnated (restarted) so later calls can proceed.
//
// Three call modes exist:
//
//   - RPC: the request and reply bypass the batch buffers and are sent
//     immediately, minimizing the latency of a single call.
//   - Call (a "stream call"): buffered; the caller continues and claims
//     the reply later through a promise.
//   - Send: buffered; a normal reply is omitted entirely — the sender
//     hears back only if the call terminates abnormally.
//
// The package is transport-level: it moves encoded argument and result
// bytes. The promise package layers typed promises on top; the guardian
// package supplies handler dispatch and per-stream serial execution at the
// receiver.
//
// Bytes enter a stream in one of two forms. Plain []byte — Call, Send,
// RPC, NormalOutcome — is buffered and batched whatever its size, and
// copied once, into the batch's message, which the encoders build in a
// single buffer of exactly its size. A list encoded with Marshal and
// handed to CallMarshalled, SendMarshalled, RPCMarshalled or
// NormalMarshalled is treated the same while it is small; from one page
// up it rides alone: the call closes its batch at once and the message
// is built around the marshalled bytes where they lie, with no copy at
// all (frame.go). That is the path promise and guardian use. The two
// forms are indistinguishable on the wire.
//
// Lifetimes are the same on both paths. The stream holds the bytes a
// caller hands in until the call is acknowledged — it may have to
// retransmit them — so they must not be modified after the call (promise
// and guardian marshal into a fresh buffer per call and let go of it).
// On the receiving side Incoming.Args is a view of the received
// datagram, valid until the handler returns; Incoming.Clone copies it
// out. Returning NormalOutcome(call.Args) is allowed — the stream keeps
// the datagram alive for as long as the reply is retained.
package stream

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"promises/internal/clock"
	"promises/internal/exception"
	"promises/internal/metrics"
	"promises/internal/wire"
)

// Mode says how a call's reply is handled.
type Mode int

const (
	// ModeCall is a stream call: buffered, reply claimed later.
	ModeCall Mode = iota
	// ModeSend is a send: buffered, normal reply omitted.
	ModeSend
	// ModeRPC is a remote procedure call: sent immediately, replied to
	// immediately.
	ModeRPC
)

func (m Mode) String() string {
	switch m {
	case ModeCall:
		return "call"
	case ModeSend:
		return "send"
	case ModeRPC:
		return "rpc"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Outcome is the result of one call: either a normal termination carrying
// encoded results, or an exceptional termination carrying the condition
// name and encoded exception results.
type Outcome struct {
	Normal    bool
	Exception string // condition name when !Normal
	Payload   []byte // wire-encoded results (normal) or exception args
	// Piped marks the outcome of a pipelined call as the final value of
	// the whole continuation chain, delivered by the chain's last guardian.
	// A pipelined call answered without this flag came from a receiver
	// that ignored the continuation (a legacy endpoint), so the payload is
	// only stage one's value and the caller must run the remaining stages
	// itself. Local bookkeeping only — never on the wire as a tuple field.
	Piped bool
	// frame is the Marshal buffer Payload is the tail of, when the outcome
	// was built by NormalMarshalled from a list big enough to ride alone
	// (see frame.go); nil otherwise. Sending side only.
	frame []byte
}

// NormalOutcome builds the outcome of a normal termination.
func NormalOutcome(payload []byte) Outcome { return Outcome{Normal: true, Payload: payload} }

// ExceptionOutcome builds the outcome of an exceptional termination. The
// exception's args are wire-encoded; encoding failures degrade to a
// failure outcome, since an undecodable exception must still terminate the
// call exceptionally.
func ExceptionOutcome(ex *exception.Exception) Outcome {
	payload, err := wire.Marshal(ex.Args...)
	if err != nil {
		return Outcome{Normal: false, Exception: exception.NameFailure,
			Payload: mustMarshal("could not encode exception results")}
	}
	return Outcome{Normal: false, Exception: ex.Name, Payload: payload}
}

// Err decodes an exceptional outcome into an *exception.Exception. It
// returns nil for normal outcomes.
func (o Outcome) Err() *exception.Exception {
	if o.Normal {
		return nil
	}
	args, err := wire.Unmarshal(o.Payload)
	if err != nil {
		return exception.Failure("could not decode")
	}
	return exception.New(o.Exception, args...)
}

// Results decodes a normal outcome's result values. Calling it on an
// exceptional outcome returns the exception as the error.
func (o Outcome) Results() ([]any, error) {
	if !o.Normal {
		return nil, o.Err()
	}
	if len(o.Payload) == 0 {
		// Sends omit the normal reply entirely; completion carries no
		// result values.
		return nil, nil
	}
	vals, err := wire.Unmarshal(o.Payload)
	if err != nil {
		return nil, exception.Failure("could not decode")
	}
	return vals, nil
}

func mustMarshal(vals ...any) []byte {
	b, err := wire.Marshal(vals...)
	if err != nil {
		panic(err) // only called with built-in types
	}
	return b
}

// ErrExceptionReply is signalled by Synch when some stream call since the
// last synch boundary terminated exceptionally. It carries no detail about
// which call: "to discover this, the program must use promises."
var ErrExceptionReply = exception.New("exception_reply")

// ErrBroken is returned by Call/Send/RPC attempted on a stream that is
// broken and not (yet) reincarnated.
var ErrBroken = errors.New("stream: broken")

// Options tunes the stream protocol. The zero value selects the defaults
// noted on each field. There is no concurrency knob: each stream runs on
// one lane — its calls are batched, delivered and resolved in seq order —
// and parallelism comes from using more streams (one agent per
// concurrent activity), which run independently.
type Options struct {
	// MaxBatch is the number of buffered calls (or replies) that forces a
	// batch to be transmitted. Default 16. 1 disables batching.
	MaxBatch int
	// MaxBatchDelay bounds how long a buffered call or reply may wait
	// before the batch is transmitted anyway. Default 2ms.
	MaxBatchDelay time.Duration
	// RTO is the retransmission timeout for unacknowledged batches.
	// Default 25ms.
	RTO time.Duration
	// MaxRetries is how many retransmissions without progress are
	// attempted before the system gives up and breaks the stream.
	// Default 8. ("The system tries hard to deliver messages before
	// breaking a stream.")
	MaxRetries int
	// NoAutoRestart leaves a stream broken after a system break. By
	// default it is reincarnated immediately, so later calls proceed on
	// the new incarnation ("broken streams are mapped into exceptions and
	// then restarted automatically"). Explicit Break calls never
	// auto-restart.
	NoAutoRestart bool
	// AdaptiveBatch enables the online batch-size controller: MaxBatch
	// becomes the starting point, and the limit is then hill-climbed on
	// observed goodput (with a multiplicative cut on retransmission
	// evidence, AIMD style). Default off, so a fixed MaxBatch keeps its
	// exact historical behavior.
	AdaptiveBatch bool
	// MaxBatchBytes closes a batch once its encoded payload reaches this
	// many bytes, independent of the call count — replies batch under the
	// same budget at the receiver. 0 (the default) derives the budget from
	// the network's cost model when AdaptiveBatch is on (the byte cost
	// that dwarfs one kernel call, clamped to [1 KiB, 256 KiB]) and
	// disables byte closure otherwise; negative disables it always.
	MaxBatchBytes int
	// MaxInFlight, when positive, bounds the sender's unresolved-call
	// window: Call/Send/RPC block (honoring their context) once
	// MaxInFlight calls are outstanding, and additionally respect the
	// admission credit the receiver advertises in reply batches. 0 (the
	// default) keeps the legacy unbounded window and ignores credit.
	MaxInFlight int
	// NoPipelining makes the receiving side ignore continuation blobs on
	// incoming requests: a pipelined call is executed as a plain call and
	// its stage-one value is replied to the caller, exactly as a legacy
	// endpoint would behave. The caller's promise.Graph then detects the
	// unpiped reply and drives the remaining stages itself. Used to pin
	// the caller-mediated fallback in tests and benchmarks.
	NoPipelining bool
	// Clock is the peer's time source: tick loop, RTO and batching-delay
	// staleness, break timeouts, trace timestamps. Default: the clock of
	// the simnet network the peer's node belongs to, so configuring a
	// virtual clock on the network covers the stream layer too.
	Clock clock.Clock
	// Metrics is the registry the peer's protocol counters and histograms
	// register into. Default: the registry of the simnet network the
	// peer's node belongs to (inherited the same way as Clock). nil — no
	// network registry either — disables metrics at zero hot-path cost.
	Metrics *metrics.Registry
}

func (o Options) withDefaults() Options {
	if o.MaxBatch <= 0 {
		o.MaxBatch = 16
	}
	if o.MaxBatchDelay <= 0 {
		o.MaxBatchDelay = 2 * time.Millisecond
	}
	if o.RTO <= 0 {
		o.RTO = 25 * time.Millisecond
	}
	if o.MaxRetries <= 0 {
		o.MaxRetries = 8
	}
	return o
}

const (
	// recvWindow is how many calls past its completed prefix a receiver
	// advertises as admission credit to flow-controlled senders.
	recvWindow = 4096
	// execWorkers caps the peer-wide worker pool that runs parallel-port
	// calls (Peer.SetParallelPorts); serial calls still run on their
	// stream's executor.
	execWorkers = 16
)

// streamKey identifies one stream: the pair (agent, port group), plus the
// nodes at each end. Calls made by different agents to ports in the same
// group travel on different streams, as do calls made by one agent to
// ports in different groups.
type streamKey struct {
	senderNode string
	agent      string
	recvNode   string
	group      string
}

func (k streamKey) String() string {
	return fmt.Sprintf("%s/%s->%s/%s", k.senderNode, k.agent, k.recvNode, k.group)
}

// Message kinds on the wire.
const (
	kindRequestBatch = int64(1)
	kindReplyBatch   = int64(2)
	kindBreak        = int64(3)
	// kindResolve carries a chain resolution: the last guardian of a
	// pipelined continuation chain forwards the final outcome directly to
	// the promise's subscribers (the caller, and the origin guardian that
	// owes the caller a reply on the stream). Unordered and unbatched —
	// reliability comes from forwarder retransmission plus kindResolveAck.
	kindResolve = int64(4)
	// kindResolveAck acknowledges one kindResolve so the forwarder stops
	// retransmitting it.
	kindResolveAck = int64(5)
)

// request is one call request inside a request batch.
type request struct {
	Seq    uint64
	Port   string
	Mode   Mode
	Args   []byte
	Trace  uint64 // causal trace ID (trace.CallID); 0 from legacy senders
	Root   uint64 // root trace ID of the causal chain; 0 = chain root or legacy
	Parent uint64 // trace ID of the causing call; 0 = chain root or legacy
	// Cont is the encoded continuation chain riding with a pipelined call
	// (see encodePipeCont); nil for plain calls. On the wire it travels as
	// a trailing batch-level list, never as a tuple field.
	Cont []byte
	// frame is the Marshal buffer Args is the tail of, for a call big
	// enough to ride alone (see frame.go); nil otherwise, and always nil
	// on the receiving side.
	frame []byte
}

// reply is one call reply inside a reply batch.
type reply struct {
	Seq     uint64
	Outcome Outcome
}

// requestBatch is the unit of transmission from sender to receiver.
type requestBatch struct {
	Agent             string
	Group             string
	Incarnation       uint64
	AckRepliesThrough uint64 // sender has resolved replies through this seq
	Requests          []request
}

// replyBatch is the unit of transmission from receiver to sender.
type replyBatch struct {
	Agent              string
	Group              string
	Incarnation        uint64
	Epoch              uint64 // boot epoch of the receiving end (crash detection)
	AckRequestsThrough uint64 // receiver holds requests through this seq
	CompletedThrough   uint64 // receiver has executed calls through this seq
	Replies            []reply
	// Credit is the admission grant: the receiver will accept request
	// seqs through this value (its completed prefix plus recvWindow).
	// Carried as a trailing 9th top-level value, so legacy decoders skip
	// it; 0 means the batch came from a legacy receiver that advertises
	// no credit, and flow-controlled senders then apply MaxInFlight only.
	Credit uint64
}

// breakMsg notifies the other end that the stream broke.
type breakMsg struct {
	Agent       string
	Group       string
	Incarnation uint64
	Synchronous bool   // true: calls after BrokenAfter are lost, earlier unaffected
	BrokenAfter uint64 // meaningful when Synchronous
	ExcName     string // exception to raise for lost calls
	Reason      string
}

// hasConts reports whether any request carries a continuation chain, which
// moves the whole batch to the 9-value header.
func hasConts(reqs []request) bool {
	for i := range reqs {
		if reqs[i].Cont != nil {
			return true
		}
	}
	return false
}

// countPiped counts the replies that are chain-final outcomes; any moves
// the whole batch to the 10-value header.
func countPiped(reps []reply) int {
	n := 0
	for i := range reps {
		if reps[i].Outcome.Piped {
			n++
		}
	}
	return n
}

// encodeRequestBatch writes the versioned request-batch format: the six
// original values, then a trailing list of per-request trace IDs, then a
// trailing list of per-request causal contexts (root, parent pairs,
// flattened). The header count (8, vs 7 for trace-only and 6 for legacy)
// is the version signal; legacy decoders read exactly the values their
// header promised them and never look at the trailing lists, so old
// receivers accept new batches unchanged (see DESIGN.md "Observability").
// Trace IDs and causal contexts travel as parallel batch-level lists —
// not as extra request fields — because legacy decoders reject request
// tuples that are not exactly 4 fields.
//
// When any request carries a continuation chain the header becomes 9 and
// a trailing list of per-request continuation blobs is appended (empty
// bytes for requests without one). Batches with no continuations keep the
// 8-value header and stay byte-identical to the PR 8 format.
//
// The message is built once, in a buffer of exactly its size (the sum
// below mirrors the three append helpers; a mismatch would only make
// append grow the buffer, and TestBatchEncodersAllocateExactly catches
// it). frameRequestBatch (frame.go) writes the same three parts around a
// payload that is already in place.
func encodeRequestBatch(b requestBatch) []byte {
	conts := hasConts(b.Requests)
	n := len(b.Requests)
	size := 1 + 2 + wire.SizeBlob(len(b.Agent)) + wire.SizeBlob(len(b.Group)) +
		wire.SizeInt(int64(b.Incarnation)) + wire.SizeInt(int64(b.AckRepliesThrough)) +
		2*wire.SizeCount(n) + wire.SizeCount(2*n) + 4*n // three lists; a tuple header and a mode per request
	if conts {
		size += wire.SizeCount(n)
	}
	for i := range b.Requests {
		r := &b.Requests[i]
		size += wire.SizeInt(int64(r.Seq)) + wire.SizeBlob(len(r.Port)) + wire.SizeBlob(len(r.Args)) +
			wire.SizeInt(int64(r.Trace)) + wire.SizeInt(int64(r.Root)) + wire.SizeInt(int64(r.Parent))
		if conts {
			size += wire.SizeBlob(len(r.Cont))
		}
	}
	buf := appendRequestsOpen(make([]byte, 0, size), &b, conts)
	for i := range b.Requests {
		buf = appendRequestOpen(buf, &b.Requests[i])
		buf = append(buf, b.Requests[i].Args...)
	}
	return appendRequestsClose(buf, b.Requests, conts)
}

// appendRequestsOpen appends a request batch up to the first request.
func appendRequestsOpen(buf []byte, b *requestBatch, conts bool) []byte {
	hdr := 8
	if conts {
		hdr = 9
	}
	buf = wire.AppendHeader(buf, hdr)
	buf = wire.AppendInt(buf, kindRequestBatch)
	buf = wire.AppendString(buf, b.Agent)
	buf = wire.AppendString(buf, b.Group)
	buf = wire.AppendInt(buf, int64(b.Incarnation))
	buf = wire.AppendInt(buf, int64(b.AckRepliesThrough))
	return wire.AppendList(buf, len(b.Requests))
}

// appendRequestOpen appends one request up to its argument bytes.
func appendRequestOpen(buf []byte, r *request) []byte {
	buf = wire.AppendList(buf, 4)
	buf = wire.AppendInt(buf, int64(r.Seq))
	buf = wire.AppendString(buf, r.Port)
	buf = wire.AppendInt(buf, int64(r.Mode))
	return wire.AppendBytesHeader(buf, len(r.Args))
}

// appendRequestsClose appends what follows the last request: the trace,
// cause and (when the batch has any) continuation lists.
func appendRequestsClose(buf []byte, reqs []request, conts bool) []byte {
	buf = wire.AppendList(buf, len(reqs))
	for i := range reqs {
		buf = wire.AppendInt(buf, int64(reqs[i].Trace))
	}
	buf = wire.AppendList(buf, 2*len(reqs))
	for i := range reqs {
		buf = wire.AppendInt(buf, int64(reqs[i].Root))
		buf = wire.AppendInt(buf, int64(reqs[i].Parent))
	}
	if conts {
		buf = wire.AppendList(buf, len(reqs))
		for i := range reqs {
			buf = wire.AppendBytes(buf, reqs[i].Cont)
		}
	}
	return buf
}

// encodeReplyBatch writes the versioned reply-batch format: the eight
// original values, then the trailing admission credit. As with request
// batches, the header count (9 vs the legacy 8) is the version signal;
// legacy decoders read exactly the values their header promised and never
// see the credit, so old senders accept new batches unchanged.
//
// When any reply carries a chain-final (piped) outcome the header becomes
// 10 and a trailing list of the piped seqs is appended; batches without
// piped replies keep the 9-value header unchanged.
//
// Built once at its exact size, like a request batch; frameReplyBatch
// (frame.go) is the in-place counterpart.
func encodeReplyBatch(b replyBatch) []byte {
	piped := countPiped(b.Replies)
	n := len(b.Replies)
	size := 1 + 2 + wire.SizeBlob(len(b.Agent)) + wire.SizeBlob(len(b.Group)) +
		wire.SizeInt(int64(b.Incarnation)) + wire.SizeInt(int64(b.Epoch)) +
		wire.SizeInt(int64(b.AckRequestsThrough)) + wire.SizeInt(int64(b.CompletedThrough)) +
		wire.SizeCount(n) + 3*n + wire.SizeInt(int64(b.Credit)) // a tuple header and a bool per reply
	if piped > 0 {
		size += wire.SizeCount(piped)
	}
	for i := range b.Replies {
		r := &b.Replies[i]
		size += wire.SizeInt(int64(r.Seq)) + wire.SizeBlob(len(r.Outcome.Exception)) + wire.SizeBlob(len(r.Outcome.Payload))
		if r.Outcome.Piped {
			size += wire.SizeInt(int64(r.Seq))
		}
	}
	buf := appendRepliesOpen(make([]byte, 0, size), &b, piped)
	for i := range b.Replies {
		buf = appendReplyOpen(buf, &b.Replies[i])
		buf = append(buf, b.Replies[i].Outcome.Payload...)
	}
	return appendRepliesClose(buf, &b, piped)
}

// appendRepliesOpen appends a reply batch up to the first reply.
func appendRepliesOpen(buf []byte, b *replyBatch, piped int) []byte {
	hdr := 9
	if piped > 0 {
		hdr = 10
	}
	buf = wire.AppendHeader(buf, hdr)
	buf = wire.AppendInt(buf, kindReplyBatch)
	buf = wire.AppendString(buf, b.Agent)
	buf = wire.AppendString(buf, b.Group)
	buf = wire.AppendInt(buf, int64(b.Incarnation))
	buf = wire.AppendInt(buf, int64(b.Epoch))
	buf = wire.AppendInt(buf, int64(b.AckRequestsThrough))
	buf = wire.AppendInt(buf, int64(b.CompletedThrough))
	return wire.AppendList(buf, len(b.Replies))
}

// appendReplyOpen appends one reply up to its payload bytes.
func appendReplyOpen(buf []byte, r *reply) []byte {
	buf = wire.AppendList(buf, 4)
	buf = wire.AppendInt(buf, int64(r.Seq))
	buf = wire.AppendBool(buf, r.Outcome.Normal)
	buf = wire.AppendString(buf, r.Outcome.Exception)
	return wire.AppendBytesHeader(buf, len(r.Outcome.Payload))
}

// appendRepliesClose appends what follows the last reply: the admission
// credit and (when the batch has any) the piped seqs.
func appendRepliesClose(buf []byte, b *replyBatch, piped int) []byte {
	buf = wire.AppendInt(buf, int64(b.Credit))
	if piped > 0 {
		buf = wire.AppendList(buf, piped)
		for i := range b.Replies {
			if b.Replies[i].Outcome.Piped {
				buf = wire.AppendInt(buf, int64(b.Replies[i].Seq))
			}
		}
	}
	return buf
}

func encodeBreak(b breakMsg) []byte {
	return mustMarshal(kindBreak, b.Agent, b.Group, int64(b.Incarnation),
		b.Synchronous, int64(b.BrokenAfter), b.ExcName, b.Reason)
}

// resolveMsg is a forwarded chain resolution (kindResolve) or its
// acknowledgement (kindResolveAck). Agent/Group/Incarnation plus the two
// node names identify the ORIGIN stream — the one the pipelined call was
// issued on — and Seq is the call's seq there; together they are the
// promise reference the chain carried. Acks echo the identification and
// omit the outcome.
type resolveMsg struct {
	Agent       string
	Group       string
	Incarnation uint64
	SenderNode  string // origin stream's sending node (the caller)
	RecvNode    string // origin stream's receiving node (the first guardian)
	Seq         uint64
	Outcome     Outcome // kindResolve only
}

// encodeResolve writes a chain resolution or (ack=true) its ack. Both
// share decodeMessage's common prefix (kind, agent, group, incarnation) so
// routing stays uniform. Resolves are rare — one per chain, not per call.
func encodeResolve(m resolveMsg, ack bool) []byte {
	size := 1 + 2 + wire.SizeBlob(len(m.Agent)) + wire.SizeBlob(len(m.Group)) + wire.SizeInt(int64(m.Incarnation)) +
		wire.SizeBlob(len(m.SenderNode)) + wire.SizeBlob(len(m.RecvNode)) + wire.SizeInt(int64(m.Seq))
	if !ack {
		size += 1 + wire.SizeBlob(len(m.Outcome.Exception)) + wire.SizeBlob(len(m.Outcome.Payload))
	}
	buf := make([]byte, 0, size)
	if ack {
		buf = wire.AppendHeader(buf, 7)
		buf = wire.AppendInt(buf, kindResolveAck)
	} else {
		buf = wire.AppendHeader(buf, 10)
		buf = wire.AppendInt(buf, kindResolve)
	}
	buf = wire.AppendString(buf, m.Agent)
	buf = wire.AppendString(buf, m.Group)
	buf = wire.AppendInt(buf, int64(m.Incarnation))
	buf = wire.AppendString(buf, m.SenderNode)
	buf = wire.AppendString(buf, m.RecvNode)
	buf = wire.AppendInt(buf, int64(m.Seq))
	if !ack {
		buf = wire.AppendBool(buf, m.Outcome.Normal)
		buf = wire.AppendString(buf, m.Outcome.Exception)
		buf = wire.AppendBytes(buf, m.Outcome.Payload)
	}
	return buf
}

// decodeResolve parses a kindResolve or kindResolveAck message in full
// (decodeMessage only classifies them; the peer re-parses here — these
// are off the hot path). Views alias payload.
func decodeResolve(payload []byte) (*resolveMsg, bool, error) {
	d := wire.NewDecoder(payload)
	nvals, err := d.Header()
	if err != nil {
		return nil, false, err
	}
	kind, err := d.Int()
	if err != nil {
		return nil, false, err
	}
	if kind != kindResolve && kind != kindResolveAck {
		return nil, false, fmt.Errorf("stream: not a resolve message: kind %d", kind)
	}
	ack := kind == kindResolveAck
	if ack && nvals < 7 || !ack && nvals < 10 {
		return nil, false, fmt.Errorf("stream: short resolve message: %d values", nvals)
	}
	m := &resolveMsg{}
	agent, err := d.StringView()
	if err != nil {
		return nil, false, err
	}
	m.Agent = internString(agent)
	group, err := d.StringView()
	if err != nil {
		return nil, false, err
	}
	m.Group = internString(group)
	inc, err := d.Int()
	if err != nil {
		return nil, false, err
	}
	m.Incarnation = uint64(inc)
	sn, err := d.StringView()
	if err != nil {
		return nil, false, err
	}
	m.SenderNode = internString(sn)
	rn, err := d.StringView()
	if err != nil {
		return nil, false, err
	}
	m.RecvNode = internString(rn)
	seq, err := d.Int()
	if err != nil {
		return nil, false, err
	}
	m.Seq = uint64(seq)
	if ack {
		return m, true, nil
	}
	norm, err := d.Bool()
	if err != nil {
		return nil, false, err
	}
	exc, err := d.StringView()
	if err != nil {
		return nil, false, err
	}
	pl, err := d.BytesView()
	if err != nil {
		return nil, false, err
	}
	m.Outcome = Outcome{Normal: norm, Exception: internString(exc), Payload: pl, Piped: true}
	return m, false, nil
}

// Batch struct pools for the zero-copy decode path: one request or reply
// batch is decoded, handled, and released per datagram, so the structs
// and their entry slices cycle through these pools instead of being
// reallocated per message.
var (
	requestBatchPool = sync.Pool{New: func() any { return new(requestBatch) }}
	replyBatchPool   = sync.Pool{New: func() any { return new(replyBatch) }}
)

// releaseRequestBatch recycles a batch returned by decodeMessage. Entry
// slots are zeroed first so the pooled batch does not pin the datagram
// the entries' Args alias.
func releaseRequestBatch(b *requestBatch) {
	reqs := b.Requests
	for i := range reqs {
		reqs[i] = request{}
	}
	*b = requestBatch{Requests: reqs[:0]}
	requestBatchPool.Put(b)
}

// releaseReplyBatch recycles a batch returned by decodeMessage, zeroing
// entry slots so pooled batches do not pin reply payloads.
func releaseReplyBatch(b *replyBatch) {
	reps := b.Replies
	for i := range reps {
		reps[i] = reply{}
	}
	*b = replyBatch{Replies: reps[:0]}
	replyBatchPool.Put(b)
}

// decodeMessage parses any stream-layer message, returning its kind and
// exactly one of the batch structs.
//
// The decode is zero-copy: request Args and reply Outcome.Payload slices
// alias payload, whose ownership simnet gives to the receiver at
// delivery, and identifier strings come from the intern table. Request
// and reply batches are drawn from pools — after the handler has copied
// the entries it keeps, the caller must release them with
// releaseRequestBatch/releaseReplyBatch (payload itself stays alive for
// as long as anything references the aliased views).
func decodeMessage(payload []byte) (kind int64, rb *requestBatch, pb *replyBatch, bm *breakMsg, err error) {
	d := wire.NewDecoder(payload)
	nvals, err := d.Header()
	if err != nil {
		return 0, nil, nil, nil, err
	}
	kind, err = d.Int()
	if err != nil {
		return 0, nil, nil, nil, err
	}
	agent, err := d.StringView()
	if err != nil {
		return 0, nil, nil, nil, err
	}
	group, err := d.StringView()
	if err != nil {
		return 0, nil, nil, nil, err
	}
	inc, err := d.Int()
	if err != nil {
		return 0, nil, nil, nil, err
	}
	switch kind {
	case kindRequestBatch:
		b := requestBatchPool.Get().(*requestBatch)
		b.Agent = internString(agent)
		b.Group = internString(group)
		b.Incarnation = uint64(inc)
		if err := decodeRequests(&d, b, nvals); err != nil {
			releaseRequestBatch(b)
			return 0, nil, nil, nil, err
		}
		return kind, b, nil, nil, nil

	case kindReplyBatch:
		b := replyBatchPool.Get().(*replyBatch)
		b.Agent = internString(agent)
		b.Group = internString(group)
		b.Incarnation = uint64(inc)
		if err := decodeReplies(&d, b, nvals); err != nil {
			releaseReplyBatch(b)
			return 0, nil, nil, nil, err
		}
		return kind, nil, b, nil, nil

	case kindBreak:
		b, err := decodeBreakTail(&d)
		if err != nil {
			return 0, nil, nil, nil, err
		}
		b.Agent = string(agent)
		b.Group = string(group)
		b.Incarnation = uint64(inc)
		return kind, nil, nil, b, nil

	case kindResolve, kindResolveAck:
		// Classified only; the peer re-parses with decodeResolve. Rare —
		// one message per chain, not per call.
		return kind, nil, nil, nil, nil

	default:
		return 0, nil, nil, nil, fmt.Errorf("stream: unknown message kind %d", kind)
	}
}

// decodeRequests reads the [ackRepliesThrough, [[seq, port, mode, args],
// ...]] tail of a request batch into b, plus — when the message header
// promised a 7th value (the versioned format) — the trailing trace-ID
// list, plus — when it promised an 8th — the trailing causal-context
// list of flattened (root, parent) pairs. Legacy 6-value batches leave
// every Trace at 0; 7-value batches leave Root/Parent at 0.
func decodeRequests(d *wire.Decoder, b *requestBatch, nvals int) error {
	ack, err := d.Int()
	if err != nil {
		return err
	}
	b.AckRepliesThrough = uint64(ack)
	n, err := d.List()
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		if fields, err := d.List(); err != nil {
			return err
		} else if fields != 4 {
			return fmt.Errorf("stream: request has %d fields, want 4", fields)
		}
		seq, err := d.Int()
		if err != nil {
			return err
		}
		port, err := d.StringView()
		if err != nil {
			return err
		}
		mode, err := d.Int()
		if err != nil {
			return err
		}
		args, err := d.BytesView()
		if err != nil {
			return err
		}
		b.Requests = append(b.Requests, request{
			Seq: uint64(seq), Port: internString(port), Mode: Mode(mode), Args: args,
		})
	}
	if nvals < 7 {
		return nil // legacy sender: no trace IDs on the wire
	}
	tn, err := d.List()
	if err != nil {
		return err
	}
	for i := 0; i < tn; i++ {
		tid, err := d.Int()
		if err != nil {
			return err
		}
		if i < len(b.Requests) {
			b.Requests[i].Trace = uint64(tid)
		}
	}
	if nvals < 8 {
		return nil // trace-only sender: no causal context on the wire
	}
	cn, err := d.List()
	if err != nil {
		return err
	}
	for i := 0; i < cn; i += 2 {
		root, err := d.Int()
		if err != nil {
			return err
		}
		var parent int64
		if i+1 < cn {
			if parent, err = d.Int(); err != nil {
				return err
			}
		}
		if j := i / 2; j < len(b.Requests) {
			b.Requests[j].Root = uint64(root)
			b.Requests[j].Parent = uint64(parent)
		}
	}
	if nvals < 9 {
		return nil // no pipelined calls in this batch
	}
	pn, err := d.List()
	if err != nil {
		return err
	}
	for i := 0; i < pn; i++ {
		cont, err := d.BytesView()
		if err != nil {
			return err
		}
		if i < len(b.Requests) && len(cont) > 0 {
			b.Requests[i].Cont = cont
		}
	}
	return nil
}

// decodeReplies reads the [epoch, ackRequestsThrough, completedThrough,
// [[seq, normal, excName, payload], ...]] tail of a reply batch into b,
// plus — when the message header promised a 9th value (the versioned
// format) — the trailing admission credit. Legacy 8-value batches leave
// Credit at 0 (no credit advertised).
func decodeReplies(d *wire.Decoder, b *replyBatch, nvals int) error {
	epoch, err := d.Int()
	if err != nil {
		return err
	}
	b.Epoch = uint64(epoch)
	ack, err := d.Int()
	if err != nil {
		return err
	}
	b.AckRequestsThrough = uint64(ack)
	done, err := d.Int()
	if err != nil {
		return err
	}
	b.CompletedThrough = uint64(done)
	n, err := d.List()
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		if fields, err := d.List(); err != nil {
			return err
		} else if fields != 4 {
			return fmt.Errorf("stream: reply has %d fields, want 4", fields)
		}
		seq, err := d.Int()
		if err != nil {
			return err
		}
		norm, err := d.Bool()
		if err != nil {
			return err
		}
		exc, err := d.StringView()
		if err != nil {
			return err
		}
		pl, err := d.BytesView()
		if err != nil {
			return err
		}
		b.Replies = append(b.Replies, reply{
			Seq:     uint64(seq),
			Outcome: Outcome{Normal: norm, Exception: internString(exc), Payload: pl},
		})
	}
	if nvals < 9 {
		return nil // legacy receiver: no admission credit on the wire
	}
	credit, err := d.Int()
	if err != nil {
		return err
	}
	b.Credit = uint64(credit)
	if nvals < 10 {
		return nil // no piped replies in this batch
	}
	pn, err := d.List()
	if err != nil {
		return err
	}
	for i := 0; i < pn; i++ {
		seq, err := d.Int()
		if err != nil {
			return err
		}
		for j := range b.Replies {
			if b.Replies[j].Seq == uint64(seq) {
				b.Replies[j].Outcome.Piped = true
				break
			}
		}
	}
	return nil
}

// decodeBreakTail reads the [synchronous, brokenAfter, excName, reason]
// tail of a break message. Breaks are rare, so their strings are plain
// copies and the struct is not pooled.
func decodeBreakTail(d *wire.Decoder) (*breakMsg, error) {
	b := &breakMsg{}
	var err error
	if b.Synchronous, err = d.Bool(); err != nil {
		return nil, err
	}
	after, err := d.Int()
	if err != nil {
		return nil, err
	}
	b.BrokenAfter = uint64(after)
	exc, err := d.StringView()
	if err != nil {
		return nil, err
	}
	b.ExcName = string(exc)
	reason, err := d.StringView()
	if err != nil {
		return nil, err
	}
	b.Reason = string(reason)
	return b, nil
}
