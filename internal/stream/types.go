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
// Every call enters a stream through Issue, which takes a Req: the mode,
// the port, the marshalled arguments, the causal context and, for a
// pipelined call, its continuation stages. Call, Send and RPC are Issue
// for plain []byte arguments and no cause.
//
// Bytes enter a stream in one of two forms. Plain []byte — Call, Send,
// RPC, NormalOutcome — is buffered and batched whatever its size, and
// copied once, into the batch's message, which the encoders build in a
// single buffer of exactly its size. A list encoded with Marshal and
// handed to Issue or NormalMarshalled is treated the same while it is
// small; from one page up it rides alone: the call closes its batch at
// once and the message is built around the marshalled bytes where they
// lie, with no copy at all (frame.go). That is the path promise and
// guardian use. The two forms are indistinguishable on the wire.
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
// concurrent activity), which run independently. Nor is there a flow
// control knob: a sender always honours the admission credit its
// receiver advertises (recvWindow calls past the completed prefix).
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
	// advertises as admission credit.
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
)

// request is one call request inside a request batch.
type request struct {
	Seq    uint64
	Port   string
	Mode   Mode
	Args   []byte
	Trace  uint64 // causal trace ID (trace.CallID)
	Root   uint64 // root trace ID of the causal chain; 0 = chain root
	Parent uint64 // trace ID of the causing call; 0 = chain root
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
	// The 9th top-level value; 0 advertises no credit, and a sender that
	// has been granted none runs unbounded.
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

// encodeRequestBatch writes a request batch (DESIGN.md §5): kind, agent,
// group, incarnation, reply ack and the [seq, port, mode, args] tuples,
// then two lists parallel to the requests — their trace IDs, and their
// causal contexts as flattened (root, parent) pairs. That is 8 values.
// When any request carries a continuation chain a 9th follows: one
// continuation blob per request, empty for the plain ones.
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

// encodeReplyBatch writes a reply batch (DESIGN.md §5), always 9 values:
// kind, agent, group, incarnation, epoch, request ack, completed prefix,
// the [seq, normal, excName, payload] tuples and the admission credit.
//
// Built once at its exact size, like a request batch; frameReplyBatch
// (frame.go) is the in-place counterpart.
func encodeReplyBatch(b replyBatch) []byte {
	n := len(b.Replies)
	size := 1 + 2 + wire.SizeBlob(len(b.Agent)) + wire.SizeBlob(len(b.Group)) +
		wire.SizeInt(int64(b.Incarnation)) + wire.SizeInt(int64(b.Epoch)) +
		wire.SizeInt(int64(b.AckRequestsThrough)) + wire.SizeInt(int64(b.CompletedThrough)) +
		wire.SizeCount(n) + 3*n + wire.SizeInt(int64(b.Credit)) // a tuple header and a bool per reply
	for i := range b.Replies {
		r := &b.Replies[i]
		size += wire.SizeInt(int64(r.Seq)) + wire.SizeBlob(len(r.Outcome.Exception)) + wire.SizeBlob(len(r.Outcome.Payload))
	}
	buf := appendRepliesOpen(make([]byte, 0, size), &b)
	for i := range b.Replies {
		buf = appendReplyOpen(buf, &b.Replies[i])
		buf = append(buf, b.Replies[i].Outcome.Payload...)
	}
	return wire.AppendInt(buf, int64(b.Credit))
}

// appendRepliesOpen appends a reply batch up to the first reply.
func appendRepliesOpen(buf []byte, b *replyBatch) []byte {
	buf = wire.AppendHeader(buf, 9)
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

func encodeBreak(b breakMsg) []byte {
	return mustMarshal(kindBreak, b.Agent, b.Group, int64(b.Incarnation),
		b.Synchronous, int64(b.BrokenAfter), b.ExcName, b.Reason)
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
		if nvals != 8 {
			return 0, nil, nil, nil, fmt.Errorf("stream: break has %d values, want 8", nvals)
		}
		b, err := decodeBreakTail(&d)
		if err != nil {
			return 0, nil, nil, nil, err
		}
		b.Agent = string(agent)
		b.Group = string(group)
		b.Incarnation = uint64(inc)
		return kind, nil, nil, b, nil

	default:
		return 0, nil, nil, nil, fmt.Errorf("stream: unknown message kind %d", kind)
	}
}

// decodeRequests reads the rest of a request batch into b: the reply ack,
// the [seq, port, mode, args] tuples, and the trace-ID, cause and (in a
// 9-value batch) continuation lists, each exactly as long as the encoder
// writes it. Any other shape is an error: there is one layout.
func decodeRequests(d *wire.Decoder, b *requestBatch, nvals int) error {
	if nvals != 8 && nvals != 9 {
		return fmt.Errorf("stream: request batch has %d values, want 8 or 9", nvals)
	}
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
	reqs := b.Requests
	if err := expectList(d, len(reqs)); err != nil {
		return err
	}
	for i := range reqs {
		tid, err := d.Int()
		if err != nil {
			return err
		}
		reqs[i].Trace = uint64(tid)
	}
	if err := expectList(d, 2*len(reqs)); err != nil {
		return err
	}
	for i := range reqs {
		root, err := d.Int()
		if err != nil {
			return err
		}
		parent, err := d.Int()
		if err != nil {
			return err
		}
		reqs[i].Root, reqs[i].Parent = uint64(root), uint64(parent)
	}
	if nvals == 8 {
		return nil // no pipelined calls in this batch
	}
	if err := expectList(d, len(reqs)); err != nil {
		return err
	}
	for i := range reqs {
		cont, err := d.BytesView()
		if err != nil {
			return err
		}
		if len(cont) > 0 {
			reqs[i].Cont = cont
		}
	}
	return nil
}

// expectList reads a list header that must announce exactly n values.
func expectList(d *wire.Decoder, n int) error {
	got, err := d.List()
	if err == nil && got != n {
		err = fmt.Errorf("stream: list of %d values, want %d", got, n)
	}
	return err
}

// decodeReplies reads the rest of a reply batch into b: epoch, request
// ack, completed prefix, the [seq, normal, excName, payload] tuples and
// the admission credit. A batch of other than 9 values is an error.
func decodeReplies(d *wire.Decoder, b *replyBatch, nvals int) error {
	if nvals != 9 {
		return fmt.Errorf("stream: reply batch has %d values, want 9", nvals)
	}
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
	credit, err := d.Int()
	b.Credit = uint64(credit)
	return err
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
