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
// single buffer of exactly its size. A list encoded with Stream.Marshal
// (arguments) or Incoming.Marshal (results) and handed to Issue or
// NormalMarshalled is treated the same while it is small; from one page
// up it rides alone: the call closes its batch at once and the message is
// built around the marshalled bytes where they lie, with no copy at all
// (frame.go). That is the path promise and guardian use. The two forms
// are indistinguishable on the wire.
//
// Lifetimes are the same on both paths. The stream holds the bytes a
// caller hands in until the call is acknowledged — it may have to
// retransmit them — so they must not be modified after the call. Promise
// and guardian never touch them again: a small list is carved from the
// peer's append-only marshal arena, whose bytes are never written twice,
// and a list of a page or more gets a buffer of its own (arena.go).
// On the receiving side Incoming.Args is a view of the received
// datagram, valid until the handler returns; Incoming.Clone copies it
// out. Returning NormalOutcome(call.Args) is allowed — the stream keeps
// the datagram alive for as long as the reply is retained.
package stream

import (
	"fmt"
	"math"
	"sync"
	"time"

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

// Options tunes the stream protocol. The zero value selects the defaults
// noted on each field. There is no concurrency knob: each stream runs on
// one lane — its calls are batched, delivered and resolved in seq order —
// and parallelism comes from using more streams (one agent per
// concurrent activity), which run independently. Nor is there a flow
// control knob: a sender always honours the admission credit its
// receiver advertises (recvWindow calls past the completed prefix). And
// the clock is not an option: a peer keeps its endpoint's time (a simnet
// node's is its network's clock; Peer.Clock), else the real clock.
type Options struct {
	// MaxBatch is the number of buffered calls (or replies) that forces a
	// batch to be transmitted. Default 16. 1 disables batching.
	MaxBatch int
	// MaxBatchDelay bounds how long a buffered call or reply may wait
	// before the batch is transmitted anyway. Default 2ms.
	MaxBatchDelay time.Duration
	// RTO is the first retransmission timeout for unacknowledged batches
	// and its ceiling. Each direction of a stream then measures its round
	// trip and re-sends after SRTT + 4·RTTVAR (RFC 6298, Karn's rule), at
	// least MaxBatchDelay and a tick, doubling the timeout on each
	// re-send until a fresh measurement. The timer is left to tail
	// losses and lost re-sends: a hole the other end reports, or an ack
	// that stops short after a timeout, is re-sent at once. Probes of a
	// silent receiver stay RTO apart, and so do the re-sends of replies
	// the sender cannot ack yet (an earlier call still runs). Default
	// 25ms.
	RTO time.Duration
	// MaxRetries is how many retransmissions or probes met with silence
	// are attempted before the system gives up and breaks the stream: the
	// MaxRetries+1st unanswered firing breaks it, which with back-off and
	// the default options comes ~170ms after the last word from a peer
	// that fell silent with calls unacked. Default 8. ("The system tries
	// hard to deliver messages before breaking a stream.")
	MaxRetries int
	// Metrics is the registry the peer's protocol counters and histograms
	// register into. Default: the registry of the simnet network the
	// peer's node belongs to, as the endpoint provides it. nil — no
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
	// calls (Peer.SetParallelPorts), and how many idle runners a peer
	// keeps parked; serial calls run on the runner that owns their stream.
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

// custodial reports whether calls on the stream may complete out of
// order: ~pipe forwards stay in custody until handed on (DESIGN.md §13).
func (k streamKey) custodial() bool { return k.agent == pipeAgentName }

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
	// Held is how far past AckRepliesThrough the sender holds replies,
	// once the hole below has aged a reorder window (gap); 0 for no hole.
	// The receiver re-sends the hole (lane.mend).
	Held     uint64
	Requests []request // consecutive seqs; the wire carries only the first
	// Probe is what a batch with no requests says in place of a first
	// seq: the sender's next unsent seq for a probe, which asks the
	// receiver for an answer, or 0 for a pure ack, which does not.
	Probe uint64
}

// replyBatch is the unit of transmission from receiver to sender.
type replyBatch struct {
	Agent              string
	Group              string
	Incarnation        uint64
	Epoch              uint64 // boot epoch of the receiving end (crash detection)
	AckRequestsThrough uint64 // receiver holds requests through this seq
	// Held is how far past AckRequestsThrough the receiver holds requests,
	// once the hole below has aged a reorder window (gap); 0 for no hole.
	// The sender re-sends the hole (lane.mend).
	Held             uint64
	CompletedThrough uint64 // receiver has executed calls through this seq
	Replies          []reply
	// Credit is the admission grant: the receiver will accept request
	// seqs through this value (its completed prefix plus recvWindow).
	// The 10th top-level value; 0 advertises no credit, and a sender that
	// has been granted none runs unbounded.
	Credit uint64
}

// breakMsg notifies the other end that the stream broke. It names no break
// point: a receiver announces a handler's break only once its sender has
// acked every reply through it.
type breakMsg struct {
	Agent       string
	Group       string
	Incarnation uint64
	ExcName     string // exception to raise for lost calls
	Reason      string
}

// hasConts reports whether any request carries a continuation chain, which
// moves the whole batch to the 10-value header.
func hasConts(reqs []request) bool {
	for i := range reqs {
		if reqs[i].Cont != nil {
			return true
		}
	}
	return false
}

// encodeRequestBatch writes a request batch (DESIGN.md §5): kind, agent,
// group, incarnation, reply ack, how far past it replies are held, the
// first request's seq, the [port, mode, args] tuples and their causal
// contexts as one list of flattened (root, parent) pairs. That is 9
// values. When any request carries a continuation chain a 10th follows:
// one continuation blob per request, empty for the plain ones.
//
// The message is built once, in a buffer of exactly its size carved from
// the sending peer's marshal arena a (the sum below mirrors the three
// append helpers; a mismatch would only make append grow the buffer, and
// TestBatchEncodersAllocateExactly catches it). frameRequestBatch
// (frame.go) writes the same three parts around a payload that is already
// in place.
func encodeRequestBatch(b requestBatch, a *arena) []byte {
	conts := hasConts(b.Requests)
	n := len(b.Requests)
	first := b.Probe // a probe or an ack has no requests
	if n > 0 {
		first = b.Requests[0].Seq
	}
	size := 1 + 2 + wire.SizeBlob(len(b.Agent)) + wire.SizeBlob(len(b.Group)) +
		wire.SizeInt(int64(b.Incarnation)) + wire.SizeInt(int64(b.AckRepliesThrough)) +
		wire.SizeInt(int64(b.Held)) + wire.SizeInt(int64(first)) +
		wire.SizeCount(n) + wire.SizeCount(2*n) + 4*n // two lists; a tuple header and a mode per request
	if conts {
		size += wire.SizeCount(n)
	}
	for i := range b.Requests {
		r := &b.Requests[i]
		size += wire.SizeBlob(len(r.Port)) + wire.SizeBlob(len(r.Args)) +
			wire.SizeInt(int64(r.Root)) + wire.SizeInt(int64(r.Parent))
		if conts {
			size += wire.SizeBlob(len(r.Cont))
		}
	}
	buf := appendRequestsOpen(a.take(size), &b, first, conts)
	for i := range b.Requests {
		buf = appendRequestOpen(buf, &b.Requests[i])
		buf = append(buf, b.Requests[i].Args...)
	}
	return appendRequestsClose(buf, b.Requests, conts)
}

// appendRequestsOpen appends a request batch up to the first request,
// which is call first.
func appendRequestsOpen(buf []byte, b *requestBatch, first uint64, conts bool) []byte {
	hdr := 9
	if conts {
		hdr = 10
	}
	buf = wire.AppendHeader(buf, hdr)
	buf = wire.AppendInt(buf, kindRequestBatch)
	buf = wire.AppendString(buf, b.Agent)
	buf = wire.AppendString(buf, b.Group)
	buf = wire.AppendInt(buf, int64(b.Incarnation))
	buf = wire.AppendInt(buf, int64(b.AckRepliesThrough))
	buf = wire.AppendInt(buf, int64(b.Held))
	buf = wire.AppendInt(buf, int64(first))
	return wire.AppendList(buf, len(b.Requests))
}

// appendRequestOpen appends one request up to its argument bytes.
func appendRequestOpen(buf []byte, r *request) []byte {
	buf = wire.AppendList(buf, 3)
	buf = wire.AppendString(buf, r.Port)
	buf = wire.AppendInt(buf, int64(r.Mode))
	return wire.AppendBytesHeader(buf, len(r.Args))
}

// appendRequestsClose appends what follows the last request: the cause
// and (when the batch has any) continuation lists.
func appendRequestsClose(buf []byte, reqs []request, conts bool) []byte {
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

// encodeReplyBatch writes a reply batch (DESIGN.md §5), always 10 values:
// kind, agent, group, incarnation, epoch, request ack, how far past it
// requests are held, completed prefix, the [seq, normal, excName,
// payload] tuples and the admission credit.
//
// Built once at its exact size from the arena a, like a request batch;
// frameReplyBatch (frame.go) is the in-place counterpart.
func encodeReplyBatch(b replyBatch, a *arena) []byte {
	n := len(b.Replies)
	size := 1 + 2 + wire.SizeBlob(len(b.Agent)) + wire.SizeBlob(len(b.Group)) +
		wire.SizeInt(int64(b.Incarnation)) + wire.SizeInt(int64(b.Epoch)) +
		wire.SizeInt(int64(b.AckRequestsThrough)) + wire.SizeInt(int64(b.Held)) + wire.SizeInt(int64(b.CompletedThrough)) +
		wire.SizeCount(n) + 3*n + wire.SizeInt(int64(b.Credit)) // a tuple header and a bool per reply
	for i := range b.Replies {
		r := &b.Replies[i]
		size += wire.SizeInt(int64(r.Seq)) + wire.SizeBlob(len(r.Outcome.Exception)) + wire.SizeBlob(len(r.Outcome.Payload))
	}
	buf := appendRepliesOpen(a.take(size), &b)
	for i := range b.Replies {
		buf = appendReplyOpen(buf, &b.Replies[i])
		buf = append(buf, b.Replies[i].Outcome.Payload...)
	}
	return wire.AppendInt(buf, int64(b.Credit))
}

// appendRepliesOpen appends a reply batch up to the first reply.
func appendRepliesOpen(buf []byte, b *replyBatch) []byte {
	buf = wire.AppendHeader(buf, 10)
	buf = wire.AppendInt(buf, kindReplyBatch)
	buf = wire.AppendString(buf, b.Agent)
	buf = wire.AppendString(buf, b.Group)
	buf = wire.AppendInt(buf, int64(b.Incarnation))
	buf = wire.AppendInt(buf, int64(b.Epoch))
	buf = wire.AppendInt(buf, int64(b.AckRequestsThrough))
	buf = wire.AppendInt(buf, int64(b.Held))
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
	return mustMarshal(kindBreak, b.Agent, b.Group, int64(b.Incarnation), b.ExcName, b.Reason)
}

// breakNote encodes the notice that incarnation inc of k's stream broke
// for reason.
func (k streamKey) breakNote(inc uint64, reason *exception.Exception) []byte {
	return encodeBreak(breakMsg{Agent: k.agent, Group: k.group, Incarnation: inc,
		ExcName: reason.Name, Reason: reason.StringArg(0)})
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
		if nvals != 6 {
			return 0, nil, nil, nil, fmt.Errorf("stream: break has %d values, want 6", nvals)
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
// how far past it replies are held, the first seq, the [port, mode, args]
// tuples, and the cause and (in a 10-value batch) continuation lists, each
// exactly as long as the encoder writes it. Request i is seq first+i, all
// of them in [1, MaxInt64]. Any other shape is an error: there is one
// layout.
func decodeRequests(d *wire.Decoder, b *requestBatch, nvals int) error {
	if nvals != 9 && nvals != 10 {
		return fmt.Errorf("stream: request batch has %d values, want 9 or 10", nvals)
	}
	ack, err := d.Int()
	if err != nil {
		return err
	}
	b.AckRepliesThrough = uint64(ack)
	held, err := d.Int()
	if err != nil {
		return err
	}
	b.Held = uint64(held)
	first, err := d.Int()
	if err != nil {
		return err
	}
	n, err := d.List()
	if err != nil {
		return err
	}
	if n > 0 && (first < 1 || first > math.MaxInt64-int64(n-1)) {
		return fmt.Errorf("stream: %d requests from seq %d", n, first)
	}
	if n == 0 {
		b.Probe = uint64(first)
	}
	for i := 0; i < n; i++ {
		if fields, err := d.List(); err != nil {
			return err
		} else if fields != 3 {
			return fmt.Errorf("stream: request has %d fields, want 3", fields)
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
			Seq: uint64(first) + uint64(i), Port: internString(port), Mode: Mode(mode), Args: args,
		})
	}
	reqs := b.Requests
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
	if nvals == 9 {
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
// ack, how far past it requests are held, completed prefix, the [seq,
// normal, excName, payload] tuples and the admission credit. A batch of
// other than 10 values is an error.
func decodeReplies(d *wire.Decoder, b *replyBatch, nvals int) error {
	if nvals != 10 {
		return fmt.Errorf("stream: reply batch has %d values, want 10", nvals)
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
	held, err := d.Int()
	if err != nil {
		return err
	}
	b.Held = uint64(held)
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

// decodeBreakTail reads the [excName, reason] tail of a break message.
// Breaks are rare, so their strings are plain copies and the struct is not
// pooled.
func decodeBreakTail(d *wire.Decoder) (*breakMsg, error) {
	b := &breakMsg{}
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
