package stream

import "promises/internal/wire"

// Bulk calls ride alone. Batching amortizes per-message costs over several
// calls, which pays for small calls; a call whose arguments or results
// fill a page has nothing to amortize, and putting it in a batch only
// copies it. So a marshalled list of at least rideAlone bytes travels as a
// batch of its own, and that batch's message is the marshalled buffer
// itself: stream.Marshal leaves room before and after the encoding, and
// frameRequestBatch / frameReplyBatch write the batch's head into the room
// in front and its trailing values into the room behind. The bytes on the
// wire are exactly what encodeRequestBatch / encodeReplyBatch would have
// produced for the same one-entry batch, so no decoder can tell the two
// apart; whatever does not fit the rule (more than one entry, a
// continuation, an exceptional or piped outcome, a retransmission, names
// too long for the room, a payload that came in as plain bytes) is
// encoded by those.
const (
	// rideAlone is one page: below it a call's bytes are cheaper to copy
	// into a shared batch than a message of their own is to send; from it
	// up the copy costs more than the message. It is a constant, not an
	// option — nothing a caller knows moves the crossover.
	rideAlone = 4 << 10
	// frameHeadroom holds a one-entry batch's head: about 40 bytes of
	// counts and small integers plus the agent, group and port names. A
	// head that does not fit sends the call down the copying path.
	frameHeadroom = 128
	// frameTailroom holds the values after the payload, which are all
	// integers: a request's trace ID, root and parent in their two lists
	// (2+11+2+22), or a reply batch's credit (11). It always suffices.
	frameTailroom = 40
)

// Marshalled is an encoded argument or result list on its way into a
// stream, as Marshal returns it.
type Marshalled struct {
	buf []byte // Bytes is buf[off:]
	off int    // frameHeadroom when buf has room around the encoding, else 0
}

// Marshal encodes an argument or result list like wire.Marshal, in one
// allocation. A list of a page or more comes back in a buffer the stream
// can turn into the call's message in place: handed to CallMarshalled,
// SendMarshalled, RPCMarshalled or NormalMarshalled it is never copied
// again on this side of the transport.
func Marshal(vals ...any) (Marshalled, error) {
	buf, off, err := wire.MarshalRoom(rideAlone, frameHeadroom, frameTailroom, vals...)
	return Marshalled{buf: buf, off: off}, err
}

// Bytes returns the encoding, identical to wire.Marshal's.
func (m Marshalled) Bytes() []byte { return m.buf[m.off:] }

// frame returns the buffer around the encoding, nil when there is none.
func (m Marshalled) frame() []byte {
	if m.off == 0 {
		return nil
	}
	return m.buf
}

// plain wraps bytes that came in through the []byte API: no room around
// them, so they batch and are copied like any small call.
func plain(b []byte) Marshalled { return Marshalled{buf: b} }

// NormalMarshalled builds the outcome of a normal termination from a
// result list encoded by Marshal.
func NormalMarshalled(m Marshalled) Outcome {
	return Outcome{Normal: true, Payload: m.Bytes(), frame: m.frame()}
}

// frameRequestBatch builds the message of a batch whose one request lies
// in a Marshal buffer, in that buffer. It returns nil when the batch is
// not of that shape or its head is longer than the headroom; the caller
// then uses encodeRequestBatch. The buffer's room is spent by the call, so
// it may be used at most once per request — the caller's to ensure.
func frameRequestBatch(b requestBatch) []byte {
	if len(b.Requests) != 1 || b.Requests[0].frame == nil || b.Requests[0].Cont != nil {
		return nil
	}
	r := &b.Requests[0]
	frame, off := r.frame, len(r.frame)-len(r.Args)
	start := seatHead(frame, off, appendRequestOpen(appendRequestsOpen(frame[:0:off], &b, false), r))
	if start < 0 {
		return nil
	}
	return appendRequestsClose(frame, b.Requests, false)[start:]
}

// frameReplyBatch is frameRequestBatch for a batch whose one reply is a
// normal, un-piped outcome built by NormalMarshalled.
func frameReplyBatch(b replyBatch) []byte {
	if len(b.Replies) != 1 {
		return nil
	}
	r := &b.Replies[0]
	if r.Outcome.frame == nil || !r.Outcome.Normal || r.Outcome.Piped {
		return nil
	}
	frame, off := r.Outcome.frame, len(r.Outcome.frame)-len(r.Outcome.Payload)
	start := seatHead(frame, off, appendReplyOpen(appendRepliesOpen(frame[:0:off], &b, 0), r))
	if start < 0 {
		return nil
	}
	return appendRepliesClose(frame, &b, 0)[start:]
}

// seatHead moves a batch head, appended at the start of the headroom
// frame[:off], up against the payload and returns where the message now
// starts. A head that outgrew the headroom (append moved it to an array of
// its own) does not fit: -1.
func seatHead(frame []byte, off int, head []byte) int {
	start := off - len(head)
	if start >= 0 {
		copy(frame[start:off], head)
	}
	return start
}
