package stream

import (
	"sync"

	"promises/internal/wire"
)

// arenaChunk is the size of one arena chunk: a hundred small argument
// lists, a few dozen continuation blobs of a typical chain, or a dozen
// batch messages of small calls.
const arenaChunk = 4 << 10

// arena is the peer's marshal arena: the bytes of every argument and
// result list shorter than rideAlone that the peer's callers and handlers
// encode (Stream.Marshal, Incoming.Marshal), the continuation blob each
// chain origin encodes, the blobs and resolution arguments the epoch
// scheduler builds per chain, and every request and reply batch message
// the peer's streams encode (encodeRequestBatch, encodeReplyBatch) — so
// that small buffers cost an allocation per chunk rather than one each.
// The lock is held only for the carve, and it is a leaf: a chain origin
// and a stream encoding a batch take it inside their stream's lock. The
// bytes are written outside it, by the goroutine that took them.
//
// The lifetime rule: bytes once handed out are never written again. They
// outlive the call that took them — a request's rides in its stream's
// unacked requests, which other goroutines re-encode on retransmission; a
// reply's rides in the retained replies; a blob rides in unacked requests
// and its stream's watches until its send resolves; a message rides in
// the transport, and the receiving end may keep viewing it — so the arena
// only appends: each take is carved after the last, and when the current
// chunk cannot hold the next buffer a fresh chunk replaces it. The garbage
// collector reclaims a chunk once nothing views it. The arena is per peer,
// not per stream, so an idle stream pins no chunk.
type arena struct {
	mu    sync.Mutex
	chunk []byte
}

// take returns an empty buffer with room for exactly n bytes. Its capacity
// ends where its room does, so an append past n moves to a buffer of its
// own instead of writing into the next take's bytes. A buffer that does not
// fit in what is left of the chunk starts a fresh chunk if it is small; one
// larger than an eighth of a chunk is allocated on its own, and the chunk
// keeps its tail for the small takes after it. A nil arena allocates every
// buffer on its own.
func (a *arena) take(n int) []byte {
	if a == nil || n > arenaChunk {
		return make([]byte, 0, n)
	}
	a.mu.Lock()
	if cap(a.chunk)-len(a.chunk) < n {
		if n > arenaChunk/8 {
			a.mu.Unlock()
			return make([]byte, 0, n)
		}
		a.chunk = make([]byte, 0, arenaChunk)
	}
	at := len(a.chunk)
	a.chunk = a.chunk[:at+n]
	buf := a.chunk[at : at : at+n]
	a.mu.Unlock()
	return buf
}

// marshal encodes an argument or result list like wire.Marshal. A list
// shorter than rideAlone is carved from the arena; a list of a page or
// more gets a buffer of its own with room around the encoding, which the
// stream turns into the call's message in place (frame.go).
func (a *arena) marshal(vals []any) (Marshalled, error) {
	sz, err := wire.Size(vals...)
	if err != nil {
		return Marshalled{}, err
	}
	n := sz.Len()
	if n < rideAlone {
		return Marshalled{buf: sz.AppendTo(a.take(n), vals...)}, nil
	}
	buf := sz.AppendTo(make([]byte, frameHeadroom, frameHeadroom+n+frameTailroom), vals...)
	return Marshalled{buf: buf, off: frameHeadroom}, nil
}

// Marshal encodes an argument list for a call on s, to be handed to
// Issue. A small list costs no allocation of its own: it is carved from
// the peer's marshal arena. A list of a page or more comes back in a
// buffer the stream turns into the call's message in place: it is never
// copied again on this side of the transport.
func (s *Stream) Marshal(vals ...any) (Marshalled, error) { return s.peer.arena.marshal(vals) }

// Marshal encodes the call's result list, to be handed to
// NormalMarshalled, as Stream.Marshal encodes arguments: from the peer's
// marshal arena, or from a page up in a buffer built around in place.
// Like every other method it is valid only while the handler runs.
func (c *Incoming) Marshal(vals ...any) (Marshalled, error) {
	if c.retired {
		panic("stream: Incoming used after its handler returned (Clone to retain)")
	}
	return c.peer.arena.marshal(vals)
}
