package tcpnet

import (
	"encoding/binary"
	"errors"
	"io"
)

// The wire format is the simplest thing that preserves datagram
// boundaries over a byte stream: each protocol message becomes one frame,
// a 4-byte big-endian payload length followed by the payload bytes. No
// per-frame type tag or checksum — the payload is a stream-protocol
// datagram with its own versioned header, and TCP already guarantees
// integrity. A connection opens with a 4-byte magic and one hello frame
// carrying the dialer's endpoint name, so the acceptor can route replies
// back over the same connection.

const (
	// lenSize is the frame length prefix width.
	lenSize = 4
	// defaultChunk is the arena chunk size the frame reader allocates
	// payload storage from: one allocation amortized over ~chunk/frame
	// frames.
	defaultChunk = 64 << 10
	// defaultMaxFrame bounds a single frame; a length prefix beyond it is
	// a protocol violation (or garbage) and kills the connection before
	// any oversized allocation happens.
	defaultMaxFrame = 16 << 20
	// helloLimit bounds the handshake hello frame (an endpoint name).
	helloLimit = 256
)

// connMagic opens every connection, before the hello frame. The digit
// versions the framing itself, independent of the stream protocol's
// versioned batch headers.
var connMagic = [4]byte{'P', 'R', 'M', '1'}

var (
	errFrameTooBig = errors.New("tcpnet: frame exceeds size limit")
	errBadMagic    = errors.New("tcpnet: bad connection magic")
	errBadHello    = errors.New("tcpnet: bad hello frame")
)

// frameReader decodes length-prefixed frames from a byte stream into a
// chunked arena, so the read path does not allocate per frame. Payload
// slices alias the current arena chunk and are handed to the stream
// layer, whose zero-copy decode aliases them indefinitely — which is why
// chunks are never pooled or reused: when one fills up the reader simply
// starts a fresh one and lets the collector reclaim the old chunk once
// the last payload into it dies. Amortized cost is one allocation per
// chunkSize bytes of traffic, not one per frame.
//
// frameReader is not safe for concurrent use; each connection owns one.
type frameReader struct {
	r     io.Reader
	chunk int // arena chunk size
	max   int // frame size limit

	buf        []byte // current arena chunk
	rpos, wpos int    // unconsumed bytes are buf[rpos:wpos]

	pre [lenSize]byte // nextSized reads a length prefix here, ahead of any chunk
}

func newFrameReader(r io.Reader, chunkSize, maxFrame int) *frameReader {
	if chunkSize <= 0 {
		chunkSize = defaultChunk
	}
	if maxFrame <= 0 {
		maxFrame = defaultMaxFrame
	}
	return &frameReader{r: r, chunk: chunkSize, max: maxFrame}
}

// ensure makes at least need contiguous bytes available at buf[rpos:].
// When the current chunk cannot hold them it moves the unconsumed tail
// to a fresh chunk (already-returned payloads keep aliasing the old one,
// untouched) and keeps reading there.
func (fr *frameReader) ensure(need int) error {
	if fr.rpos+need > len(fr.buf) {
		size := fr.chunk
		if need > size {
			size = need
		}
		next := make([]byte, size)
		copy(next, fr.buf[fr.rpos:fr.wpos])
		fr.wpos -= fr.rpos
		fr.rpos = 0
		fr.buf = next
	}
	return fr.fill(need)
}

// fill reads until need unconsumed bytes are buffered, taking whatever
// more the reader has up to the end of the chunk, which must have room
// for them.
func (fr *frameReader) fill(need int) error {
	for fr.wpos-fr.rpos < need {
		n, err := fr.r.Read(fr.buf[fr.wpos:])
		fr.wpos += n
		if err != nil {
			if fr.wpos-fr.rpos >= need {
				return nil
			}
			if err == io.EOF && fr.wpos != fr.rpos {
				return io.ErrUnexpectedEOF
			}
			return err
		}
	}
	return nil
}

// next returns the next frame's payload, aliasing the arena (valid until
// collected; never overwritten). io.EOF means a clean close on a frame
// boundary; a mid-frame close is io.ErrUnexpectedEOF.
func (fr *frameReader) next() ([]byte, error) {
	if fr.rpos == fr.wpos && fr.rpos+lenSize > len(fr.buf) {
		return fr.nextSized()
	}
	if err := fr.ensure(lenSize); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(fr.buf[fr.rpos:]))
	if n > fr.max {
		return nil, errFrameTooBig
	}
	if err := fr.ensure(lenSize + n); err != nil {
		return nil, err
	}
	start := fr.rpos + lenSize
	payload := fr.buf[start : start+n : start+n]
	fr.rpos += lenSize + n
	return payload, nil
}

// nextSized is next for the one state in which the reader must allocate
// before it can read anything: the chunk is spent and nothing is buffered.
// A fresh chunk taken there just to hold the prefix is wasted on a frame
// that outgrows it — the chunk is dropped for a bigger one and whatever
// the read pulled in is moved over. So the prefix is read on its own
// first, and the allocation made to measure: a frame of half a chunk or
// more gets storage of exactly its size and is read straight into it, a
// smaller one starts a normal chunk (which the read then fills with as
// many following frames as have arrived). The extra read costs a system
// call once per chunk of small frames, or per large frame.
func (fr *frameReader) nextSized() ([]byte, error) {
	if _, err := io.ReadFull(fr.r, fr.pre[:]); err != nil {
		return nil, err // io.EOF only if not one byte of a prefix came
	}
	n := int(binary.BigEndian.Uint32(fr.pre[:]))
	if n > fr.max {
		return nil, errFrameTooBig
	}
	var (
		payload []byte
		err     error
	)
	if n >= fr.chunk/2 {
		payload = make([]byte, n)
		_, err = io.ReadFull(fr.r, payload)
	} else {
		fr.buf, fr.rpos, fr.wpos = make([]byte, fr.chunk), 0, 0
		if err = fr.fill(n); err == nil {
			payload, fr.rpos = fr.buf[:n:n], n
		}
	}
	if err == io.EOF {
		err = io.ErrUnexpectedEOF // the prefix promised n more bytes
	}
	if err != nil {
		return nil, err
	}
	return payload, nil
}

// writeHello sends the connection preamble: magic, then a hello frame
// carrying our endpoint name.
func writeHello(w io.Writer, name string) error {
	buf := make([]byte, 0, len(connMagic)+lenSize+len(name))
	buf = append(buf, connMagic[:]...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(name)))
	buf = append(buf, name...)
	_, err := w.Write(buf)
	return err
}

// readHello consumes the preamble from an accepted connection and
// returns the remote endpoint's name and the frame reader to keep using
// on the connection (it may have buffered bytes past the hello).
func readHello(r io.Reader, chunkSize, maxFrame int) (string, *frameReader, error) {
	fr := newFrameReader(r, chunkSize, maxFrame)
	if err := fr.ensure(len(connMagic)); err != nil {
		return "", nil, errBadMagic
	}
	if [4]byte(fr.buf[fr.rpos:fr.rpos+4]) != connMagic {
		return "", nil, errBadMagic
	}
	fr.rpos += len(connMagic)
	hello, err := fr.next()
	if err != nil || len(hello) == 0 || len(hello) > helloLimit {
		return "", nil, errBadHello
	}
	return string(hello), fr, nil
}
