package tcpnet

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"
)

// frame encodes one length-prefixed frame, the writer's wire format.
func frame(payload []byte) []byte {
	out := binary.BigEndian.AppendUint32(nil, uint32(len(payload)))
	return append(out, payload...)
}

// TestFrameReaderRoundTrip: a sequence of frames of assorted sizes —
// empty, small, larger than the arena chunk — decodes back intact, and a
// clean close on a frame boundary reads as io.EOF.
func TestFrameReaderRoundTrip(t *testing.T) {
	payloads := [][]byte{
		{},
		[]byte("hi"),
		bytes.Repeat([]byte{0xAB}, 100),
		bytes.Repeat([]byte{0xCD}, 5000), // larger than the test chunk
		[]byte("tail"),
	}
	var wire []byte
	for _, p := range payloads {
		wire = append(wire, frame(p)...)
	}
	fr := newFrameReader(bytes.NewReader(wire), 256, 1<<20)
	for i, want := range payloads {
		got, err := fr.next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: got %d bytes, want %d", i, len(got), len(want))
		}
	}
	if _, err := fr.next(); err != io.EOF {
		t.Fatalf("after last frame: err = %v, want io.EOF", err)
	}
}

// cutReader serves data with one forced read boundary: no Read returns
// bytes from both sides of cut, and each Read is capped at step bytes.
type cutReader struct {
	data      []byte
	pos       int
	cut, step int
}

func (r *cutReader) Read(p []byte) (int, error) {
	if r.pos == len(r.data) {
		return 0, io.EOF
	}
	end := min(r.pos+len(p), r.pos+r.step, len(r.data))
	if r.pos < r.cut {
		end = min(end, r.cut)
	}
	n := copy(p, r.data[r.pos:end])
	r.pos += n
	return n, nil
}

// boundaryFrames are frames sized around the arena chunk: just under it,
// exactly it, just over it and four times it, with small frames between
// so the reader meets each in every state — mid-chunk, at a chunk's end
// with bytes buffered, and with the chunk spent and nothing buffered
// (nextSized: prefix first, then storage made to measure).
func boundaryFrames(chunk int) [][]byte {
	var out [][]byte
	for i, n := range []int{chunk - 1, 3, chunk, chunk/2 - 1, chunk + 1, 0, 4 * chunk, chunk / 2, 1, chunk - lenSize} {
		p := make([]byte, n)
		for j := range p {
			p[j] = byte(i*31 + j)
		}
		out = append(out, p)
	}
	return out
}

// TestFrameReaderChunkBoundaries: the boundary frames decode intact
// wherever the byte stream is cut into reads — at every offset, with the
// rest arriving whole, in chunk-sized pieces, or a byte at a time — and
// the stream ends in a clean EOF.
func TestFrameReaderChunkBoundaries(t *testing.T) {
	const chunk = 64
	payloads := boundaryFrames(chunk)
	var wire []byte
	for _, p := range payloads {
		wire = append(wire, frame(p)...)
	}
	for _, step := range []int{len(wire), chunk, 1} {
		for cut := 0; cut <= len(wire); cut++ {
			fr := newFrameReader(&cutReader{data: wire, cut: cut, step: step}, chunk, 1<<20)
			var got [][]byte
			for i, want := range payloads {
				p, err := fr.next()
				if err != nil {
					t.Fatalf("step %d, cut %d, frame %d: %v", step, cut, i, err)
				}
				if !bytes.Equal(p, want) {
					t.Fatalf("step %d, cut %d, frame %d: %d bytes %x..., want %d", step, cut, i, len(p), p[:min(8, len(p))], len(want))
				}
				got = append(got, p)
			}
			if _, err := fr.next(); err != io.EOF {
				t.Fatalf("step %d, cut %d: after the last frame err = %v, want io.EOF", step, cut, err)
			}
			for i, p := range got { // earlier payloads survive the later reads
				if !bytes.Equal(p, payloads[i]) {
					t.Fatalf("step %d, cut %d: frame %d was overwritten", step, cut, i)
				}
			}
			if step == 1 {
				break // a byte at a time, the cut changes nothing
			}
		}
	}
}

// TestFrameReaderSizesBeforeItAllocates: with the chunk spent and nothing
// buffered, a large frame costs one allocation of its own size and no
// move, and leaves the reader in the same state for the next one.
func TestFrameReaderSizesBeforeItAllocates(t *testing.T) {
	const chunk = 1 << 10
	big := bytes.Repeat([]byte{0xEE}, 4*chunk)
	var wire []byte
	for i := 0; i < 3; i++ {
		wire = append(wire, frame(big)...)
	}
	fr := newFrameReader(bytes.NewReader(wire), chunk, 1<<20)
	for i := 0; i < 3; i++ {
		p, err := fr.next()
		if err != nil || !bytes.Equal(p, big) {
			t.Fatalf("frame %d: %d bytes, %v", i, len(p), err)
		}
		if cap(p) != len(big) {
			t.Errorf("frame %d sits in %d bytes of storage, want exactly %d", i, cap(p), len(big))
		}
		if fr.buf != nil {
			t.Errorf("frame %d: the reader took a %d-byte chunk it had no use for", i, len(fr.buf))
		}
	}
}

// TestFrameReaderTruncatedAfterSizedPrefix: a stream that ends after a
// prefix read on its own, or inside the payload it announced, is an
// unexpected EOF on both of nextSized's branches.
func TestFrameReaderTruncatedAfterSizedPrefix(t *testing.T) {
	const chunk = 64
	for _, n := range []int{chunk/2 - 1, chunk / 2, 4 * chunk} {
		full := frame(bytes.Repeat([]byte{1}, n))
		for cut := 1; cut < len(full); cut++ {
			fr := newFrameReader(bytes.NewReader(full[:cut]), chunk, 1<<20)
			if _, err := fr.next(); err != io.ErrUnexpectedEOF {
				t.Fatalf("%d-byte frame cut at %d: err = %v, want io.ErrUnexpectedEOF", n, cut, err)
			}
		}
	}
}

// TestFrameReaderPayloadsStayValid: the zero-copy contract — payloads
// returned earlier must remain intact after the reader moves to fresh
// arena chunks.
func TestFrameReaderPayloadsStayValid(t *testing.T) {
	var wire []byte
	const n = 64
	for i := 0; i < n; i++ {
		wire = append(wire, frame(bytes.Repeat([]byte{byte(i)}, 50))...)
	}
	fr := newFrameReader(bytes.NewReader(wire), 128, 1<<20) // several frames per chunk
	got := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		p, err := fr.next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		got = append(got, p)
	}
	for i, p := range got {
		for _, b := range p {
			if b != byte(i) {
				t.Fatalf("frame %d was overwritten: found byte %#x", i, b)
			}
		}
	}
}

// TestFrameReaderTruncation: a stream cut inside a length prefix or a
// payload is an io.ErrUnexpectedEOF, never a hang or a bogus frame.
func TestFrameReaderTruncation(t *testing.T) {
	full := frame([]byte("hello, promises"))
	for cut := 1; cut < len(full); cut++ {
		fr := newFrameReader(bytes.NewReader(full[:cut]), 64, 1<<20)
		if _, err := fr.next(); err != io.ErrUnexpectedEOF {
			t.Fatalf("cut at %d: err = %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
}

// TestFrameReaderOversizedFrame: a length prefix beyond the limit kills
// the stream before any allocation of that size happens.
func TestFrameReaderOversizedFrame(t *testing.T) {
	wire := binary.BigEndian.AppendUint32(nil, 1<<30)
	wire = append(wire, make([]byte, 64)...)
	fr := newFrameReader(bytes.NewReader(wire), 64, 1<<20)
	if _, err := fr.next(); err != errFrameTooBig {
		t.Fatalf("err = %v, want errFrameTooBig", err)
	}
}

// TestHelloRoundTrip: writeHello's preamble parses back to the name, and
// frames following the hello decode from the same reader.
func TestHelloRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := writeHello(&buf, "client-7"); err != nil {
		t.Fatal(err)
	}
	buf.Write(frame([]byte("first"))) // already buffered past the hello
	name, fr, err := readHello(&buf, 64, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if name != "client-7" {
		t.Fatalf("name = %q", name)
	}
	p, err := fr.next()
	if err != nil || string(p) != "first" {
		t.Fatalf("frame after hello = %q, %v", p, err)
	}
}

// TestHelloRejectsGarbage: wrong magic, empty names, and oversized names
// are all refused.
func TestHelloRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"empty":      {},
		"bad magic":  []byte("HTTP/1.1 200 OK\r\n"),
		"short":      connMagic[:2],
		"empty name": append(connMagic[:], frame(nil)...),
		"huge name":  append(connMagic[:], frame(bytes.Repeat([]byte{'x'}, 4096))...),
	}
	for label, wire := range cases {
		if _, _, err := readHello(bytes.NewReader(wire), 64, 1<<20); err == nil {
			t.Fatalf("%s: hello accepted", label)
		}
	}
}
