package tcpnet

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzFrameReader throws arbitrary byte streams at the frame decoder:
// truncated length prefixes, oversized frames, garbage mid-stream. The
// invariants: no panic, no frame larger than the configured limit ever
// comes back, and every returned payload matches the length its prefix
// declared (checked by re-deriving the prefix positions independently).
func FuzzFrameReader(f *testing.F) {
	f.Add([]byte{})
	f.Add(frame([]byte("hello")))
	f.Add(append(frame([]byte("a")), frame(bytes.Repeat([]byte{9}, 300))...))
	f.Add(binary.BigEndian.AppendUint32(nil, 0xFFFFFFFF))
	f.Add([]byte{0, 0, 0, 5, 'x'}) // truncated payload
	f.Add([]byte{0, 0})            // truncated prefix
	// Frames around the fuzz chunk (32): under, at, over and four times
	// it, whole and cut short, so mutation starts from every allocation
	// decision nextSized and ensure can make.
	var around []byte
	for _, p := range boundaryFrames(32) {
		around = append(around, frame(p)...)
		f.Add(frame(p))
		f.Add(frame(p)[:len(p)/2+lenSize])
	}
	f.Add(around)

	f.Fuzz(func(t *testing.T, data []byte) {
		const maxFrame = 1 << 16
		// Tiny chunks force arena turnover inside single frames.
		fr := newFrameReader(bytes.NewReader(data), 32, maxFrame)
		pos := 0
		for i := 0; i < 1<<14; i++ {
			p, err := fr.next()
			if err != nil {
				return
			}
			if len(p) > maxFrame {
				t.Fatalf("frame of %d bytes exceeds the %d limit", len(p), maxFrame)
			}
			// Independently decode what the reader should have seen.
			if pos+lenSize > len(data) {
				t.Fatalf("decoder produced a frame past the input (pos %d)", pos)
			}
			want := int(binary.BigEndian.Uint32(data[pos:]))
			if want != len(p) {
				t.Fatalf("frame %d: %d bytes, prefix said %d", i, len(p), want)
			}
			if !bytes.Equal(p, data[pos+lenSize:pos+lenSize+want]) {
				t.Fatalf("frame %d: payload corrupted", i)
			}
			pos += lenSize + want
		}
		t.Fatal("unbounded frame stream from bounded input")
	})
}

// FuzzReadHello drives the connection preamble parser with arbitrary
// bytes: it must never panic, and whenever it accepts, the name must
// round-trip through writeHello to an identical preamble prefix.
func FuzzReadHello(f *testing.F) {
	var ok bytes.Buffer
	_ = writeHello(&ok, "some-guardian")
	f.Add(ok.Bytes())
	f.Add([]byte("PRM1"))
	f.Add([]byte("PRM2junk"))
	f.Add(append([]byte("PRM1"), 0xFF, 0xFF, 0xFF, 0xFF))

	f.Fuzz(func(t *testing.T, data []byte) {
		name, _, err := readHello(bytes.NewReader(data), 32, 1<<16)
		if err != nil {
			return
		}
		if name == "" || len(name) > helloLimit {
			t.Fatalf("accepted hello with invalid name length %d", len(name))
		}
		var re bytes.Buffer
		if err := writeHello(&re, name); err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, re.Bytes()) {
			t.Fatalf("accepted preamble does not round-trip for name %q", name)
		}
	})
}
