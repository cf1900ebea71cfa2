package wire

import (
	"bytes"
	"testing"
	"unsafe"
)

// fuzzSeeds returns well-formed messages to seed both fuzzers: a mix of
// every value kind the format supports, shaped like the stream layer's
// batch messages.
func fuzzSeeds() [][]byte {
	var reqBatch []byte
	reqBatch = AppendHeader(reqBatch, 6)
	reqBatch = AppendInt(reqBatch, 1)
	reqBatch = AppendString(reqBatch, "agent")
	reqBatch = AppendString(reqBatch, "group")
	reqBatch = AppendInt(reqBatch, 1)
	reqBatch = AppendInt(reqBatch, 0)
	reqBatch = AppendList(reqBatch, 1)
	reqBatch = AppendList(reqBatch, 4)
	reqBatch = AppendInt(reqBatch, 1)
	reqBatch = AppendString(reqBatch, "echo")
	reqBatch = AppendInt(reqBatch, 0)
	reqBatch = AppendBytes(reqBatch, []byte("argument-bytes"))

	// The current 8-value request batch: trailing trace-ID list plus
	// flattened (root, parent) causal-context pairs.
	var causal []byte
	causal = AppendHeader(causal, 8)
	causal = AppendInt(causal, 1)
	causal = AppendString(causal, "agent")
	causal = AppendString(causal, "group")
	causal = AppendInt(causal, 1)
	causal = AppendInt(causal, 0)
	causal = AppendList(causal, 1)
	causal = AppendList(causal, 4)
	causal = AppendInt(causal, 1)
	causal = AppendString(causal, "echo")
	causal = AppendInt(causal, 0)
	causal = AppendBytes(causal, []byte("argument-bytes"))
	causal = AppendList(causal, 1)
	causal = AppendInt(causal, 0x1234)
	causal = AppendList(causal, 2)
	causal = AppendInt(causal, 0x777)
	causal = AppendInt(causal, 0x1233)

	// The 9-value request batch: the causal form plus a trailing list of
	// per-request continuation blobs (promise pipelining). The blob itself
	// is opaque bytes at this layer.
	var piped []byte
	piped = AppendHeader(piped, 9)
	piped = AppendInt(piped, 1)
	piped = AppendString(piped, "agent")
	piped = AppendString(piped, "group")
	piped = AppendInt(piped, 1)
	piped = AppendInt(piped, 0)
	piped = AppendList(piped, 1)
	piped = AppendList(piped, 4)
	piped = AppendInt(piped, 1)
	piped = AppendString(piped, "echo")
	piped = AppendInt(piped, 0)
	piped = AppendBytes(piped, []byte("argument-bytes"))
	piped = AppendList(piped, 1)
	piped = AppendInt(piped, 0x1234)
	piped = AppendList(piped, 2)
	piped = AppendInt(piped, 0x777)
	piped = AppendInt(piped, 0x1233)
	piped = AppendList(piped, 1)
	piped = AppendBytes(piped, []byte("continuation-blob"))

	misc, _ := Marshal(nil, true, false, int64(-5), 3.25, "str", []byte{9},
		[]any{int64(1), "two"}, map[string]any{"k": int64(7)}, Ref{Kind: "port", Name: "p"})

	return [][]byte{reqBatch, causal, piped, misc, {}, {0x07, 0xff}, {0x05, 0x80}}
}

// FuzzDecoder drives the zero-copy cursor over arbitrary input: it must
// never panic, and every view it hands out must alias the input buffer
// in bounds. This property is load-bearing — the stream layer retains
// decoded views (request args, reply payloads) past the decode call.
func FuzzDecoder(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkView := func(view []byte) {
			if len(view) == 0 || len(data) == 0 {
				return
			}
			lo := uintptr(unsafe.Pointer(&data[0]))
			hi := lo + uintptr(len(data))
			p := uintptr(unsafe.Pointer(&view[0]))
			if p < lo || p+uintptr(len(view)) > hi {
				t.Fatalf("view escapes input bounds")
			}
		}
		d := NewDecoder(data)
		if _, err := d.Header(); err != nil {
			return
		}
		// Walk the remainder with a rotation of every accessor; each step
		// either consumes bytes or errors, so the walk terminates.
		for i := 0; d.Remaining() > 0 && i < len(data)*2+8; i++ {
			switch i % 5 {
			case 0:
				if v, err := d.StringView(); err == nil {
					checkView(v)
				}
			case 1:
				d.Int()
			case 2:
				if v, err := d.BytesView(); err == nil {
					checkView(v)
				}
			case 3:
				d.Bool()
			case 4:
				d.List()
			}
		}
		d.Done()
	})
}

// FuzzUnmarshal asserts the materializing decoder never panics on
// arbitrary input; whatever it accepts must re-encode.
func FuzzUnmarshal(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		vals, err := Unmarshal(data)
		if err != nil {
			return
		}
		if _, err := Marshal(vals...); err != nil {
			t.Fatalf("decoded values failed to re-encode: %v", err)
		}
	})
}

// FuzzUnmarshalIntoMatchesUnmarshal: the view decode and the copying
// decode are the same function of their input — the same values, or an
// error from both — and every byte string the view decode hands out lies
// inside the input.
func FuzzUnmarshalIntoMatchesUnmarshal(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		owned, ownedErr := Unmarshal(data)
		var scratch [4]any
		views, viewErr := UnmarshalInto(scratch[:0], data)
		if (ownedErr == nil) != (viewErr == nil) {
			t.Fatalf("Unmarshal err %v, UnmarshalInto err %v", ownedErr, viewErr)
		}
		if ownedErr != nil {
			if ownedErr.Error() != viewErr.Error() {
				t.Fatalf("errors differ: %v vs %v", ownedErr, viewErr)
			}
			return
		}
		// NaN != NaN under DeepEqual; compare through the encoding.
		a, errA := Marshal(owned...)
		b, errB := Marshal(views...)
		if errA != nil || errB != nil || !bytes.Equal(a, b) {
			t.Fatalf("decodes differ: %v (%v) vs %v (%v)", owned, errA, views, errB)
		}
		var walk func(v any)
		walk = func(v any) {
			switch x := v.(type) {
			case []byte:
				if len(x) == 0 {
					return
				}
				lo := uintptr(unsafe.Pointer(&data[0]))
				p := uintptr(unsafe.Pointer(&x[0]))
				if p < lo || p+uintptr(len(x)) > lo+uintptr(len(data)) {
					t.Fatalf("view escapes input bounds")
				}
			case []any:
				for _, e := range x {
					walk(e)
				}
			case map[string]any:
				for _, e := range x {
					walk(e)
				}
			}
		}
		walk(any(views))
	})
}
