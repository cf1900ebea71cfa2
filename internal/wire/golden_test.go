package wire

import (
	"bytes"
	"encoding/hex"
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

// goldenCases covers every tag and every Go type Marshal accepts. The
// expected bytes in goldenHex were produced by the encoder as it stood
// before Marshal learned to size its output first (the append-and-grow
// implementation), so they pin the wire format across that rewrite and any
// later one: peers built from different commits must keep agreeing.
func goldenCases() []struct {
	name string
	vals []any
} {
	long := make([]byte, 130) // length prefix needs two bytes
	for i := range long {
		long[i] = byte(i)
	}
	return []struct {
		name string
		vals []any
	}{
		{"empty", nil},
		{"nil", []any{nil}},
		{"bools", []any{true, false}},
		{"int", []any{int(-1), int(0), int(300)}},
		{"int8", []any{int8(-128), int8(127)}},
		{"int16", []any{int16(-32768), int16(32767)}},
		{"int32", []any{int32(math.MinInt32), int32(math.MaxInt32)}},
		{"int64", []any{int64(math.MinInt64), int64(math.MaxInt64), int64(1) << 20}},
		{"uint8", []any{uint8(0), uint8(255)}},
		{"uint16", []any{uint16(65535)}},
		{"uint32", []any{uint32(math.MaxUint32)}},
		{"uint64", []any{uint64(math.MaxInt64)}},
		{"uint", []any{uint(1 << 40)}},
		{"float32", []any{float32(1.5)}},
		{"float64", []any{3.25, math.Inf(-1), 0.0}},
		{"string", []any{"", "héllo", string(long[:128])}},
		{"bytes", []any{[]byte{}, []byte{9, 8, 7}, long}},
		{"ref", []any{Ref{Kind: "port", Name: "node/main/echo"}, Ref{}}},
		{"list", []any{[]any{}, []any{int64(1), "two", []any{[]byte{3}, nil}}}},
		{"map", []any{map[string]any{}, map[string]any{
			"b": int64(2), "a": "one", "c": map[string]any{"z": true, "y": []any{1.0}}}}},
		// Abstract values at the top level, in a list and in a map: the map
		// is the case where the sizing pass and the append pass must meet
		// the codec's output in the same (key-sorted) order.
		{"abstract", []any{grade{Letter: "A", Plus: true}, "ctx", []any{grade{Letter: "C"}},
			map[string]any{"k2": grade{Letter: "B"}, "k1": grade{Letter: "D", Plus: true}}}},
		{"args32", []any{long[:32]}},
		{"mixed", []any{nil, true, int64(-5), 3.25, "str", []byte{9}, []any{int64(1), "two"},
			map[string]any{"k": int64(7)}, Ref{Kind: "port", Name: "p"}}},
	}
}

func goldenRegistry() *Registry {
	r := NewRegistry()
	r.Register(grade{}, gradeCodec{})
	return r
}

func TestMarshalGoldenBytes(t *testing.T) {
	r := goldenRegistry()
	for _, c := range goldenCases() {
		got, err := r.Marshal(c.vals...)
		if err != nil {
			t.Errorf("%s: Marshal: %v", c.name, err)
			continue
		}
		want, ok := goldenHex[c.name]
		if !ok {
			t.Errorf("%s: no golden bytes", c.name)
			continue
		}
		if hex.EncodeToString(got) != want {
			t.Errorf("%s: encoding changed\n got %x\nwant %s", c.name, got, want)
		}
		if cap(got) != len(got) {
			t.Errorf("%s: Marshal allocated %d bytes for a %d-byte encoding", c.name, cap(got), len(got))
		}
	}
}

// TestSizeMatchesMarshal: the sizing pass is exact, on the golden cases
// and on generated trees.
func TestSizeMatchesMarshal(t *testing.T) {
	r := goldenRegistry()
	check := func(vals []any) bool {
		e := encoder{reg: r, sizing: true}
		if err := e.values(vals); err != nil {
			return false
		}
		enc, err := r.Marshal(vals...)
		return err == nil && e.n == len(enc)
	}
	for _, c := range goldenCases() {
		if !check(c.vals) {
			t.Errorf("%s: sized wrong", c.name)
		}
	}
	f := func(i int64, u uint32, fl float64, s string, b []byte, flag bool, letter string) bool {
		return check([]any{i, u, fl, s, b, flag, nil, []any{s, i, []any{b}},
			map[string]any{s: i, "g": grade{Letter: letter, Plus: flag}},
			Ref{Kind: "port", Name: s}, grade{Letter: letter}})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestUnmarshalIntoViews: byte strings alias the input at every depth,
// everything else equals the copying decode, and CloneValues cuts the
// aliasing.
func TestUnmarshalIntoViews(t *testing.T) {
	enc, err := Marshal([]byte("top"), "s", []any{[]byte("nested")}, map[string]any{"k": []byte("inmap")})
	if err != nil {
		t.Fatal(err)
	}
	scratch := make([]any, 0, 8)
	views, err := UnmarshalInto(scratch, enc)
	if err != nil {
		t.Fatal(err)
	}
	if &views[0] != &scratch[:1][0] {
		t.Error("UnmarshalInto did not decode into the caller's slice")
	}
	owned, err := Unmarshal(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(views, owned) {
		t.Fatalf("views %v != copies %v", views, owned)
	}
	clone := CloneValues(views)
	for i := range enc {
		enc[i] ^= 0xff // scribble over the datagram
	}
	if reflect.DeepEqual(views, owned) {
		t.Error("views did not alias the input")
	}
	if !reflect.DeepEqual(clone, owned) {
		t.Errorf("CloneValues still aliased the input: %v", clone)
	}

	// UnmarshalAppend fills the caller's slice too, with copies.
	enc = mustMarshal(t, []byte("own"))
	appended, err := UnmarshalAppend(scratch[:0], enc)
	if err != nil {
		t.Fatal(err)
	}
	enc[len(enc)-1] = 'X'
	if &appended[0] != &scratch[:1][0] || string(appended[0].([]byte)) != "own" {
		t.Errorf("UnmarshalAppend = %q, want an owned copy in the caller's slice", appended)
	}
}

func mustMarshal(t *testing.T, vals ...any) []byte {
	t.Helper()
	b, err := Marshal(vals...)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestAllocsMarshalOne pins Marshal of a single argument at exactly the
// one allocation of its result, whatever the argument's length.
func TestAllocsMarshalOne(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector changes allocation counts")
	}
	for _, c := range []struct {
		name string
		val  any
	}{
		{"bytes32", make([]byte, 32)},
		{"bytes16k", make([]byte, 16<<10)},
		{"int64", int64(1) << 40},
		{"string", "a string argument of some length"},
	} {
		got := testing.AllocsPerRun(100, func() {
			if _, err := Marshal(c.val); err != nil {
				t.Fatal(err)
			}
		})
		if got != 1 {
			t.Errorf("Marshal(%s) = %.0f allocs, want 1", c.name, got)
		}
	}
}

// TestSizedAppendGolden pins Size and AppendTo to Marshal's bytes on
// every golden case: Len is the encoding's length, and AppendTo writes
// the encoding after whatever the buffer holds, in place when the buffer
// has Len bytes of spare capacity — the stream layer's arena carve and
// its framed bulk buffer are both such buffers.
func TestSizedAppendGolden(t *testing.T) {
	r := goldenRegistry()
	const head = 24
	for _, c := range goldenCases() {
		want, err := r.Marshal(c.vals...)
		if err != nil {
			t.Fatalf("%s: Marshal: %v", c.name, err)
		}
		sz, err := r.Size(c.vals...)
		if err != nil {
			t.Fatalf("%s: Size: %v", c.name, err)
		}
		if sz.Len() != len(want) {
			t.Fatalf("%s: Len %d, Marshal wrote %d bytes", c.name, sz.Len(), len(want))
		}
		buf := make([]byte, head, head+sz.Len())
		got := sz.AppendTo(buf, c.vals...)
		if !bytes.Equal(got[head:], want) {
			t.Errorf("%s: AppendTo wrote %x, want Marshal's %x", c.name, got[head:], want)
		}
		if &got[0] != &buf[0] || cap(got) != cap(buf) {
			t.Errorf("%s: AppendTo moved a buffer with room for the encoding", c.name)
		}
	}
}

// TestAllocsSizedAppendTo: sizing and writing into a buffer the caller
// brings allocate nothing, whatever the list's length.
func TestAllocsSizedAppendTo(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector changes allocation counts")
	}
	for _, n := range []int{32, 16 << 10} {
		var arg any = make([]byte, n) // boxed once, outside the count
		buf := make([]byte, 0, n+8)
		got := testing.AllocsPerRun(100, func() {
			sz, err := Size(arg)
			if err != nil {
				t.Fatal(err)
			}
			_ = sz.AppendTo(buf, arg)
		})
		if got != 0 {
			t.Errorf("Size and AppendTo of %d bytes = %.0f allocs, want 0", n, got)
		}
	}
}
