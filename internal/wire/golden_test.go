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

// TestMarshalRoomGolden pins MarshalRoom to Marshal's bytes on every
// golden case, on both sides of the size threshold: from min up the
// encoding sits head bytes into a buffer with at least tail bytes of spare
// capacity behind it, below min the result is Marshal's own.
func TestMarshalRoomGolden(t *testing.T) {
	r := goldenRegistry()
	const head, tail = 24, 17
	for _, c := range goldenCases() {
		want, err := r.Marshal(c.vals...)
		if err != nil {
			t.Fatalf("%s: Marshal: %v", c.name, err)
		}
		for _, min := range []int{0, len(want), len(want) + 1} {
			buf, off, err := r.MarshalRoom(min, head, tail, c.vals...)
			if err != nil {
				t.Fatalf("%s: MarshalRoom(min %d): %v", c.name, min, err)
			}
			if !bytes.Equal(buf[off:], want) {
				t.Errorf("%s, min %d: buf[off:] = %x, want Marshal's %x", c.name, min, buf[off:], want)
			}
			if roomy := len(want) >= min; roomy && (off != head || cap(buf)-len(buf) < tail) {
				t.Errorf("%s, min %d: off %d, spare capacity %d; want %d and >= %d",
					c.name, min, off, cap(buf)-len(buf), head, tail)
			} else if !roomy && (off != 0 || cap(buf) != len(buf)) {
				t.Errorf("%s, min %d: a short encoding got room (off %d, cap %d, len %d)",
					c.name, min, off, cap(buf), len(buf))
			}
		}
	}
}

// TestAllocsMarshalRoom: room or no room, the buffer is the only
// allocation.
func TestAllocsMarshalRoom(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector changes allocation counts")
	}
	var arg any = make([]byte, 16<<10) // boxed once, outside the count
	for _, min := range []int{4 << 10, 64 << 10} {
		got := testing.AllocsPerRun(100, func() {
			if _, _, err := MarshalRoom(min, 128, 40, arg); err != nil {
				t.Fatal(err)
			}
		})
		if got != 1 {
			t.Errorf("MarshalRoom(min %d) of 16 KiB = %.0f allocs, want 1", min, got)
		}
	}
}
