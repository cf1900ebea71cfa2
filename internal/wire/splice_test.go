package wire

import (
	"bytes"
	"testing"
)

// TestSpliceArgsSharesWhenNothingToAdd: a splice that adds no values
// returns a itself — the pipelined hop forwards a stage's result without
// copying it — while a splice that adds values builds a fresh buffer and
// leaves both inputs untouched.
func TestSpliceArgsSharesWhenNothingToAdd(t *testing.T) {
	a, err := Marshal(int64(41), "x")
	if err != nil {
		t.Fatal(err)
	}
	zero := AppendHeader(nil, 0)
	for name, b := range map[string][]byte{"nil": nil, "empty list": zero} {
		got, err := SpliceArgs(a, b)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(got) != len(a) || &got[0] != &a[0] {
			t.Errorf("%s: SpliceArgs(a, %x) built a new buffer, want a itself", name, b)
		}
	}

	aCopy := append([]byte(nil), a...)
	b, err := Marshal(int64(1))
	if err != nil {
		t.Fatal(err)
	}
	got, err := SpliceArgs(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Marshal(int64(41), "x", int64(1))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("SpliceArgs(a, b) = %x, want %x", got, want)
	}
	if &got[0] == &a[0] || &got[0] == &b[0] {
		t.Errorf("a splice that adds values shares an input's buffer")
	}
	if !bytes.Equal(a, aCopy) {
		t.Errorf("SpliceArgs wrote into a: %x, was %x", a, aCopy)
	}

	// Zero values on both sides is still one encoded header, as before.
	if got, err := SpliceArgs(nil, nil); err != nil || !bytes.Equal(got, zero) {
		t.Errorf("SpliceArgs(nil, nil) = %x, %v; want %x", got, err, zero)
	}
	if _, err := SpliceArgs([]byte{0xff}, nil); err == nil {
		t.Errorf("a malformed a spliced without error")
	}
}
