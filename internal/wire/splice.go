package wire

// SpliceArgs concatenates two encoded argument lists into one list whose
// values are a's followed by b's. The bodies are joined byte-for-byte —
// no value is re-encoded — so splicing costs one header rewrite plus two
// copies. Either input may be empty, meaning zero arguments.
//
// When b adds nothing (it is empty, or a list of zero values) and a is not
// empty, the result is a itself, not a copy: the caller then shares a's
// bytes with whoever else holds them, so it must not write into either.
// Any other splice returns a fresh buffer.
//
// This is how promise pipelining builds a continuation stage's arguments:
// the previous stage's encoded result is spliced ahead of the extra
// arguments the caller froze into the continuation blob.
func SpliceArgs(a, b []byte) ([]byte, error) {
	na, abody, err := splitArgs(a)
	if err != nil {
		return nil, err
	}
	nb, bbody, err := splitArgs(b)
	if err != nil {
		return nil, err
	}
	if nb == 0 && len(bbody) == 0 && len(a) > 0 {
		return a, nil
	}
	out := make([]byte, 0, maxHeaderLen+len(abody)+len(bbody))
	out = AppendHeader(out, na+nb)
	out = append(out, abody...)
	out = append(out, bbody...)
	return out, nil
}

// maxHeaderLen bounds an encoded header (uvarint count) for splice
// preallocation.
const maxHeaderLen = 10

// splitArgs parses an encoded argument list's header and returns the
// value count plus the body bytes after the header.
func splitArgs(enc []byte) (int, []byte, error) {
	if len(enc) == 0 {
		return 0, nil, nil
	}
	d := NewDecoder(enc)
	n, err := d.Header()
	if err != nil {
		return 0, nil, err
	}
	return n, enc[len(enc)-d.Remaining():], nil
}
