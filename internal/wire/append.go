package wire

// Append-style encoding primitives for built-in values. They produce
// exactly the bytes Marshal produces (TestAppendMatchesMarshal pins
// this), but let hot paths build a message into a caller-owned buffer
// with no []any boxing and no intermediate allocations. The stream
// layer's batch encoders are the motivating user.
//
// A message is: AppendHeader with the number of top-level values,
// followed by that many appended values. Lists likewise: AppendList with
// the element count, followed by that many values.

// SizeInt, SizeBlob and SizeCount tell how many bytes the primitives
// below will append, so a caller can allocate a message's buffer once, at
// its exact size: SizeInt(v) for AppendInt, SizeBlob(n) for AppendString
// or AppendBytes of n bytes, SizeCount(n) for AppendList(n) — and for
// AppendHeader(n), which is one byte shorter (it has no tag).
func SizeInt(v int64) int { return 1 + uvarintLen(zigzag(v)) }
func SizeBlob(n int) int  { return 1 + uvarintLen(uint64(n)) + n }
func SizeCount(n int) int { return 1 + uvarintLen(uint64(n)) }

// AppendHeader appends the value-count prefix that starts every encoded
// message.
func AppendHeader(buf []byte, n int) []byte {
	return appendUvarint(buf, uint64(n))
}

// AppendNil appends a nil value.
func AppendNil(buf []byte) []byte { return append(buf, tagNil) }

// AppendBool appends a boolean value.
func AppendBool(buf []byte, v bool) []byte {
	if v {
		return append(buf, tagTrue)
	}
	return append(buf, tagFalse)
}

// AppendInt appends an integer value.
func AppendInt(buf []byte, v int64) []byte { return appendInt(buf, v) }

// AppendFloat appends a float value.
func AppendFloat(buf []byte, v float64) []byte { return appendFloat(buf, v) }

// AppendString appends a string value.
func AppendString(buf []byte, s string) []byte {
	buf = append(buf, tagString)
	buf = appendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// AppendBytes appends a byte-string value.
func AppendBytes(buf []byte, b []byte) []byte {
	return append(AppendBytesHeader(buf, len(b)), b...)
}

// AppendBytesHeader appends the start of a byte-string value of n bytes;
// the value is complete once the caller has put those n bytes after it.
// It is what lets a message be built around a payload that is already in
// place instead of copying the payload in.
func AppendBytesHeader(buf []byte, n int) []byte {
	buf = append(buf, tagBytes)
	return appendUvarint(buf, uint64(n))
}

// AppendRef appends a reference value.
func AppendRef(buf []byte, r Ref) []byte {
	buf = append(buf, tagRef)
	buf = appendUvarint(buf, uint64(len(r.Kind)))
	buf = append(buf, r.Kind...)
	buf = appendUvarint(buf, uint64(len(r.Name)))
	return append(buf, r.Name...)
}

// AppendList appends a list header for n elements; the caller appends
// the n element values next.
func AppendList(buf []byte, n int) []byte {
	buf = append(buf, tagList)
	return appendUvarint(buf, uint64(n))
}
