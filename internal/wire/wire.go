// Package wire implements the external representation used to transmit
// call arguments and results between entities, following the value
// transmission model of Argus (Herlihy & Liskov): when a call is made each
// argument is encoded from the sender's representation into a neutral
// external form, and decoded at the receiver. Results travel the same way
// in reverse.
//
// Built-in types (booleans, integers, floats, strings, byte strings, lists,
// string-keyed maps, and references such as ports) have fixed encodings.
// Objects of abstract types are encoded and decoded by user-provided
// codecs, which may fail — exactly the failure source the paper calls out:
// "Either encoding or decoding may fail. ... Such a failure causes the call
// to terminate with the failure exception."
//
// The encoding is self-describing: each value is a one-byte tag followed by
// tag-specific data. Integers use zig-zag varints. The format is
// deterministic, so encoded forms can be compared byte-wise in tests.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"sort"
	"sync"
)

// Value tags. The tag byte precedes every encoded value.
const (
	tagNil      = 0x00
	tagFalse    = 0x01
	tagTrue     = 0x02
	tagInt      = 0x03 // zig-zag varint
	tagFloat    = 0x04 // IEEE-754 big-endian 8 bytes
	tagString   = 0x05 // varint length + bytes
	tagBytes    = 0x06 // varint length + bytes
	tagList     = 0x07 // varint count + values
	tagMap      = 0x08 // varint count + (string key, value) pairs, key-sorted
	tagAbstract = 0x09 // type name (string) + varint length + codec bytes
	tagRef      = 0x0a // kind (string) + name (string)
)

// ErrTruncated is returned when a decode runs off the end of its input.
var ErrTruncated = errors.New("wire: truncated value")

// EncodeError wraps any failure that occurred while producing the external
// representation of a value. Callers map it to failure("could not encode").
type EncodeError struct{ Err error }

func (e *EncodeError) Error() string { return "wire: encode: " + e.Err.Error() }
func (e *EncodeError) Unwrap() error { return e.Err }

// DecodeError wraps any failure that occurred while reading the external
// representation. Callers map it to failure("could not decode").
type DecodeError struct{ Err error }

func (e *DecodeError) Error() string { return "wire: decode: " + e.Err.Error() }
func (e *DecodeError) Unwrap() error { return e.Err }

// Ref is a transmissible reference to a named entity resource. Ports are
// the motivating case: "Ports may be sent as arguments and results of
// remote calls." Kind distinguishes reference spaces (e.g. "port").
type Ref struct {
	Kind string
	Name string
}

func (r Ref) String() string { return r.Kind + ":" + r.Name }

// Codec encodes and decodes objects of one abstract type. Encode and
// Decode run user code and may fail; failures surface as EncodeError or
// DecodeError from Marshal/Unmarshal.
type Codec interface {
	// TypeName is the globally unique external name of the abstract type.
	TypeName() string
	// Encode produces the external bytes for v.
	Encode(v any) ([]byte, error)
	// Decode reconstructs a value from external bytes.
	Decode(b []byte) (any, error)
}

// Registry maps abstract types to their codecs, by external name (for
// decoding) and by Go dynamic type (for encoding).
type Registry struct {
	mu     sync.RWMutex
	byName map[string]Codec
	byType map[reflect.Type]Codec
}

// NewRegistry creates an empty codec registry.
func NewRegistry() *Registry {
	return &Registry{
		byName: make(map[string]Codec),
		byType: make(map[reflect.Type]Codec),
	}
}

// Register associates codec with the dynamic type of sample. Values whose
// dynamic type equals sample's will be encoded with this codec, and
// external values carrying the codec's type name will be decoded with it.
// Registering a second codec for the same name or type replaces the first.
func (r *Registry) Register(sample any, codec Codec) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.byName[codec.TypeName()] = codec
	r.byType[reflect.TypeOf(sample)] = codec
}

func (r *Registry) codecFor(v any) (Codec, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	c, ok := r.byType[reflect.TypeOf(v)]
	return c, ok
}

func (r *Registry) codecNamed(name string) (Codec, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	c, ok := r.byName[name]
	return c, ok
}

// defaultRegistry serves Marshal/Unmarshal calls that do not carry their
// own registry.
var defaultRegistry = NewRegistry()

// Register adds a codec to the process-wide default registry.
func Register(sample any, codec Codec) { defaultRegistry.Register(sample, codec) }

// Marshal encodes a sequence of values (an argument or result list) into
// one byte string using the default codec registry.
func Marshal(vals ...any) ([]byte, error) { return defaultRegistry.Marshal(vals...) }

// MarshalRoom is Registry.MarshalRoom on the default registry.
func MarshalRoom(min, head, tail int, vals ...any) (buf []byte, off int, err error) {
	return defaultRegistry.MarshalRoom(min, head, tail, vals...)
}

// Unmarshal decodes a byte string produced by Marshal using the default
// codec registry.
func Unmarshal(data []byte) ([]any, error) { return defaultRegistry.Unmarshal(data) }

// UnmarshalAppend is Registry.UnmarshalAppend on the default registry.
func UnmarshalAppend(dst []any, data []byte) ([]any, error) {
	return defaultRegistry.UnmarshalAppend(dst, data)
}

// UnmarshalInto is Registry.UnmarshalInto on the default registry.
func UnmarshalInto(dst []any, data []byte) ([]any, error) {
	return defaultRegistry.UnmarshalInto(dst, data)
}

// Marshal encodes a sequence of values into one byte string. The encoding
// is sized first, so the result is allocated exactly once whatever the
// arguments' lengths.
func (r *Registry) Marshal(vals ...any) ([]byte, error) {
	buf, _, err := r.MarshalRoom(0, 0, 0, vals...)
	return buf, err
}

// MarshalRoom is Marshal for a caller that will build a message around
// the encoding without copying it. An encoding of at least min bytes (and
// only such a one) is placed in a buffer with room around it: it starts
// off == head bytes into buf, and buf has at least tail bytes of spare
// capacity past its end. A shorter encoding comes back exactly as Marshal
// returns it, with off == 0. Either way buf[off:] is Marshal's output and
// the buffer is the call's only allocation.
func (r *Registry) MarshalRoom(min, head, tail int, vals ...any) (buf []byte, off int, err error) {
	e := encoder{reg: r, sizing: true}
	if err := e.values(vals); err != nil {
		return nil, 0, err
	}
	if e.n < min {
		head, tail = 0, 0
	}
	e.sizing, e.buf = false, make([]byte, head, head+e.n+tail)
	_ = e.values(vals) // everything that can fail did, in the sizing pass
	return e.buf, head, nil
}

// Unmarshal decodes a byte string produced by Marshal. The values are
// owned by the caller: nothing in them aliases data.
func (r *Registry) Unmarshal(data []byte) ([]any, error) {
	return r.decode(nil, data, false)
}

// UnmarshalAppend is Unmarshal appending the values to dst, for callers
// that bring their own slice. The values are owned copies, like
// Unmarshal's.
func (r *Registry) UnmarshalAppend(dst []any, data []byte) ([]any, error) {
	return r.decode(dst, data, false)
}

// UnmarshalInto decodes data as views: it appends the values to dst, and
// every []byte among them (at any depth) aliases data instead of being
// copied. The values are valid for as long as data is — a receiver
// decoding a datagram into per-call scratch is the motivating user —
// and CloneValues makes a decoded list outlive the buffer. Strings are
// immutable and are always copied.
func (r *Registry) UnmarshalInto(dst []any, data []byte) ([]any, error) {
	return r.decode(dst, data, true)
}

func (r *Registry) decode(dst []any, data []byte, views bool) ([]any, error) {
	n, rest, err := readUvarint(data)
	if err != nil {
		return nil, &DecodeError{Err: err}
	}
	if n > uint64(len(rest))+1 {
		return nil, &DecodeError{Err: fmt.Errorf("value count %d exceeds input", n)}
	}
	if dst == nil {
		dst = make([]any, 0, n)
	}
	for i := uint64(0); i < n; i++ {
		var v any
		v, rest, err = r.readValue(rest, views)
		if err != nil {
			return nil, err
		}
		dst = append(dst, v)
	}
	if len(rest) != 0 {
		return nil, &DecodeError{Err: fmt.Errorf("%d trailing bytes", len(rest))}
	}
	return dst, nil
}

// CloneValues returns a deep copy of a decoded value list in which no
// []byte aliases the buffer it was decoded from — what a holder of
// UnmarshalInto's views calls to keep them.
func CloneValues(vals []any) []any {
	if vals == nil {
		return nil
	}
	out := make([]any, len(vals))
	for i, v := range vals {
		out[i] = cloneValue(v)
	}
	return out
}

func cloneValue(v any) any {
	switch x := v.(type) {
	case []byte:
		out := make([]byte, len(x))
		copy(out, x)
		return out
	case []any:
		return CloneValues(x)
	case map[string]any:
		out := make(map[string]any, len(x))
		for k, e := range x {
			out[k] = cloneValue(e)
		}
		return out
	default:
		return v
	}
}

// encoder walks the values of one Marshal twice with the same code: a
// sizing pass that only counts the bytes, then the pass that appends them
// to a buffer of exactly that size. The sizing pass runs every step that
// can fail — range checks, codec lookups, the codecs' own Encode — and
// parks each abstract value's encoded body; the second pass meets the
// values in the same order (depth first, maps by sorted key) and takes
// the bodies back instead of encoding again.
type encoder struct {
	reg    *Registry
	sizing bool
	n      int    // sizing pass: bytes counted so far
	buf    []byte // append pass: the output
	bodies []abstractBody
	next   int // append pass: the next parked body
}

type abstractBody struct {
	name string
	body []byte
}

func (e *encoder) putByte(b byte) {
	if e.sizing {
		e.n++
	} else {
		e.buf = append(e.buf, b)
	}
}

func (e *encoder) putUvarint(v uint64) {
	if e.sizing {
		e.n += uvarintLen(v)
	} else {
		e.buf = appendUvarint(e.buf, v)
	}
}

// putBlob writes a length-prefixed run of bytes.
func putBlob[S string | []byte](e *encoder, s S) {
	e.putUvarint(uint64(len(s)))
	if e.sizing {
		e.n += len(s)
	} else {
		e.buf = append(e.buf, s...)
	}
}

func (e *encoder) putInt(v int64) {
	e.putByte(tagInt)
	e.putUvarint(zigzag(v))
}

func (e *encoder) putFloat(v float64) {
	if e.sizing {
		e.n += 9
	} else {
		e.buf = appendFloat(e.buf, v)
	}
}

// values writes a count-prefixed value sequence: a whole message, or the
// inside of a list.
func (e *encoder) values(vals []any) error {
	e.putUvarint(uint64(len(vals)))
	for _, v := range vals {
		if err := e.value(v); err != nil {
			return err
		}
	}
	return nil
}

func (e *encoder) value(v any) error {
	switch x := v.(type) {
	case nil:
		e.putByte(tagNil)
	case bool:
		if x {
			e.putByte(tagTrue)
		} else {
			e.putByte(tagFalse)
		}
	case int:
		e.putInt(int64(x))
	case int8:
		e.putInt(int64(x))
	case int16:
		e.putInt(int64(x))
	case int32:
		e.putInt(int64(x))
	case int64:
		e.putInt(x)
	case uint8:
		e.putInt(int64(x))
	case uint16:
		e.putInt(int64(x))
	case uint32:
		e.putInt(int64(x))
	case uint64:
		if x > math.MaxInt64 {
			return &EncodeError{Err: fmt.Errorf("uint64 %d overflows the integer encoding", x)}
		}
		e.putInt(int64(x))
	case uint:
		if uint64(x) > math.MaxInt64 {
			return &EncodeError{Err: fmt.Errorf("uint %d overflows the integer encoding", x)}
		}
		e.putInt(int64(x))
	case float32:
		e.putFloat(float64(x))
	case float64:
		e.putFloat(x)
	case string:
		e.putByte(tagString)
		putBlob(e, x)
	case []byte:
		e.putByte(tagBytes)
		putBlob(e, x)
	case Ref:
		e.putByte(tagRef)
		putBlob(e, x.Kind)
		putBlob(e, x.Name)
	case []any:
		e.putByte(tagList)
		return e.values(x)
	case map[string]any:
		e.putByte(tagMap)
		e.putUvarint(uint64(len(x)))
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			putBlob(e, k)
			if err := e.value(x[k]); err != nil {
				return err
			}
		}
	default:
		var b abstractBody
		if e.sizing {
			codec, ok := e.reg.codecFor(v)
			if !ok {
				return &EncodeError{Err: fmt.Errorf("no codec for type %T", v)}
			}
			body, err := codec.Encode(v)
			if err != nil {
				return &EncodeError{Err: fmt.Errorf("codec %q: %w", codec.TypeName(), err)}
			}
			b = abstractBody{name: codec.TypeName(), body: body}
			e.bodies = append(e.bodies, b)
		} else {
			b = e.bodies[e.next]
			e.next++
		}
		e.putByte(tagAbstract)
		putBlob(e, b.name)
		putBlob(e, b.body)
	}
	return nil
}

// readValue decodes one value. With views set a byte string is returned
// as a slice of data; otherwise it is copied out.
func (r *Registry) readValue(data []byte, views bool) (any, []byte, error) {
	if len(data) == 0 {
		return nil, nil, &DecodeError{Err: ErrTruncated}
	}
	tag, rest := data[0], data[1:]
	switch tag {
	case tagNil:
		return nil, rest, nil
	case tagFalse:
		return false, rest, nil
	case tagTrue:
		return true, rest, nil
	case tagInt:
		u, rest, err := readUvarint(rest)
		if err != nil {
			return nil, nil, &DecodeError{Err: err}
		}
		return unzigzag(u), rest, nil
	case tagFloat:
		if len(rest) < 8 {
			return nil, nil, &DecodeError{Err: ErrTruncated}
		}
		bits := binary.BigEndian.Uint64(rest)
		return math.Float64frombits(bits), rest[8:], nil
	case tagString:
		b, rest, err := readBlob(rest)
		if err != nil {
			return nil, nil, &DecodeError{Err: err}
		}
		return string(b), rest, nil
	case tagBytes:
		b, rest, err := readBlob(rest)
		if err != nil {
			return nil, nil, &DecodeError{Err: err}
		}
		if views {
			return b, rest, nil
		}
		out := make([]byte, len(b))
		copy(out, b)
		return out, rest, nil
	case tagRef:
		kind, rest, err := readBlob(rest)
		if err != nil {
			return nil, nil, &DecodeError{Err: err}
		}
		name, rest, err := readBlob(rest)
		if err != nil {
			return nil, nil, &DecodeError{Err: err}
		}
		return Ref{Kind: string(kind), Name: string(name)}, rest, nil
	case tagList:
		n, rest, err := readUvarint(rest)
		if err != nil {
			return nil, nil, &DecodeError{Err: err}
		}
		if n > uint64(len(rest))+1 {
			return nil, nil, &DecodeError{Err: fmt.Errorf("list count %d exceeds input", n)}
		}
		list := make([]any, 0, n)
		for i := uint64(0); i < n; i++ {
			var e any
			e, rest, err = r.readValue(rest, views)
			if err != nil {
				return nil, nil, err
			}
			list = append(list, e)
		}
		return list, rest, nil
	case tagMap:
		n, rest, err := readUvarint(rest)
		if err != nil {
			return nil, nil, &DecodeError{Err: err}
		}
		if n > uint64(len(rest))+1 {
			return nil, nil, &DecodeError{Err: fmt.Errorf("map count %d exceeds input", n)}
		}
		m := make(map[string]any, n)
		for i := uint64(0); i < n; i++ {
			var k []byte
			k, rest, err = readBlob(rest)
			if err != nil {
				return nil, nil, &DecodeError{Err: err}
			}
			var v any
			v, rest, err = r.readValue(rest, views)
			if err != nil {
				return nil, nil, err
			}
			m[string(k)] = v
		}
		return m, rest, nil
	case tagAbstract:
		nameB, rest, err := readBlob(rest)
		if err != nil {
			return nil, nil, &DecodeError{Err: err}
		}
		body, rest, err := readBlob(rest)
		if err != nil {
			return nil, nil, &DecodeError{Err: err}
		}
		codec, ok := r.codecNamed(string(nameB))
		if !ok {
			return nil, nil, &DecodeError{Err: fmt.Errorf("no codec for external type %q", nameB)}
		}
		v, err := codec.Decode(body)
		if err != nil {
			return nil, nil, &DecodeError{Err: fmt.Errorf("codec %q: %w", nameB, err)}
		}
		return v, rest, nil
	default:
		return nil, nil, &DecodeError{Err: fmt.Errorf("unknown tag 0x%02x", tag)}
	}
}

func appendInt(buf []byte, v int64) []byte {
	buf = append(buf, tagInt)
	return appendUvarint(buf, zigzag(v))
}

func appendFloat(buf []byte, v float64) []byte {
	buf = append(buf, tagFloat)
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], math.Float64bits(v))
	return append(buf, b[:]...)
}

func zigzag(v int64) uint64   { return uint64((v << 1) ^ (v >> 63)) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

func appendUvarint(buf []byte, v uint64) []byte {
	return binary.AppendUvarint(buf, v)
}

func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

func readUvarint(data []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(data)
	if n <= 0 {
		return 0, nil, ErrTruncated
	}
	return v, data[n:], nil
}

func readBlob(data []byte) ([]byte, []byte, error) {
	n, rest, err := readUvarint(data)
	if err != nil {
		return nil, nil, err
	}
	if n > uint64(len(rest)) {
		return nil, nil, ErrTruncated
	}
	return rest[:n], rest[n:], nil
}
