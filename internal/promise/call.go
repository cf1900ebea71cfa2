package promise

import (
	"context"

	"promises/internal/exception"
	"promises/internal/stream"
	"promises/internal/trace"
	"promises/internal/wire"
)

// Unit is the result type of handlers that return nothing. A stream call
// to such a handler is made as a send: "whenever a stream call is made to
// a handler with no normal results, the Argus implementation makes the
// call as a send."
type Unit = struct{}

// Decoder turns the wire-decoded result values of a normal reply into a
// T. It is the typed counterpart of a promise type's results part.
type Decoder[T any] func(vals []any) (T, error)

// Call makes a stream call to the named port, returning a typed promise
// for the reply. Per §3 of the paper:
//
//  1. The arguments are encoded; if encoding fails, or the stream is
//     already broken, the call fails immediately (failure or unavailable)
//     and NO promise is created.
//  2. Otherwise a blocked promise is returned and the caller continues.
//  3. The promise becomes ready — in strict call order — when the reply
//     arrives and is decoded; a decode failure yields failure("could not
//     decode").
//  4. If the stream breaks first, the promise becomes ready with the
//     break's exception (unavailable or failure).
func Call[T any](s *stream.Stream, port string, dec Decoder[T], args ...any) (*Promise[T], error) {
	return CallCause(s, port, trace.Cause{}, dec, args...)
}

// CallCause is Call carrying an upstream causal context: cause's root
// and parent trace IDs travel with the request, joining the call into
// the cross-guardian chain of whatever caused it. A guardian handler
// composing downstream calls passes its call's ChildCause; the zero
// Cause makes this identical to Call.
func CallCause[T any](s *stream.Stream, port string, cause trace.Cause, dec Decoder[T], args ...any) (*Promise[T], error) {
	payload, err := s.Marshal(args...)
	if err != nil {
		return nil, exception.Failure("could not encode")
	}
	pending, err := s.Issue(context.Background(), stream.Req{Port: port, Args: payload, Cause: cause})
	if err != nil {
		return nil, err
	}
	return &Promise[T]{pend: pending, dec: dec}, nil
}

// Send makes a send to the named port: the caller hears back only if the
// call terminates abnormally, and the normal reply is omitted from the
// wire. The returned promise resolves with Unit on success. As with Call,
// an encoding failure or broken stream fails immediately with no promise.
func Send(s *stream.Stream, port string, args ...any) (*Promise[Unit], error) {
	return SendCause(s, port, trace.Cause{}, args...)
}

// SendCause is Send carrying an upstream causal context, like CallCause.
func SendCause(s *stream.Stream, port string, cause trace.Cause, args ...any) (*Promise[Unit], error) {
	payload, err := s.Marshal(args...)
	if err != nil {
		return nil, exception.Failure("could not encode")
	}
	pending, err := s.Issue(context.Background(), stream.Req{Mode: stream.ModeSend, Port: port, Args: payload, Cause: cause})
	if err != nil {
		return nil, err
	}
	return &Promise[Unit]{pend: pending, dec: None}, nil
}

// RPC makes an ordinary remote procedure call on the stream: the request
// is transmitted immediately and the caller waits for the reply, which is
// decoded and returned directly — no promise is involved. An RPC is also a
// synch boundary on the stream.
func RPC[T any](ctx context.Context, s *stream.Stream, port string, dec Decoder[T], args ...any) (T, error) {
	return RPCCause(ctx, s, port, trace.Cause{}, dec, args...)
}

// RPCCause is RPC carrying an upstream causal context, like CallCause.
func RPCCause[T any](ctx context.Context, s *stream.Stream, port string, cause trace.Cause, dec Decoder[T], args ...any) (T, error) {
	var zero T
	payload, err := s.Marshal(args...)
	if err != nil {
		return zero, exception.Failure("could not encode")
	}
	pending, err := s.Issue(ctx, stream.Req{Mode: stream.ModeRPC, Port: port, Args: payload, Cause: cause})
	if err != nil {
		return zero, err
	}
	outcome, err := pending.Wait(ctx)
	if err != nil {
		return zero, err
	}
	pending.Release() // the handle never escapes; recycle its cell
	return decodeOutcome(outcome, dec, nil)
}

// decodeOutcome turns a transport outcome into a typed result: normal
// outcomes decode through dec (a mismatch is failure("could not decode")),
// exceptional outcomes become the exception. The result values are
// appended to scratch and are owned copies: nothing handed to dec aliases
// the reply datagram.
func decodeOutcome[T any](o stream.Outcome, dec Decoder[T], scratch []any) (T, error) {
	var zero T
	if !o.Normal {
		return zero, o.Err()
	}
	var vals []any
	if len(o.Payload) > 0 { // sends omit the normal reply: no result values
		var err error
		if vals, err = wire.UnmarshalAppend(scratch, o.Payload); err != nil {
			return zero, exception.Failure("could not decode")
		}
	}
	v, err := dec(vals)
	if err != nil {
		return zero, exception.Failure("could not decode")
	}
	return v, nil
}

// None decodes an empty result list into Unit.
func None(vals []any) (Unit, error) {
	return Unit{}, nil
}

// Int decodes a single integer result.
func Int(vals []any) (int64, error) { return wire.IntArg(vals, 0) }

// Float decodes a single floating-point result.
func Float(vals []any) (float64, error) { return wire.FloatArg(vals, 0) }

// String decodes a single string result.
func String(vals []any) (string, error) { return wire.StringArg(vals, 0) }

// Bool decodes a single boolean result.
func Bool(vals []any) (bool, error) {
	v, err := wire.Arg(vals, 0)
	if err != nil {
		return false, err
	}
	return wire.AsBool(v)
}

// Bytes decodes a single byte-string result.
func Bytes(vals []any) ([]byte, error) {
	v, err := wire.Arg(vals, 0)
	if err != nil {
		return nil, err
	}
	return wire.AsBytes(v)
}

// List decodes a single list result, applying elem to each element.
func List[T any](elem func(any) (T, error)) Decoder[[]T] {
	return func(vals []any) ([]T, error) {
		raw, err := wire.Arg(vals, 0)
		if err != nil {
			return nil, err
		}
		list, err := wire.AsList(raw)
		if err != nil {
			return nil, err
		}
		out := make([]T, len(list))
		for i, e := range list {
			if out[i], err = elem(e); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
}

// Pair decodes a two-value result.
func Pair[A, B any](first func(any) (A, error), second func(any) (B, error)) Decoder[struct {
	First  A
	Second B
}] {
	type pair = struct {
		First  A
		Second B
	}
	return func(vals []any) (pair, error) {
		var p pair
		a, err := wire.Arg(vals, 0)
		if err != nil {
			return p, err
		}
		if p.First, err = first(a); err != nil {
			return p, err
		}
		b, err := wire.Arg(vals, 1)
		if err != nil {
			return p, err
		}
		if p.Second, err = second(b); err != nil {
			return p, err
		}
		return p, nil
	}
}
