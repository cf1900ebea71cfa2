package promise

import (
	"context"

	"promises/internal/exception"
	"promises/internal/stream"
	"promises/internal/trace"
	"promises/internal/wire"
)

// Graph is a pipelined multi-stage call under construction: a root call
// plus a chain of continuation hops, each hop consuming the previous
// stage's results. Started, the whole chain travels with the root
// request; each stage executes at its own guardian and forwards its
// result directly to the next stage's guardian, so the caller pays one
// round trip for the chain instead of one per stage (the paper's
// "promises let the caller issue dependent calls without waiting", taken
// to its conclusion: the unresolved result travels as the next call's
// argument).
//
// Against a legacy endpoint that ignores continuation chains, the
// promise degrades gracefully: the root reply comes back unpiped with
// stage one's value, and the remaining hops are driven caller-mediated,
// one RPC per stage — same outcome, pre-pipelining cost.
type Graph struct {
	s     *stream.Stream
	port  string
	args  []any
	hops  []Hop
	cause trace.Cause
}

// Hop names one continuation stage: the guardian (node, port group) that
// runs it, the port to invoke, and extra arguments appended after the
// previous stage's results.
type Hop struct {
	Node  string
	Group string
	Port  string
	Extra []any
}

// Pipeline begins a pipelined call graph rooted at a call to port on s.
func Pipeline(s *stream.Stream, port string, args ...any) *Graph {
	return &Graph{s: s, port: port, args: args}
}

// Then appends a continuation stage: once the previous stage's result
// exists, call port at node/group with that result (plus extra arguments,
// appended after it). Returns g for chaining.
func (g *Graph) Then(node, group, port string, extra ...any) *Graph {
	g.hops = append(g.hops, Hop{Node: node, Group: group, Port: port, Extra: extra})
	return g
}

// ThenHop is Then taking a prebuilt Hop (e.g. guardian.Ref.Hop).
func (g *Graph) ThenHop(h Hop) *Graph {
	g.hops = append(g.hops, h)
	return g
}

// WithCause attaches an upstream causal context to the chain's root call;
// every stage's attribution descends from it. Returns g for chaining.
func (g *Graph) WithCause(c trace.Cause) *Graph {
	g.cause = c
	return g
}

// Start launches the graph and returns a typed promise for the final
// stage's result, decoded by dec. Like Call: an encoding failure or an
// already-broken stream fails immediately and no promise is created.
func Start[T any](g *Graph, dec Decoder[T]) (*Promise[T], error) {
	payload, err := stream.Marshal(g.args...)
	if err != nil {
		return nil, exception.Failure("could not encode")
	}
	stages := make([]stream.PipeStage, len(g.hops))
	for i, h := range g.hops {
		st := stream.PipeStage{Node: h.Node, Group: h.Group, Port: h.Port}
		if len(h.Extra) > 0 {
			if st.Extra, err = wire.Marshal(h.Extra...); err != nil {
				return nil, exception.Failure("could not encode")
			}
		}
		stages[i] = st
	}
	pending, err := g.s.CallMarshalled(context.Background(), g.port, payload, g.cause, stages)
	if err != nil {
		return nil, err
	}
	p := &Promise[T]{pend: pending, dec: dec}
	if len(stages) > 0 {
		p.tail = &pipeTail{s: g.s, stages: stages, cause: g.cause}
	}
	return p, nil
}

// pipeTail is what a pipelined promise keeps of its graph in case the
// chain comes back unfinished (see Promise.settle).
type pipeTail struct {
	s      *stream.Stream
	stages []stream.PipeStage
	cause  trace.Cause
}

// Run is Start followed by Claim: it launches the graph and blocks for
// the final result.
func Run[T any](ctx context.Context, g *Graph, dec Decoder[T]) (T, error) {
	p, err := Start(g, dec)
	if err != nil {
		var zero T
		return zero, err
	}
	return p.Claim(ctx)
}

// runFallback executes the remaining stages caller-mediated — one RPC per
// stage, splicing each result into the next stage's arguments — exactly
// what the chain would have done guardian-side. Stage streams are
// siblings of the root stream (same agent), so ordering guarantees match
// the pipelined execution's per-stream ordering.
func runFallback(s *stream.Stream, o stream.Outcome, stages []stream.PipeStage, cause trace.Cause) stream.Outcome {
	payload := o.Payload
	for _, st := range stages {
		args, err := wire.SpliceArgs(payload, st.Extra)
		if err != nil {
			return stream.ExceptionOutcome(exception.Failure("could not encode"))
		}
		next, err := s.Sibling(st.Node, st.Group).RPCCause(context.Background(), st.Port, args, cause)
		if err != nil {
			if ex, ok := exception.As(err); ok {
				return stream.ExceptionOutcome(ex)
			}
			return stream.ExceptionOutcome(exception.Failure(err.Error()))
		}
		if !next.Normal {
			return next
		}
		payload = next.Payload
	}
	out := stream.NormalOutcome(payload)
	out.Piped = true // chain complete, by whichever path
	return out
}
