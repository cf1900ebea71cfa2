package promise

import (
	"context"

	"promises/internal/exception"
	"promises/internal/stream"
	"promises/internal/trace"
)

// Graph is a pipelined multi-stage call under construction: a root call
// plus a chain of continuation hops, each hop consuming the previous
// stage's results. Started, the whole chain travels with the root
// request; each stage executes at its own guardian and forwards its
// result directly to the next stage's guardian, so the caller pays one
// round trip for the chain instead of one per stage (the paper's
// "promises let the caller issue dependent calls without waiting", taken
// to its conclusion: the unresolved result travels as the next call's
// argument). A graph has that one meaning: a stage that cannot take part
// fails the chain, and the failure is the promise's outcome.
//
// Arguments are encoded, into the stream's marshal arena, when Pipeline,
// Then or ThenHop takes them; a failure fails Start. Nothing points into a
// graph, so with up to inlineHops stages it stays in its builder's frame.
type Graph struct {
	s      *stream.Stream
	port   string
	args   stream.Marshalled
	err    error // an encoding failure
	cause  trace.Cause
	n      int // stages added
	inline [inlineHops]stream.PipeStage
	spill  []stream.PipeStage // the stages past inlineHops
}

// inlineHops is how many hops a Graph holds inline: a four-stage chain's.
const inlineHops = 4

// Hop names one continuation stage: the guardian (node, port group) that
// runs it, the port to invoke, and extra arguments appended after the
// previous stage's results.
type Hop struct {
	Node  string
	Group string
	Port  string
	Extra []any
}

// Pipeline begins a graph rooted at a call to port on s, encoding args now.
func Pipeline(s *stream.Stream, port string, args ...any) *Graph {
	g := &Graph{s: s, port: port}
	g.args = g.marshal(args)
	return g
}

// marshal encodes vals on g's stream, keeping a failure for Start. It is
// not inlined, so Pipeline is, and the Graph lands in its caller's frame.
func (g *Graph) marshal(vals []any) stream.Marshalled {
	m, err := g.s.Marshal(vals...)
	if err != nil {
		g.err = err
	}
	return m
}

// Then appends a continuation stage: once the previous stage's result
// exists, call port at node/group with that result (plus extra arguments,
// appended after it). Returns g for chaining.
func (g *Graph) Then(node, group, port string, extra ...any) *Graph {
	return g.ThenHop(Hop{Node: node, Group: group, Port: port, Extra: extra})
}

// ThenHop is Then taking a prebuilt Hop (e.g. guardian.Ref.Hop).
func (g *Graph) ThenHop(h Hop) *Graph {
	st := stream.PipeStage{Node: h.Node, Group: h.Group, Port: h.Port}
	if len(h.Extra) > 0 {
		st.Extra = g.marshal(h.Extra).Bytes()
	}
	if g.n < inlineHops {
		g.inline[g.n] = st
	} else {
		g.spill = append(g.spill, st)
	}
	g.n++
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
	if g.err != nil {
		return nil, exception.Failure("could not encode")
	}
	stages := append(g.inline[:min(g.n, inlineHops)], g.spill...)
	pending, err := g.s.Issue(context.Background(),
		stream.Req{Port: g.port, Args: g.args, Cause: g.cause}, stages...)
	if err != nil {
		return nil, err
	}
	return &Promise[T]{pend: pending, dec: dec}, nil
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
