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
// argument). A graph has that one meaning: a stage that cannot take part
// fails the chain, and the failure is the promise's outcome.
//
// A graph keeps up to inlineHops hops, and the stages Start builds from
// them, in arrays of its own, and spills to the heap only past that. Its
// hop list points into the graph itself, so a Graph must not be copied by
// value: use the *Graph that Pipeline returns. Build and Start a graph on
// one goroutine; Start writes the stages into it.
type Graph struct {
	s     *stream.Stream
	port  string
	args  []any
	hops  []Hop // inline[:n] until the chain outgrows it
	cause trace.Cause

	inline       [inlineHops]Hop
	inlineStages [inlineHops]stream.PipeStage
}

// inlineHops is how many hops a Graph holds without allocating: enough for
// a four-stage chain after its root, the common shape.
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

// Pipeline begins a pipelined call graph rooted at a call to port on s.
func Pipeline(s *stream.Stream, port string, args ...any) *Graph {
	g := &Graph{s: s, port: port, args: args}
	g.hops = g.inline[:0]
	return g
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
	payload, err := g.s.Marshal(g.args...)
	if err != nil {
		return nil, exception.Failure("could not encode")
	}
	stages := g.inlineStages[:]
	if len(g.hops) > inlineHops {
		stages = make([]stream.PipeStage, len(g.hops))
	}
	stages = stages[:len(g.hops)]
	for i, h := range g.hops {
		st := stream.PipeStage{Node: h.Node, Group: h.Group, Port: h.Port}
		if len(h.Extra) > 0 {
			if st.Extra, err = wire.Marshal(h.Extra...); err != nil {
				return nil, exception.Failure("could not encode")
			}
		}
		stages[i] = st
	}
	pending, err := g.s.Issue(context.Background(),
		stream.Req{Port: g.port, Args: payload, Cause: g.cause, Stages: stages})
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
