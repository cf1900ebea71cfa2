package promise

import (
	"context"
	"testing"
	"time"

	"promises/internal/exception"
	"promises/internal/metrics"
	"promises/internal/simnet"
	"promises/internal/stream"
	"promises/internal/wire"
)

// graphFixture wires a client and three server peers that each expose an
// "inc" port (add 1) and an "addmul" port (result*mul + add). The client
// alone carries a metrics registry, for enqueued.
func graphFixture(t *testing.T, serverOpts func(string) stream.Options) (client *stream.Peer, nodes []string) {
	t.Helper()
	n := simnet.New(simnet.Config{})
	opts := stream.Options{
		MaxBatch: 8, MaxBatchDelay: time.Millisecond,
		RTO: 10 * time.Millisecond, MaxRetries: 4,
	}
	copts := opts
	copts.Metrics = metrics.NewRegistry()
	client = stream.NewPeer(n.MustAddNode("client"), copts)
	nodes = []string{"ga", "gb", "gc"}
	peers := make([]*stream.Peer, 0, len(nodes))
	for _, name := range nodes {
		so := opts
		if serverOpts != nil {
			so = serverOpts(name)
		}
		p := stream.NewPeer(n.MustAddNode(name), so)
		p.SetDispatcher(func(port string) (stream.Handler, bool) {
			switch port {
			case "inc":
				return func(call *stream.Incoming) stream.Outcome {
					vals, err := wire.Unmarshal(call.Args)
					if err != nil {
						return stream.ExceptionOutcome(exception.Failure("bad args"))
					}
					v, err := wire.IntArg(vals, 0)
					if err != nil {
						return stream.ExceptionOutcome(exception.Failure("bad args"))
					}
					return mustOutcome(t, v+1)
				}, true
			case "addmul":
				return func(call *stream.Incoming) stream.Outcome {
					vals, err := wire.Unmarshal(call.Args)
					if err != nil || len(vals) != 3 {
						return stream.ExceptionOutcome(exception.Failure("want 3 args"))
					}
					v, _ := wire.IntArg(vals, 0)
					mul, _ := wire.IntArg(vals, 1)
					add, _ := wire.IntArg(vals, 2)
					return mustOutcome(t, v*mul+add)
				}, true
			}
			return nil, false
		})
		peers = append(peers, p)
	}
	t.Cleanup(func() {
		client.Close()
		for _, p := range peers {
			p.Close()
		}
		n.Close()
	})
	return client, nodes
}

// enqueued is how many calls the client itself has put on its streams:
// one per round trip it pays for.
func enqueued(client *stream.Peer) uint64 {
	return client.Metrics().Counter("stream_calls_enqueued_total").Value()
}

func mustOutcome(t *testing.T, v int64) stream.Outcome {
	t.Helper()
	b, err := wire.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return stream.NormalOutcome(b)
}

// TestGraphPipelinedChain runs a 3-stage graph across three guardians and
// claims the final value: ((1+1)+1)*10+4 = 34.
func TestGraphPipelinedChain(t *testing.T) {
	client, nodes := graphFixture(t, nil)
	s := client.Agent("app").Stream(nodes[0], "g")
	g := Pipeline(s, "inc", int64(1)).
		Then(nodes[1], "g", "inc").
		Then(nodes[2], "g", "addmul", int64(10), int64(4))
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	v, err := Run(ctx, g, Int)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if v != 34 {
		t.Fatalf("chain = %d, want 34", v)
	}
	if got := enqueued(client); got != 1 {
		t.Fatalf("client enqueued %d calls for a pipelined 3-stage chain, want 1", got)
	}
}

// TestGraphFallbackAgainstLegacy: when every endpoint has pipelining
// disabled (standing in for a legacy decoder that skips the continuation
// list), the graph still completes — the promise drives the remaining
// stages caller-mediated and yields the identical result.
func TestGraphFallbackAgainstLegacy(t *testing.T) {
	client, nodes := graphFixture(t, func(string) stream.Options {
		return stream.Options{
			MaxBatch: 8, MaxBatchDelay: time.Millisecond,
			RTO: 10 * time.Millisecond, MaxRetries: 4,
			NoPipelining: true,
		}
	})
	s := client.Agent("app").Stream(nodes[0], "g")
	g := Pipeline(s, "inc", int64(1)).
		Then(nodes[1], "g", "inc").
		Then(nodes[2], "g", "addmul", int64(10), int64(4))
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	v, err := Run(ctx, g, Int)
	if err != nil {
		t.Fatalf("Run (fallback): %v", err)
	}
	if v != 34 {
		t.Fatalf("fallback chain = %d, want 34", v)
	}
	if got := enqueued(client); got != 3 {
		t.Fatalf("client enqueued %d calls for a caller-mediated 3-stage chain, want 3", got)
	}
}

// TestGraphStartNonBlocking: Start returns a blocked promise immediately;
// the caller keeps running while the chain executes remotely.
func TestGraphStartNonBlocking(t *testing.T) {
	client, nodes := graphFixture(t, nil)
	s := client.Agent("app").Stream(nodes[0], "g")
	g := Pipeline(s, "inc", int64(5)).Then(nodes[1], "g", "inc")
	p, err := Start(g, Int)
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	v, err := p.Claim(ctx)
	if err != nil || v != 7 {
		t.Fatalf("Claim = %d, %v; want 7, nil", v, err)
	}
}
