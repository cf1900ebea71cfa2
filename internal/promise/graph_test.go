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
func graphFixture(t *testing.T) (client *stream.Peer, nodes []string) {
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
		p := stream.NewPeer(n.MustAddNode(name), opts)
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
	client, nodes := graphFixture(t)
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

// TestGraphSpillsPastInlineHops: a graph of six hops outgrows the four a
// Graph keeps inline, so its stages move to the heap, extras and all; the
// chain still runs end to end through all seven stages, for one enqueued
// call: ((((((1+1)+1)+1)+1)+1)+1)*10+4 = 74.
func TestGraphSpillsPastInlineHops(t *testing.T) {
	client, nodes := graphFixture(t)
	s := client.Agent("app").Stream(nodes[0], "g")
	g := Pipeline(s, "inc", int64(1))
	for i := 1; i <= 5; i++ {
		g.Then(nodes[i%len(nodes)], "g", "inc")
	}
	g.ThenHop(Hop{Node: nodes[0], Group: "g", Port: "addmul", Extra: []any{int64(10), int64(4)}})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	v, err := Run(ctx, g, Int)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if v != 74 {
		t.Fatalf("chain = %d, want 74", v)
	}
	if got := enqueued(client); got != 1 {
		t.Fatalf("client enqueued %d calls for a pipelined 7-stage chain, want 1", got)
	}
}

// TestGraphEncodeFailureEnqueuesNothing: Pipeline and ThenHop encode
// their arguments when they are given, and one that cannot be encoded
// fails Start with failure("could not encode"), as Call fails, with no
// promise and no call on the stream.
func TestGraphEncodeFailureEnqueuesNothing(t *testing.T) {
	client, nodes := graphFixture(t)
	s := client.Agent("app").Stream(nodes[0], "g")
	for name, g := range map[string]*Graph{
		"root": Pipeline(s, "inc", make(chan int)).Then(nodes[1], "g", "inc"),
		"hop":  Pipeline(s, "inc", int64(1)).Then(nodes[1], "g", "addmul", int64(10), make(chan int)),
	} {
		p, err := Start(g, Int)
		if p != nil || !exception.IsFailure(err) || err.(*exception.Exception).StringArg(0) != "could not encode" {
			t.Errorf("%s: Start = %v, %v; want no promise and failure(could not encode)", name, p, err)
		}
	}
	if got := enqueued(client); got != 0 {
		t.Fatalf("graphs that could not be encoded enqueued %d calls, want 0", got)
	}
}

// TestGraphStartAllocatesNoMoreThanCall: a four-hop chain's origin costs
// what a Call of the same argument on the same stream costs. Pipeline
// inlines and nothing points into the graph, so the Graph stays in its
// builder's frame; Start hands its stages to the stream apart from the
// request; the continuation blob, like the arguments, is carved from the
// peer's marshal arena. A graph on the heap or a blob of its own costs a
// chain one allocation more and fails. No peer answers on the stream, and
// no batch fills or ages, so only the origin is counted.
func TestGraphStartAllocatesNoMoreThanCall(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector changes allocation counts")
	}
	n := simnet.New(simnet.Config{})
	client := stream.NewPeer(n.MustAddNode("client"), stream.Options{
		MaxBatch: 1 << 20, MaxBatchDelay: time.Hour, RTO: time.Hour})
	t.Cleanup(func() {
		client.Close()
		n.Close()
	})
	s := client.Agent("app").Stream("silent", "g")
	v := int64(1 << 20) // past the values Go boxes without allocating
	call := testing.AllocsPerRun(500, func() {
		v++
		if _, err := Call(s, "inc", Int, v); err != nil {
			t.Fatal(err)
		}
	})
	start := testing.AllocsPerRun(500, func() {
		v++
		g := Pipeline(s, "inc", v)
		for _, node := range [...]string{"ga", "gb", "gc", "gd"} {
			g.Then(node, "g", "inc")
		}
		if _, err := Start(g, Int); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Call %.0f allocs, Start of a four-hop graph %.0f", call, start)
	if start > call {
		t.Fatalf("Start of a four-hop graph allocates %.0f, Call of the same argument %.0f", start, call)
	}
}

// TestCallerMediatedChainEnqueuesK is E15's control: the chain of
// TestGraphPipelinedChain driven by the caller, in the shape of the
// chain_k4 workload's control — one Call per stage, each claimed before
// the next stage is called with its result. The client pays one enqueued
// call per stage where the pipelined graph pays one in all.
func TestCallerMediatedChainEnqueuesK(t *testing.T) {
	client, nodes := graphFixture(t)
	agent := client.Agent("app")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	v := int64(1)
	for i, port := range []string{"inc", "inc", "addmul"} {
		args := []any{v}
		if port == "addmul" {
			args = append(args, int64(10), int64(4))
		}
		s := agent.Stream(nodes[i], "g")
		p, err := Call(s, port, Int, args...)
		if err != nil {
			t.Fatalf("stage %d: %v", i, err)
		}
		s.Flush()
		if v, err = p.Claim(ctx); err != nil {
			t.Fatalf("stage %d: %v", i, err)
		}
	}
	if v != 34 {
		t.Fatalf("chain = %d, want 34", v)
	}
	if got := enqueued(client); got != 3 {
		t.Fatalf("client enqueued %d calls for a caller-mediated 3-stage chain, want 3", got)
	}
}

// TestGraphStartNonBlocking: Start returns a blocked promise immediately;
// the caller keeps running while the chain executes remotely.
func TestGraphStartNonBlocking(t *testing.T) {
	client, nodes := graphFixture(t)
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
