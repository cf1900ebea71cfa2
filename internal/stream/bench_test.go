package stream

import (
	"context"
	"testing"

	"promises/internal/metrics"
	"promises/internal/simnet"
	"promises/internal/trace"
)

// benchWorld is the benchmark twin of testFixture: a client and a server
// peer over a zero-cost network, with an echo handler installed.
func benchWorld(b *testing.B, opts Options) (*Peer, func()) {
	return benchWorldCfg(b, simnet.Config{}, opts)
}

func benchWorldCfg(b *testing.B, cfg simnet.Config, opts Options) (*Peer, func()) {
	b.Helper()
	n := simnet.New(cfg)
	client := NewPeer(n.MustAddNode("client"), opts)
	server := NewPeer(n.MustAddNode("server"), opts)
	server.SetDispatcher(func(port string) (Handler, bool) {
		return echoHandler, true
	})
	return client, func() {
		client.Close()
		server.Close()
		n.Close()
	}
}

// BenchmarkStreamCallThroughput measures the end-to-end per-call cost of
// the stream fast path — enqueue, batch encode, simnet transfer, receiver
// execute, reply, promise resolution — with a bounded window of calls in
// flight. allocs/op is the headline number: it covers every allocation on
// the call's whole round trip, and with pooled Pending cells and pooled
// Incoming scratch it reads 0 — only amortized per-batch costs remain.
func BenchmarkStreamCallThroughput(b *testing.B) {
	client, cleanup := benchWorld(b, Options{MaxBatch: 16})
	defer cleanup()
	s := client.Agent("bench").Stream("server", "g")
	arg := make([]byte, 32)

	const window = 256
	pendings := make([]Pending, 0, window)
	ctx := context.Background()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := s.Call("echo", arg)
		if err != nil {
			b.Fatalf("Call: %v", err)
		}
		pendings = append(pendings, p)
		if len(pendings) == window {
			s.Flush()
			for _, p := range pendings {
				if _, err := p.Wait(ctx); err != nil {
					b.Fatalf("Wait: %v", err)
				}
				p.Release()
			}
			pendings = pendings[:0]
		}
	}
	s.Flush()
	for _, p := range pendings {
		if _, err := p.Wait(ctx); err != nil {
			b.Fatalf("Wait: %v", err)
		}
		p.Release()
	}
}

// BenchmarkStreamCallThroughputWithMetrics is the instrumented twin of
// BenchmarkStreamCallThroughput: a live registry inherited by both peers,
// so every counter and histogram update on the call path is measured.
// The telemetry budget is ~5% over the uninstrumented number.
func BenchmarkStreamCallThroughputWithMetrics(b *testing.B) {
	client, cleanup := benchWorldCfg(b, simnet.Config{Metrics: metrics.NewRegistry()}, Options{MaxBatch: 16})
	defer cleanup()
	s := client.Agent("bench").Stream("server", "g")
	arg := make([]byte, 32)

	const window = 256
	pendings := make([]Pending, 0, window)
	ctx := context.Background()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := s.Call("echo", arg)
		if err != nil {
			b.Fatalf("Call: %v", err)
		}
		pendings = append(pendings, p)
		if len(pendings) == window {
			s.Flush()
			for _, p := range pendings {
				if _, err := p.Wait(ctx); err != nil {
					b.Fatalf("Wait: %v", err)
				}
				p.Release()
			}
			pendings = pendings[:0]
		}
	}
	s.Flush()
	for _, p := range pendings {
		if _, err := p.Wait(ctx); err != nil {
			b.Fatalf("Wait: %v", err)
		}
		p.Release()
	}
}

// BenchmarkStreamCallThroughputObserved is the round trip with the FULL
// observability plane on: a live metrics registry (counters, stage
// histograms) AND the trace flight recorder installed on both peers —
// exactly what a daemon runs with -ops. The allocs/op budget is the
// same 0 as the dark fast path: events record by value into the ring,
// details are precomputed strings, and histogram observations are
// atomic adds.
func BenchmarkStreamCallThroughputObserved(b *testing.B) {
	client, cleanup := benchWorldCfg(b, simnet.Config{Metrics: metrics.NewRegistry()}, Options{MaxBatch: 16})
	defer cleanup()
	rec := trace.NewRecorder(1<<12, 8)
	client.SetTracer(rec)
	s := client.Agent("bench").Stream("server", "g")
	arg := make([]byte, 32)

	const window = 256
	pendings := make([]Pending, 0, window)
	ctx := context.Background()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := s.Call("echo", arg)
		if err != nil {
			b.Fatalf("Call: %v", err)
		}
		pendings = append(pendings, p)
		if len(pendings) == window {
			s.Flush()
			for _, p := range pendings {
				if _, err := p.Wait(ctx); err != nil {
					b.Fatalf("Wait: %v", err)
				}
				p.Release()
			}
			pendings = pendings[:0]
		}
	}
	s.Flush()
	for _, p := range pendings {
		if _, err := p.Wait(ctx); err != nil {
			b.Fatalf("Wait: %v", err)
		}
		p.Release()
	}
	b.StopTimer()
	if got := rec.Count(trace.CallEnqueued); got == 0 {
		b.Fatal("flight recorder saw no events — the observed benchmark measured the dark path")
	}
}

// BenchmarkStreamCallThroughputAdaptive is the round trip with the
// adaptive batch controller and credit flow control on (a MaxInFlight
// window wider than the claim window, so admission never blocks). The
// allocs/op budget is the same 0 as the uninstrumented fast path.
func BenchmarkStreamCallThroughputAdaptive(b *testing.B) {
	client, cleanup := benchWorld(b, Options{MaxBatch: 16, AdaptiveBatch: true, MaxInFlight: 512})
	defer cleanup()
	s := client.Agent("bench").Stream("server", "g")
	arg := make([]byte, 32)

	const window = 256
	pendings := make([]Pending, 0, window)
	ctx := context.Background()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := s.Call("echo", arg)
		if err != nil {
			b.Fatalf("Call: %v", err)
		}
		pendings = append(pendings, p)
		if len(pendings) == window {
			s.Flush()
			for _, p := range pendings {
				if _, err := p.Wait(ctx); err != nil {
					b.Fatalf("Wait: %v", err)
				}
				p.Release()
			}
			pendings = pendings[:0]
		}
	}
	s.Flush()
	for _, p := range pendings {
		if _, err := p.Wait(ctx); err != nil {
			b.Fatalf("Wait: %v", err)
		}
		p.Release()
	}
}

// BenchmarkStreamCallThroughputPipeActive is the plain round trip with
// the promise-pipelining machinery ACTIVE on the receiving peer: a
// pipelined chain is run first so the server's epoch scheduler goroutine
// exists and the receiver walks the continuation-aware execute path on
// every call. The allocs/op budget for plain calls is the same 0 as the
// dark fast path — pipelining support must be free when unused.
func BenchmarkStreamCallThroughputPipeActive(b *testing.B) {
	n := simnet.New(simnet.Config{})
	client := NewPeer(n.MustAddNode("client"), Options{MaxBatch: 16})
	server := NewPeer(n.MustAddNode("server"), Options{MaxBatch: 16})
	aux := NewPeer(n.MustAddNode("aux"), Options{MaxBatch: 16})
	for _, p := range []*Peer{server, aux} {
		p.SetDispatcher(func(port string) (Handler, bool) {
			return echoHandler, true
		})
	}
	defer func() {
		client.Close()
		server.Close()
		aux.Close()
		n.Close()
	}()
	s := client.Agent("bench").Stream("server", "g")
	arg := make([]byte, 32)
	ctx := context.Background()

	// Warm-up: one pipelined chain server→aux, claimed to completion, so
	// the server's scheduler loop is running for the measured section.
	wp, err := s.CallPipelined(ctx, "echo", arg, trace.Cause{},
		[]PipeStage{{Node: "aux", Group: "g", Port: "echo"}})
	if err != nil {
		b.Fatalf("CallPipelined: %v", err)
	}
	s.Flush()
	if o, err := wp.Wait(ctx); err != nil || !o.Piped {
		b.Fatalf("warm-up chain: outcome=%+v err=%v", o, err)
	}
	wp.Release()

	const window = 256
	pendings := make([]Pending, 0, window)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := s.Call("echo", arg)
		if err != nil {
			b.Fatalf("Call: %v", err)
		}
		pendings = append(pendings, p)
		if len(pendings) == window {
			s.Flush()
			for _, p := range pendings {
				if _, err := p.Wait(ctx); err != nil {
					b.Fatalf("Wait: %v", err)
				}
				p.Release()
			}
			pendings = pendings[:0]
		}
	}
	s.Flush()
	for _, p := range pendings {
		if _, err := p.Wait(ctx); err != nil {
			b.Fatalf("Wait: %v", err)
		}
		p.Release()
	}
}

// BenchmarkEncodeRequestBatch measures encoding one 16-request batch with
// 32-byte argument payloads — the sender-side wire cost of a full batch.
func BenchmarkEncodeRequestBatch(b *testing.B) {
	batch := requestBatch{
		Agent:             "bench",
		Group:             "g",
		Incarnation:       1,
		AckRepliesThrough: 7,
	}
	arg := make([]byte, 32)
	for i := 0; i < 16; i++ {
		batch.Requests = append(batch.Requests,
			request{Seq: uint64(i + 1), Port: "echo", Mode: ModeCall, Args: arg})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = encodeRequestBatch(batch)
	}
}

// BenchmarkDecodeRequestBatch measures the zero-copy decode of one
// 16-request batch: pooled batch struct, interned identifiers, argument
// views aliasing the datagram. Steady state is allocation-free.
func BenchmarkDecodeRequestBatch(b *testing.B) {
	batch := requestBatch{
		Agent:             "bench",
		Group:             "g",
		Incarnation:       1,
		AckRepliesThrough: 7,
	}
	arg := make([]byte, 32)
	for i := 0; i < 16; i++ {
		batch.Requests = append(batch.Requests,
			request{Seq: uint64(i + 1), Port: "echo", Mode: ModeCall, Args: arg})
	}
	msg := encodeRequestBatch(batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kind, rb, _, _, err := decodeMessage(msg)
		if err != nil || kind != kindRequestBatch {
			b.Fatalf("decodeMessage: kind %d err %v", kind, err)
		}
		releaseRequestBatch(rb)
	}
}

// BenchmarkEncodeReplyBatch is the receiver-side twin: one 16-reply batch
// with 32-byte result payloads.
func BenchmarkEncodeReplyBatch(b *testing.B) {
	batch := replyBatch{
		Agent:              "bench",
		Group:              "g",
		Incarnation:        1,
		Epoch:              3,
		AckRequestsThrough: 16,
		CompletedThrough:   16,
	}
	res := make([]byte, 32)
	for i := 0; i < 16; i++ {
		batch.Replies = append(batch.Replies,
			reply{Seq: uint64(i + 1), Outcome: NormalOutcome(res)})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = encodeReplyBatch(batch)
	}
}
