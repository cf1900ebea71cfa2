package stream

import (
	"context"
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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
	wp, err := s.Issue(ctx, Req{Port: "echo", Args: plain(arg)},
		PipeStage{Node: "aux", Group: "g", Port: "echo"})
	if err != nil {
		b.Fatalf("Issue: %v", err)
	}
	s.Flush()
	if o, err := wp.Wait(ctx); err != nil || !o.Normal {
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
		_ = encodeRequestBatch(batch, nil)
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
	msg := encodeRequestBatch(batch, nil)
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
		_ = encodeReplyBatch(batch, nil)
	}
}

// BenchmarkManyActiveStreams drives many streams at once from one client
// peer to one server peer. Each stream's caller issues bursts of four
// calls, leaves them to the age flush, and waits for them. Besides
// calls/s and per-call latency it reports flush-late: how long after its
// batch's MaxBatchDelay ran out the first call of a burst reaches its
// handler. That covers the age flush, delivery and the hand-off to a
// runner, which every stream on a peer shares.
func BenchmarkManyActiveStreams(b *testing.B) {
	for _, n := range []int{64, 1000} {
		b.Run(fmt.Sprintf("streams=%d", n), func(b *testing.B) { benchManyStreams(b, n) })
	}
}

func benchManyStreams(b *testing.B, streams int) {
	const burst = 4
	const delay = 2 * time.Millisecond
	opts := Options{MaxBatchDelay: delay}
	epoch := time.Now()
	var mu sync.Mutex
	var late []time.Duration
	n := simnet.New(simnet.Config{})
	client := NewPeer(n.MustAddNode("client"), opts)
	server := NewPeer(n.MustAddNode("server"), opts)
	server.SetDispatcher(func(string) (Handler, bool) {
		return func(call *Incoming) Outcome {
			if call.Args[8] == 0 { // the first call of its burst
				d := time.Since(epoch) - time.Duration(binary.LittleEndian.Uint64(call.Args)) - delay
				mu.Lock()
				late = append(late, d)
				mu.Unlock()
			}
			return NormalOutcome(nil)
		}, true
	})
	defer func() {
		client.Close()
		server.Close()
		n.Close()
	}()
	ctx := context.Background()
	ss := make([]*Stream, streams)
	for i := range ss {
		ss[i] = client.Agent(fmt.Sprint("a", i)).Stream("server", "g")
		if _, err := ss[i].RPC(ctx, "warm", make([]byte, 9)); err != nil {
			b.Fatal(err)
		}
	}
	mu.Lock()
	late = late[:0]
	mu.Unlock()

	var issued atomic.Int64
	lats := make([][]time.Duration, streams)
	var wg sync.WaitGroup
	b.ResetTimer()
	start := time.Now()
	for i, s := range ss {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var ps [burst]Pending
			var at [burst]time.Duration
			for issued.Add(burst) <= int64(b.N)+burst-1 {
				for j := range ps {
					arg := make([]byte, 9)
					at[j] = time.Since(epoch)
					binary.LittleEndian.PutUint64(arg, uint64(at[j]))
					arg[8] = byte(j)
					p, err := s.Call("work", arg)
					if err != nil {
						b.Error(err)
						return
					}
					ps[j] = p
				}
				for j, p := range ps {
					if o, err := p.Wait(ctx); err != nil || !o.Normal {
						b.Errorf("call: %+v %v", o, err)
						return
					}
					lats[i] = append(lats[i], time.Since(epoch)-at[j])
					p.Release()
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	b.StopTimer()

	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	q := func(d []time.Duration, f float64) float64 {
		slices.Sort(d)
		return float64(d[int(f*float64(len(d)-1))].Microseconds())
	}
	b.ReportMetric(float64(len(all))/elapsed.Seconds(), "calls/s")
	b.ReportMetric(q(all, 0.99), "lat-p99-us")
	b.ReportMetric(q(late, 0.5), "flush-late-p50-us")
	b.ReportMetric(q(late, 0.99), "flush-late-p99-us")
}
