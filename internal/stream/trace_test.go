package stream

import (
	"context"
	"testing"
	"time"

	"promises/internal/exception"
	"promises/internal/simnet"
	"promises/internal/trace"
)

// TestTracingCapturesProtocolLifecycle asserts that the tracer sees the
// full life of a call: enqueue, batch transmission, execution at the
// receiver, reply batch, and promise resolution.
func TestTracingCapturesProtocolLifecycle(t *testing.T) {
	f := newFixture(t, simnet.Config{}, fastOpts())
	f.handle("echo", echoHandler)
	sendRing := trace.NewRing(256)
	recvRing := trace.NewRing(256)
	f.client.SetTracer(sendRing)
	f.server.SetTracer(recvRing)

	s := f.client.Agent("a1").Stream("server", "g1")
	const n = 5
	ps := make([]Pending, n)
	for i := range ps {
		p, err := s.Call("echo", []byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		ps[i] = p
	}
	s.Flush()
	for _, p := range ps {
		claim(t, p)
	}

	if got := sendRing.Count(trace.CallEnqueued); got != n {
		t.Errorf("CallEnqueued = %d, want %d", got, n)
	}
	if got := sendRing.Count(trace.PromiseResolved); got != n {
		t.Errorf("PromiseResolved = %d, want %d", got, n)
	}
	if got := sendRing.Count(trace.BatchSent); got < 1 {
		t.Errorf("BatchSent = %d", got)
	}
	if got := recvRing.Count(trace.CallExecuted); got != n {
		t.Errorf("CallExecuted = %d, want %d", got, n)
	}
	if got := recvRing.Count(trace.ReplyBatchSent); got < 1 {
		t.Errorf("ReplyBatchSent = %d", got)
	}

	// Promise resolutions arrive in seq order — the ordered-readiness
	// invariant, visible in the trace.
	var last uint64
	for _, e := range sendRing.Filter(trace.PromiseResolved) {
		if e.Seq <= last {
			t.Fatalf("resolution order violated: seq %d after %d", e.Seq, last)
		}
		last = e.Seq
	}
}

// TestTracingShowsBatchingCoalescing: with a large batch limit, n calls
// travel in far fewer request batches.
func TestTracingShowsBatchingCoalescing(t *testing.T) {
	opts := fastOpts()
	opts.MaxBatch = 64
	f := newFixture(t, simnet.Config{}, opts)
	f.handle("echo", echoHandler)
	ring := trace.NewRing(1024)
	f.client.SetTracer(ring)

	s := f.client.Agent("a1").Stream("server", "g1")
	const n = 64
	for i := 0; i < n; i++ {
		if _, err := s.Call("echo", nil); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := timeout10s()
	defer cancel()
	if err := s.Synch(ctx); err != nil {
		t.Fatal(err)
	}
	batches := ring.Filter(trace.BatchSent)
	carrying := 0
	for _, b := range batches {
		if b.Detail != "ack" && b.Detail != "probe" {
			carrying++
		}
	}
	if carrying > n/8 {
		t.Fatalf("%d calls went out in %d batches; batching not coalescing", n, carrying)
	}
}

// TestTracingCapturesBreakAndRestart.
func TestTracingCapturesBreakAndRestart(t *testing.T) {
	f := newFixture(t, simnet.Config{}, fastOpts())
	ring := trace.NewRing(256)
	f.client.SetTracer(ring)
	f.net.Partition("client", "server")

	s := f.client.Agent("a1").Stream("server", "g1")
	p, err := s.Call("echo", nil)
	if err != nil {
		t.Fatal(err)
	}
	s.Flush()
	claim(t, p) // resolves unavailable once retries exhaust

	if got := ring.Count(trace.StreamBroken); got != 1 {
		t.Fatalf("StreamBroken = %d", got)
	}
	breaks := ring.Filter(trace.StreamBroken)
	if breaks[0].Detail != exception.NameUnavailable+"(cannot communicate)" {
		t.Fatalf("break detail = %q", breaks[0].Detail)
	}
	// Auto-restart reincarnated the stream. The break resolves the call
	// before it reincarnates, so the claim can return first.
	waitFor(t, "the stream never restarted", func() bool { return ring.Count(trace.StreamRestarted) > 0 })
	if got := ring.Count(trace.StreamRestarted); got != 1 {
		t.Fatalf("StreamRestarted = %d", got)
	}
	if ring.Filter(trace.StreamRestarted)[0].Seq != 2 {
		t.Fatalf("restart incarnation = %d", ring.Filter(trace.StreamRestarted)[0].Seq)
	}
}

// TestTracerRemoval: a nil SetTracer stops recording.
func TestTracerRemoval(t *testing.T) {
	f := newFixture(t, simnet.Config{}, fastOpts())
	f.handle("echo", echoHandler)
	ring := trace.NewRing(64)
	f.client.SetTracer(ring)
	f.client.SetTracer(nil)
	s := f.client.Agent("a1").Stream("server", "g1")
	p, err := s.Call("echo", nil)
	if err != nil {
		t.Fatal(err)
	}
	claim(t, p)
	if len(ring.Events()) != 0 {
		t.Fatalf("events recorded after tracer removal: %v", ring.Events())
	}
}

func timeout10s() (ctx context.Context, cancel context.CancelFunc) {
	return context.WithTimeout(context.Background(), 10*time.Second)
}
