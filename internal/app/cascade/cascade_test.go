package cascade

import (
	"context"
	"strings"
	"testing"
	"time"

	"promises/internal/clock"
	"promises/internal/exception"
	"promises/internal/simnet"
	"promises/internal/stream"
	"promises/internal/trace"
)

func fastOpts() stream.Options {
	return stream.Options{MaxBatch: 16, MaxBatchDelay: time.Millisecond,
		RTO: 10 * time.Millisecond, MaxRetries: 4}
}

type world struct {
	net     *simnet.Network
	source  *Source
	compute *Compute
	sink    *Sink
	client  *Client
}

func newWorld(t *testing.T, cfg simnet.Config, total int64) *world {
	t.Helper()
	n := simnet.New(cfg)
	src, err := NewSource(n, "source", fastOpts(), total)
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := NewCompute(n, "compute", fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	snk, err := NewSink(n, "sink", fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	client, err := NewClient(n, "client", fastOpts(), src.Ref(), cmp.Ref(), snk.Ref())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		client.G.Close()
		src.G.Close()
		cmp.G.Close()
		snk.G.Close()
		n.Close()
	})
	return &world{net: n, source: src, compute: cmp, sink: snk, client: client}
}

// newVirtualWorld is newWorld on an auto-advancing virtual clock: modeled
// per-stage delays elapse without real waiting.
func newVirtualWorld(t *testing.T, cfg simnet.Config, total int64) (*world, *clock.Virtual) {
	t.Helper()
	vclk := clock.NewVirtual()
	cfg.Clock = vclk
	vclk.SetAutoAdvance(true)
	// Registered before newWorld's cleanup so (LIFO) the clock advances
	// until the guardians have closed.
	t.Cleanup(func() { vclk.SetAutoAdvance(false) })
	return newWorld(t, cfg, total), vclk
}

// checkSink verifies that exactly items 0..k-1 arrived, transformed, in
// order.
func checkSink(t *testing.T, w *world, k int) {
	t.Helper()
	vals := w.sink.Values()
	if len(vals) != k {
		t.Fatalf("sink has %d values, want %d", len(vals), k)
	}
	for i, v := range vals {
		if want := Transform(int64(i)); v != want {
			t.Fatalf("sink[%d] = %d, want %d", i, v, want)
		}
	}
}

func TestSequentialCascade(t *testing.T) {
	w := newWorld(t, simnet.Config{}, 0)
	if err := w.client.RunSequential(context.Background(), 25); err != nil {
		t.Fatal(err)
	}
	checkSink(t, w, 25)
}

func TestPerStreamCascade(t *testing.T) {
	w := newWorld(t, simnet.Config{}, 0)
	if err := w.client.RunPerStream(context.Background(), 25); err != nil {
		t.Fatal(err)
	}
	checkSink(t, w, 25)
}

func TestPerItemCascade(t *testing.T) {
	w := newWorld(t, simnet.Config{}, 0)
	if err := w.client.RunPerItem(context.Background(), 25); err != nil {
		t.Fatal(err)
	}
	checkSink(t, w, 25)
}

func TestPipelinedCascade(t *testing.T) {
	w := newWorld(t, simnet.Config{}, 0)
	if err := w.client.RunPipelined(context.Background(), 25); err != nil {
		t.Fatal(err)
	}
	checkSink(t, w, 25)
}

func TestAllStrategiesIdenticalUnderJitter(t *testing.T) {
	const k = 40
	for name, run := range map[string]func(*Client, context.Context, int) error{
		"sequential": (*Client).RunSequential,
		"per-stream": (*Client).RunPerStream,
		"per-item":   (*Client).RunPerItem,
	} {
		w := newWorld(t, simnet.Config{Jitter: 200 * time.Microsecond, Seed: 13}, 0)
		if err := run(w.client, context.Background(), k); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkSink(t, w, k)
	}
}

func TestEndOfDataPropagates(t *testing.T) {
	// The source has only 5 items; reading 10 raises end_of_data, which
	// must propagate out of the composition.
	w := newWorld(t, simnet.Config{}, 5)
	err := w.client.RunPerStream(context.Background(), 10)
	if !exception.Is(err, "end_of_data") {
		t.Fatalf("err = %v", err)
	}
}

func TestPerItemEndOfDataTerminatesGroup(t *testing.T) {
	w := newWorld(t, simnet.Config{}, 5)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := w.client.RunPerItem(ctx, 10)
	if !exception.Is(err, "end_of_data") {
		t.Fatalf("err = %v", err)
	}
	if ctx.Err() != nil {
		t.Fatal("per-item composition hung")
	}
}

func TestPartitionTerminatesPerStream(t *testing.T) {
	w := newWorld(t, simnet.Config{}, 0)
	w.net.Partition("client", "compute")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := w.client.RunPerStream(ctx, 10)
	if err == nil {
		t.Fatal("expected failure under partition")
	}
	if ctx.Err() != nil {
		t.Fatal("composition hung")
	}
}

// TestPipeliningBeatsSequentialWithStageDelays asserts the overlap as
// event order. The sequential structure claims every read before it makes
// its first write call, so the sink executes only after the source has
// executed its last call; with one arm per stream the sink is at work
// while the source still has most of its stage delays ahead of it.
// Elapsed time is held only to a very generous bound.
func TestPipeliningBeatsSequentialWithStageDelays(t *testing.T) {
	const k = 30
	stage := 300 * time.Microsecond
	// run reports the elapsed modeled time and whether the sink executed
	// its first call before the source executed its last.
	run := func(f func(*Client, context.Context, int) error) (time.Duration, bool) {
		w, clk := newVirtualWorld(t, simnet.Config{}, 0)
		w.source.SetDelay(stage)
		w.compute.SetDelay(stage)
		w.sink.SetDelay(stage)
		ring := trace.NewRing(0)
		w.source.G.Peer().SetTracer(ring)
		w.sink.G.Peer().SetTracer(ring)
		start := clk.Now()
		if err := f(w.client, context.Background(), k); err != nil {
			t.Fatal(err)
		}
		elapsed := clk.Now().Sub(start)
		lastRead, firstWrite := -1, -1
		for i, e := range ring.Filter(trace.CallExecuted) {
			if strings.Contains(e.Stream, "->source/") {
				lastRead = i
			} else if firstWrite < 0 {
				firstWrite = i
			}
		}
		if lastRead < 0 || firstWrite < 0 {
			t.Fatalf("trace is missing the source's executions (%d) or the sink's (%d)", lastRead, firstWrite)
		}
		return elapsed, firstWrite < lastRead
	}
	seqT, seqOverlap := run((*Client).RunSequential)
	if seqOverlap {
		t.Error("sequential: the sink executed a call before the source executed its last")
	}
	pipeT, pipeOverlap := run((*Client).RunPerStream)
	if !pipeOverlap {
		t.Error("per-stream: the sink executed nothing until the source had executed its last call; no overlap")
	}
	if pipeT > 3*seqT {
		t.Fatalf("per-stream (%v) wildly slower than sequential (%v)", pipeT, seqT)
	}
}

func TestSourceReset(t *testing.T) {
	w := newWorld(t, simnet.Config{}, 3)
	if err := w.client.RunSequential(context.Background(), 3); err != nil {
		t.Fatal(err)
	}
	w.source.Reset()
	w.sink.Reset()
	if err := w.client.RunSequential(context.Background(), 3); err != nil {
		t.Fatal(err)
	}
	checkSink(t, w, 3)
}
