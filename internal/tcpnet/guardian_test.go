package tcpnet_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"promises/internal/guardian"
	"promises/internal/promise"
	"promises/internal/stream"
	"promises/internal/tcpnet"
)

// The in-process end of the transport-seam proof: full guardians — the
// stream protocol, batching, promises — running over real loopback TCP
// sockets instead of simnet, inside one process. The separate-OS-process
// version lives in e2e_test.go.

func tcpOpts() stream.Options {
	return stream.Options{
		MaxBatch:      16,
		MaxBatchDelay: 500 * time.Microsecond,
		RTO:           50 * time.Millisecond,
		MaxRetries:    8,
	}
}

// TestGuardiansOverLoopbackTCP: N pipelined stream calls from a client
// guardian to a server guardian over real sockets, every reply correct
// and every call executed exactly once.
func TestGuardiansOverLoopbackTCP(t *testing.T) {
	eps, err := tcpnet.Loopback(tcpnet.Config{}, "server", "client")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, ep := range eps {
			ep.Close()
		}
	}()

	var mu sync.Mutex
	execs := make(map[int]int)
	srv, err := guardian.NewOn(eps["server"], tcpOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	echo := srv.AddHandler("echo", func(call *guardian.Call) ([]any, error) {
		arg, err := call.IntArg(0)
		if err != nil {
			return nil, err
		}
		mu.Lock()
		execs[int(arg)]++
		mu.Unlock()
		return []any{arg}, nil
	})

	cli, err := guardian.NewOn(eps["client"], tcpOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	s := echo.Stream(cli.Agent("main"))
	const n = 200
	ps := make([]*promise.Promise[int64], n)
	for i := range ps {
		p, err := promise.Call(s, "echo", promise.Int, i)
		if err != nil {
			t.Fatal(err)
		}
		ps[i] = p
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	for i, p := range ps {
		v, err := p.Claim(ctx)
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if v != int64(i) {
			t.Fatalf("call %d echoed %d", i, v)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for i := 0; i < n; i++ {
		if execs[i] != 1 {
			t.Fatalf("call %d executed %d times", i, execs[i])
		}
	}
}

// TestForcedDisconnectExactlyOnce: a connection drop mid-stream (both
// ends severed, frames in flight lost) must be recovered by the stream
// layer's retransmission with every call executing exactly once and in
// order — the transport reconnects underneath.
func TestForcedDisconnectExactlyOnce(t *testing.T) {
	eps, err := tcpnet.Loopback(tcpnet.Config{RedialFloor: 5 * time.Millisecond}, "server", "client")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, ep := range eps {
			ep.Close()
		}
	}()

	var mu sync.Mutex
	var order []int
	execs := make(map[int]int)
	srv, err := guardian.NewOn(eps["server"], tcpOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	echo := srv.AddHandler("echo", func(call *guardian.Call) ([]any, error) {
		i, err := call.IntArg(0)
		if err != nil {
			return nil, err
		}
		mu.Lock()
		execs[int(i)]++
		order = append(order, int(i))
		mu.Unlock()
		return []any{i}, nil
	})

	cli, err := guardian.NewOn(eps["client"], tcpOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	s := echo.Stream(cli.Agent("main"))
	const n = 300
	ps := make([]*promise.Promise[int64], n)
	for i := 0; i < n; i++ {
		p, err := promise.Call(s, "echo", promise.Int, i)
		if err != nil {
			t.Fatal(err)
		}
		ps[i] = p
		if i == n/3 {
			s.Flush()
			eps["client"].DropConnections() // kill the conn mid-stream
		}
		if i == 2*n/3 {
			s.Flush()
			eps["server"].DropConnections() // and again from the far side
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i, p := range ps {
		v, err := p.Claim(ctx)
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if v != int64(i) {
			t.Fatalf("call %d echoed %d", i, v)
		}
	}

	mu.Lock()
	defer mu.Unlock()
	for i := 0; i < n; i++ {
		if execs[i] != 1 {
			t.Fatalf("call %d executed %d times (exactly-once violated)", i, execs[i])
		}
	}
	for i := 1; i < len(order); i++ {
		if order[i] != order[i-1]+1 {
			t.Fatalf("execution order broken at %d: %v...", i, order[max(0, i-3):i+1])
		}
	}
	if inc := s.Incarnation(); inc != 1 {
		t.Fatalf("stream reincarnated (inc=%d); a connection drop must not break the stream", inc)
	}
}

// BenchmarkPromiseBulkCallClaim is the byte path end to end: promise.Call
// of one large argument to a guardian echo handler over loopback sockets,
// a window of 32 in flight, every result claimed. B/op is the figure to
// watch — it counts each buffer a payload passes through (the two
// marshalled frames, its share of two receive chunks, the claimed copy),
// so a copy reintroduced anywhere on the path shows as another payload's
// worth. CI holds it to a ceiling.
func BenchmarkPromiseBulkCallClaim(b *testing.B) {
	b.Run("16KiB", func(b *testing.B) { benchBulkCallClaim(b, 16<<10) })
}

func benchBulkCallClaim(b *testing.B, size int) {
	eps, err := tcpnet.Loopback(tcpnet.Config{}, "server", "client")
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		for _, ep := range eps {
			ep.Close()
		}
	}()
	srv, err := guardian.NewOn(eps["server"], stream.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	echo := srv.AddHandler("echo", func(call *guardian.Call) ([]any, error) { return call.Args, nil })
	cli, err := guardian.NewOn(eps["client"], stream.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer cli.Close()
	s := echo.Stream(cli.Agent("bench"))

	const window = 32
	arg := make([]byte, size)
	ps := make([]*promise.Promise[[]byte], window)
	ctx := context.Background()
	round := func() {
		for i := range ps {
			if ps[i], err = promise.Call(s, echo.Port, promise.Bytes, arg); err != nil {
				b.Fatal(err)
			}
		}
		s.Flush()
		for _, p := range ps {
			if v, err := p.Claim(ctx); err != nil || len(v) != size {
				b.Fatalf("claim: %d bytes, %v", len(v), err)
			}
		}
	}
	round() // connections dialed, pools warm
	b.SetBytes(int64(2 * size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += window {
		round()
	}
}
