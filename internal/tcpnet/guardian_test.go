package tcpnet_test

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"promises/internal/exception"
	"promises/internal/guardian"
	"promises/internal/promise"
	"promises/internal/stream"
	"promises/internal/tcpnet"
	"promises/internal/trace"
	"promises/internal/transport"
	"promises/internal/wire"
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

// chainWorld is a client and four stage guardians s1–s4 on loopback
// sockets, with default Options, each serving inc: it runs hold with the
// guardian's name, then adds one to its argument. A non-nil wrap stands
// between each guardian and its endpoint.
type chainWorld struct {
	eps  map[string]*tcpnet.Endpoint
	gs   map[string]*guardian.Guardian
	refs []guardian.Ref
	s    *stream.Stream // the client's stream to s1
}

func newChainWorld(tb testing.TB, hold func(name string), wrap func(name string, ep transport.Endpoint) transport.Endpoint) *chainWorld {
	names := []string{"client", "s1", "s2", "s3", "s4"}
	eps, err := tcpnet.Loopback(tcpnet.Config{}, names...)
	if err != nil {
		tb.Fatal(err)
	}
	w := &chainWorld{eps: eps, gs: make(map[string]*guardian.Guardian)}
	tb.Cleanup(func() {
		for _, g := range w.gs {
			g.Close()
		}
		for _, ep := range eps {
			ep.Close()
		}
	})
	for _, name := range names {
		var ep transport.Endpoint = eps[name]
		if wrap != nil {
			ep = wrap(name, ep)
		}
		g, err := guardian.NewOn(ep, stream.Options{})
		if err != nil {
			tb.Fatal(err)
		}
		w.gs[name] = g
		if name == "client" {
			continue
		}
		w.refs = append(w.refs, g.AddHandler("inc", func(call *guardian.Call) ([]any, error) {
			hold(name)
			v, err := call.IntArg(0)
			if err != nil {
				return nil, err
			}
			return []any{v + 1}, nil
		}))
	}
	w.s = w.refs[0].Stream(w.gs["client"].Agent("bench"))
	return w
}

// start issues the four-stage chain s1→s2→s3→s4 on v, which resolves
// with v+4.
func (w *chainWorld) start(v int64) (*promise.Promise[int64], error) {
	g := promise.Pipeline(w.s, w.refs[0].Port, v)
	for _, r := range w.refs[1:] {
		g.ThenHop(r.Hop())
	}
	return promise.Start(g, promise.Int)
}

// replyTap counts the ~pipe reply batches its endpoint receives from one
// peer.
type replyTap struct {
	transport.Endpoint
	from string
	n    atomic.Int64
}

func (e *replyTap) Recv(ctx context.Context) (transport.Message, error) {
	m, err := e.Endpoint.Recv(ctx)
	if err == nil && m.From == e.from {
		d := wire.NewDecoder(m.Payload)
		_, _ = d.Header()
		kind, _ := d.Int()
		agent, _ := d.StringView()
		if kind == 2 && string(agent) == "~pipe" {
			e.n.Add(1)
		}
	}
	return m, err
}

// TestMidChainKillOverLoopbackTCP: a chain whose stage at s3 is held, and
// the middle guardian s2 is killed — its peer and its endpoint closed —
// after it forwarded. s1's forward is still in s2's custody, so s1 still
// holds its watch over s2 on its ~pipe stream: that stream breaks, and
// the claim returns unavailable with the break's reason.
//
// s2 is killed only once it has told s1 all it will tell of the stage
// while it lives. A stream that completed its calls as they ran would by
// then have reported the stage done, and s1's watch over s2 would have
// ended; only custody keeps it. The condition is read off s2's
// trace ring and s1's endpoint: s2 executed the forward, then sent two
// probes to s3, and s1 has received every reply batch s2 sent it on that
// ~pipe stream. A receiving stream sends what it owes — receipt, progress
// — at the first tick of its peer's grid after it falls due, and a tick is
// at most half an RTO. Probes are at least one RTO apart, so by the second
// that tick has passed, and a note the stage's completion owed has gone.
func TestMidChainKillOverLoopbackTCP(t *testing.T) {
	held, entered := make(chan struct{}), make(chan struct{}, 1)
	defer close(held)
	tap := &replyTap{from: "s2"}
	w := newChainWorld(t, func(name string) {
		if name == "s3" {
			entered <- struct{}{}
			<-held
		}
	}, func(name string, ep transport.Endpoint) transport.Endpoint {
		if name != "s1" {
			return ep
		}
		tap.Endpoint = ep
		return tap
	})
	ring := trace.NewRing(4096)
	w.gs["s2"].Peer().SetTracer(ring)
	p, err := w.start(0)
	if err != nil {
		t.Fatal(err)
	}
	w.s.Flush()
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the chain never reached s3")
	}
	reported := func() bool {
		var executed time.Time
		probes, sent := 0, int64(0)
		for _, e := range ring.Events() {
			switch from := strings.HasPrefix(e.Stream, "s1/~pipe->s2/"); {
			case e.Kind == trace.CallExecuted && from && executed.IsZero():
				executed = e.At
			case e.Kind == trace.ReplyBatchSent && from:
				sent++
			case e.Kind == trace.BatchSent && e.Detail == "probe" && strings.HasPrefix(e.Stream, "s2/~pipe->s3/") &&
				!executed.IsZero() && e.At.After(executed):
				probes++
			}
		}
		return probes >= 2 && tap.n.Load() >= sent
	}
	for deadline := time.Now().Add(10 * time.Second); !reported(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("s2 never reported the stage to s1")
		}
	}
	w.gs["s2"].Close()
	w.eps["s2"].Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if v, err := p.Claim(ctx); !exception.IsUnavailable(err) || exception.Reason(err) != "cannot communicate" {
		t.Fatalf("claim = %d, %v; want unavailable(cannot communicate)", v, err)
	}
}

// BenchmarkPipelinedChain is the forward hop end to end, shaped like the
// benchmark's chain_k4: a client and four stage guardians on loopback
// sockets, each stage adding one to its argument, 16 four-stage chains in
// flight (promise.Pipeline, ThenHop ×3, Start, then Claim in order).
// allocs/op counts everything one chain costs in all five guardians: the
// graph, the continuation at the origin, each stage's dispatch, splice,
// cut and hand-off, and the resolution's trip home. CI holds it to a
// ceiling.
func BenchmarkPipelinedChain(b *testing.B) {
	w := newChainWorld(b, func(string) {}, nil)
	const window = 16
	ps := make([]*promise.Promise[int64], window)
	ctx := context.Background()
	next := int64(0)
	var err error
	round := func() {
		first := next
		for i := range ps {
			if ps[i], err = w.start(next); err != nil {
				b.Fatal(err)
			}
			next++
		}
		w.s.Flush()
		for i, p := range ps {
			if v, err := p.Claim(ctx); err != nil || v != first+int64(i)+int64(len(w.refs)) {
				b.Fatalf("chain %d: %d, %v", first+int64(i), v, err)
			}
		}
	}
	round() // connections dialed, ~pipe streams open, credit heard
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += window {
		round()
	}
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
