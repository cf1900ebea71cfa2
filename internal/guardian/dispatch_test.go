package guardian

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"promises/internal/exception"
	"promises/internal/promise"
	"promises/internal/simnet"
	"promises/internal/stream"
	"promises/internal/wire"
)

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s on a retained Call did not panic", what)
		}
	}()
	f()
}

// TestRetainedCallIsPoisoned: the Call and its Args are per-runner
// scratch, like stream.Incoming. A handler that keeps the pointer reads
// zero values afterwards and panics on the methods; a Clone taken inside
// the handler stays whole, bytes included, while later calls reuse the
// scratch and the datagram buffers.
func TestRetainedCallIsPoisoned(t *testing.T) {
	w := newWorld(t, simnet.Config{})
	var retained, cloned *Call
	var keptArgs []any
	ref := w.server.AddHandler("keep", func(call *Call) ([]any, error) {
		if retained == nil {
			retained, keptArgs, cloned = call, call.Args, call.Clone()
		}
		return call.Args, nil
	})
	s := ref.Stream(w.client.Agent("a"))
	ctx := context.Background()
	first := []byte("first call's argument")
	if _, err := promise.RPC(ctx, s, "keep", promise.Bytes, first, int64(7)); err != nil {
		t.Fatal(err)
	}
	if retained.Args != nil || retained.From != "" || retained.Guardian != nil {
		t.Errorf("retained Call still readable: %+v", retained)
	}
	if keptArgs[0] != nil || keptArgs[1] != nil {
		t.Errorf("retained Args still hold the call's values: %v", keptArgs)
	}
	mustPanic(t, "IntArg", func() { retained.IntArg(1) })
	mustPanic(t, "FloatArg", func() { retained.FloatArg(1) })
	mustPanic(t, "StringArg", func() { retained.StringArg(0) })
	mustPanic(t, "ChildCause", func() { retained.ChildCause() })
	mustPanic(t, "Clone", func() { retained.Clone() })

	for i := 0; i < 20; i++ { // reuse the scratch and the transport's buffers
		arg := []byte(fmt.Sprintf("later call %2d's argument", i))
		if _, err := promise.RPC(ctx, s, "keep", promise.Bytes, arg, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got, _ := cloned.Args[0].([]byte); string(got) != string(first) {
		t.Errorf("cloned bytes = %q, want %q", got, first)
	}
	if v, err := cloned.IntArg(1); err != nil || v != 7 || cloned.From != "client" || cloned.Guardian != w.server {
		t.Errorf("clone = %+v (IntArg %d, %v)", cloned, v, err)
	}
}

// TestDispatchSnapshotSeenByNextCall: every change to the handler table
// is what the very next dispatched call sees — there is no window in
// which a call runs against the previous snapshot.
func TestDispatchSnapshotSeenByNextCall(t *testing.T) {
	w := newWorld(t, simnet.Config{})
	version := func(v int64) HandlerFunc {
		return func(*Call) ([]any, error) { return []any{v}, nil }
	}
	ref := w.server.AddHandler("op", version(1))
	s := ref.Stream(w.client.Agent("a"))
	ctx := context.Background()
	call := func() (int64, error) { return promise.RPC(ctx, s, "op", promise.Int) }

	if v, err := call(); err != nil || v != 1 {
		t.Fatalf("first handler: %d, %v", v, err)
	}
	w.server.AddHandler("op", version(2))
	if v, err := call(); err != nil || v != 2 {
		t.Fatalf("after re-AddHandler: %d, %v", v, err)
	}
	w.server.RemoveHandler("op")
	if _, err := call(); !exception.IsFailure(err) {
		t.Fatalf("after RemoveHandler: %v", err)
	}
	w.server.AddHandler("op", version(3))
	if v, err := call(); err != nil || v != 3 {
		t.Fatalf("after AddHandler again: %d, %v", v, err)
	}

	// SetParallel: the next two calls on one stream overlap. Each waits
	// for the other, so a serial execution would time out.
	var inside atomic.Int32
	both := make(chan struct{})
	w.server.AddHandler("meet", func(*Call) ([]any, error) {
		if inside.Add(1) == 2 {
			close(both)
		}
		select {
		case <-both:
			return nil, nil
		case <-time.After(5 * time.Second):
			return nil, exception.New("serial")
		}
	})
	w.server.SetParallel("meet", true)
	w.server.AddHandler("meet2", version(0)) // an unrelated change keeps the bit
	if !w.server.port("meet").parallel {
		t.Fatal("parallel bit lost")
	}
	p1, err1 := promise.Call(s, "meet", promise.None)
	p2, err2 := promise.Call(s, "meet", promise.None)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	s.Flush()
	if _, err := p1.MustClaim(); err != nil {
		t.Fatalf("parallel port ran serially: %v", err)
	}
	if _, err := p2.MustClaim(); err != nil {
		t.Fatal(err)
	}
	// Re-registering keeps the port parallel; SetParallel(false) and
	// RemoveHandler clear it.
	w.server.AddHandler("meet", version(4))
	if !w.server.port("meet").parallel {
		t.Error("re-AddHandler dropped the parallel bit")
	}
	w.server.SetParallel("meet", false)
	if w.server.port("meet").parallel {
		t.Error("SetParallel(false) not published")
	}
	w.server.SetParallel("meet", true)
	w.server.RemoveHandler("meet")
	if e := w.server.port("meet"); e.parallel || e.handler != nil {
		t.Error("RemoveHandler left an entry behind")
	}
}

// TestAddHandlerAgainstConcurrentDispatch hammers the copy-on-write table
// from several writers while calls are being dispatched through it. Run
// with -race -count=10: the table has no lock on the read side.
func TestAddHandlerAgainstConcurrentDispatch(t *testing.T) {
	w := newWorld(t, simnet.Config{})
	echo := func(call *Call) ([]any, error) { return call.Args, nil }
	ref := w.server.AddHandler("echo", echo)

	stop := make(chan struct{})
	var writers sync.WaitGroup
	for i := 0; i < 3; i++ {
		writers.Add(1)
		go func(i int) {
			defer writers.Done()
			port := fmt.Sprintf("churn%d", i)
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				w.server.AddHandler(port, echo)
				w.server.SetParallel(port, n%2 == 0)
				w.server.AddHandler("echo", echo) // replace the port under load
				w.server.RemoveHandler(port)
			}
		}(i)
	}

	var callers sync.WaitGroup
	for c := 0; c < 2; c++ {
		callers.Add(1)
		go func(c int) {
			defer callers.Done()
			s := ref.Stream(w.client.Agent(fmt.Sprintf("caller%d", c)))
			for round := 0; round < 40; round++ {
				ps := make([]*promise.Promise[int64], 16)
				for i := range ps {
					var err error
					if ps[i], err = promise.Call(s, "echo", promise.Int, int64(round*16+i)); err != nil {
						t.Error(err)
						return
					}
				}
				s.Flush()
				for i, p := range ps {
					if v, err := p.MustClaim(); err != nil || v != int64(round*16+i) {
						t.Errorf("echo = %d, %v", v, err)
						return
					}
				}
			}
		}(c)
	}
	callers.Wait()
	close(stop)
	writers.Wait()
}

// echoDispatch returns a closure that runs one call through the
// guardian's adapted handler for an echo port, exactly as a stream
// runner would: one scratch Incoming reused from call to call, bound to
// the guardian's peer (whose marshal arena the results are carved from).
func echoDispatch(tb testing.TB, arg any) func() {
	tb.Helper()
	n := simnet.New(simnet.Config{})
	g := MustNew(n, "server", stream.Options{})
	client := MustNew(n, "client", stream.Options{})
	tb.Cleanup(func() {
		client.Close()
		g.Close()
		n.Close()
	})
	g.AddHandler("echo", func(call *Call) ([]any, error) { return call.Args, nil })
	enc, err := wire.Marshal(arg)
	if err != nil {
		tb.Fatal(err)
	}
	// One real call hands a runner's Incoming to a capturing dispatcher;
	// its Clone is the scratch below. The echo port is then run directly.
	var bound stream.Incoming
	g.Peer().SetDispatcher(func(string) (stream.Handler, bool) {
		return func(in *stream.Incoming) stream.Outcome {
			bound = *in.Clone()
			return stream.NormalOutcome(nil)
		}, true
	})
	if _, err := client.Agent("a").Stream("server", DefaultGroup).RPC(context.Background(), "echo", enc); err != nil {
		tb.Fatal(err)
	}
	var in stream.Incoming
	return func() {
		h := g.port("echo").handler // the lookup a dispatched call makes
		local := in.Local
		in = bound
		in.Args, in.Local = enc, local
		if out := h(&in); !out.Normal || len(out.Payload) != len(enc) {
			tb.Fatalf("echo outcome = %+v", out)
		}
	}
}

// TestAllocsEchoDispatch pins what the guardian adds to a call: the
// boxed argument view. The results are encoded into the peer's marshal
// arena, and the lookup, the Call and the Args slice allocate nothing. (A
// string argument adds its decoded copy: strings are never views.)
func TestAllocsEchoDispatch(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector changes allocation counts")
	}
	for _, arg := range []any{make([]byte, 32), int64(1) << 20, "a string argument"} {
		dispatch := echoDispatch(t, arg)
		dispatch() // the runner's scratch is made on its first call
		got := testing.AllocsPerRun(100, dispatch)
		t.Logf("%T: %.0f allocs/dispatch", arg, got)
		if got > 2 {
			t.Errorf("echo dispatch of %T = %.0f allocs, want <= 2", arg, got)
		}
	}
}

func BenchmarkGuardianEchoDispatch(b *testing.B) {
	dispatch := echoDispatch(b, make([]byte, 32))
	dispatch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dispatch()
	}
}
