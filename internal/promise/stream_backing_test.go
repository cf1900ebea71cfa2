package promise

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"promises/internal/exception"
	"promises/internal/simnet"
	"promises/internal/stream"
	"promises/internal/wire"
)

// gated installs a handler that signals started and then waits for gate
// before answering with outcome.
func gated(f *fixture, port string, outcome stream.Outcome) (started, gate chan struct{}) {
	started, gate = make(chan struct{}), make(chan struct{})
	f.handle(port, func(*stream.Incoming) stream.Outcome {
		close(started)
		<-gate
		return outcome
	})
	return started, gate
}

func isClosed(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// TestStreamPromiseSameBeforeAndAfterRelease walks a stream-backed
// promise through its three states — blocked, resolved with the
// transport cell still held, settled with the cell back in its pool — and
// checks that Ready, Done, TryClaim, Exception and Claim answer the same
// in the last two, for a normal and an exceptional outcome.
func TestStreamPromiseSameBeforeAndAfterRelease(t *testing.T) {
	normal, _ := wire.Marshal(int64(42))
	for _, c := range []struct {
		name    string
		outcome stream.Outcome
		want    int64
		exc     string
	}{
		{"normal", stream.NormalOutcome(normal), 42, ""},
		{"exception", stream.ExceptionOutcome(exception.New("no_such_user", "bob")), 0, "no_such_user"},
	} {
		t.Run(c.name, func(t *testing.T) {
			f := newFixture(t, simnet.Config{})
			started, gate := gated(f, "op", c.outcome)
			s := f.stream()
			p, err := Call(s, "op", Int)
			if err != nil {
				t.Fatal(err)
			}
			s.Flush()
			<-started

			// Blocked. A cancelled claim leaves the promise claimable.
			done := p.Done()
			if p.Ready() || isClosed(done) || p.Exception() != nil {
				t.Fatal("blocked promise reads as ready")
			}
			if _, _, ok := p.TryClaim(); ok {
				t.Fatal("TryClaim on a blocked promise")
			}
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if _, err := p.Claim(ctx); !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled Claim = %v", err)
			}
			if p.Fulfill(1) || p.Signal(exception.Failure("x")) {
				t.Fatal("a stream-backed promise accepted a direct resolution")
			}

			// Resolved, cell not yet claimed: wait on the channel only.
			close(gate)
			<-done
			if p.freed.Load() || p.settled.Load() {
				t.Fatal("waiting on Done settled the promise")
			}
			check := func(when string) {
				t.Helper()
				if !p.Ready() || !isClosed(p.Done()) {
					t.Errorf("%s: not ready", when)
				}
				v, err, ok := p.TryClaim()
				if !ok || v != c.want || !isException(err, c.exc) {
					t.Errorf("%s: TryClaim = %d, %v, %v", when, v, err, ok)
				}
				if ex := p.Exception(); (ex == nil) != (c.exc == "") {
					t.Errorf("%s: Exception = %v", when, ex)
				}
				if v, err := p.Claim(context.Background()); v != c.want || !isException(err, c.exc) {
					t.Errorf("%s: Claim = %d, %v", when, v, err)
				}
			}
			if !p.Ready() {
				t.Fatal("resolved promise not ready")
			}
			if p.freed.Load() {
				t.Fatal("polling released the cell")
			}
			check("first claim")
			if !p.freed.Load() {
				t.Fatal("claiming did not release the transport cell")
			}
			check("after release")
			if !isClosed(done) {
				t.Error("the channel handed out while blocked never closed")
			}
		})
	}
}

func isException(err error, name string) bool {
	if name == "" {
		return err == nil
	}
	return exception.Is(err, name)
}

// TestStreamPromiseConcurrentUse: claimers, pollers, Done-waiters and
// subscribers share one promise while it resolves. Every one of them sees
// the same value, and the transport cell is released exactly once, after
// the last of them has left it — stream.Pending panics on a use after
// Release or a second Release, so a lapse fails loudly. Run with -race.
func TestStreamPromiseConcurrentUse(t *testing.T) {
	f := newFixture(t, simnet.Config{})
	f.handle("double", doubleHandler)
	s := f.stream()
	for round := 0; round < 50; round++ {
		p, err := Call(s, "double", Int, int64(round))
		if err != nil {
			t.Fatal(err)
		}
		want := int64(2 * round)
		var wg sync.WaitGroup
		use := func(f func() (int64, error)) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if v, err := f(); err != nil || v != want {
					t.Errorf("round %d: %d, %v; want %d", round, v, err, want)
				}
			}()
		}
		for i := 0; i < 3; i++ {
			use(p.MustClaim)
			use(func() (int64, error) {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				return p.Claim(ctx)
			})
			use(func() (int64, error) {
				for !p.Ready() {
					runtime.Gosched()
				}
				v, err, _ := p.TryClaim()
				return v, err
			})
			use(func() (int64, error) {
				<-p.Done()
				return p.MustClaim()
			})
			use(func() (int64, error) {
				return Then(p, func(v int64) (int64, error) { return v, nil }).MustClaim()
			})
		}
		s.Flush()
		wg.Wait()
		if !p.freed.Load() || p.users.Load() != 0 {
			t.Fatalf("round %d: cell freed = %v with %d users", round, p.freed.Load(), p.users.Load())
		}
	}
}

// TestStreamPromiseSubscribersShareOneWaiter: however many Then/Catch
// subscriptions attach to a blocked stream-backed promise, it starts one
// waiter goroutine, and they all run when the call resolves.
func TestStreamPromiseSubscribersShareOneWaiter(t *testing.T) {
	f := newFixture(t, simnet.Config{})
	payload, _ := wire.Marshal(int64(5))
	started, gate := gated(f, "op", stream.NormalOutcome(payload))
	s := f.stream()
	p, err := Call(s, "op", Int)
	if err != nil {
		t.Fatal(err)
	}
	s.Flush()
	<-started

	before := runtime.NumGoroutine()
	var outs []*Promise[int64]
	for i := 0; i < 8; i++ {
		outs = append(outs, Then(p, func(v int64) (int64, error) { return v + 1, nil }))
		outs = append(outs, Catch(p, "nope", func(*exception.Exception) (int64, error) { return 0, nil }))
	}
	if grew := runtime.NumGoroutine() - before; grew > 1 {
		t.Fatalf("16 subscriptions started %d goroutines, want at most 1", grew)
	}
	close(gate)
	for i, out := range outs {
		want := int64(6 - i%2) // Then adds one, Catch passes the value through
		if v, err := out.MustClaim(); err != nil || v != want {
			t.Fatalf("subscriber %d = %d, %v; want %d", i, v, err, want)
		}
	}
	// A subscription after the fact runs inline.
	if q := Then(p, func(v int64) (int64, error) { return v, nil }); !q.Ready() {
		t.Error("Then on a settled promise did not run inline")
	}
}

// callClaimWindow returns one closed-loop turn of the paper's loop —
// window calls, a flush, every claim in order — over a simnet peer pair
// whose handler answers with a constant small integer, so that what is
// counted is the promise layer's own cost: the boxed argument and the
// promise (the encoding is a share of a marshal arena chunk).
func callClaimWindow(tb testing.TB, window int) func() {
	tb.Helper()
	n := simnet.New(simnet.Config{})
	client := stream.NewPeer(n.MustAddNode("client"), stream.Options{MaxBatch: 16})
	server := stream.NewPeer(n.MustAddNode("server"), stream.Options{MaxBatch: 16})
	reply, _ := wire.Marshal(int64(7))
	handler := func(*stream.Incoming) stream.Outcome { return stream.NormalOutcome(reply) }
	server.SetDispatcher(func(string) (stream.Handler, bool) { return handler, true })
	tb.Cleanup(func() {
		client.Close()
		server.Close()
		n.Close()
	})
	s := client.Agent("alloc").Stream("server", "g")
	arg := make([]byte, 32)
	ps := make([]*Promise[int64], window)
	ctx := context.Background()
	return func() {
		for i := range ps {
			var err error
			if ps[i], err = Call(s, "op", Int, arg); err != nil {
				tb.Fatalf("Call: %v", err)
			}
		}
		s.Flush()
		for _, p := range ps {
			if v, err := p.Claim(ctx); err != nil || v != 7 {
				tb.Fatalf("Claim = %d, %v", v, err)
			}
		}
	}
}

// TestAllocsCallClaim pins promise.Call + Claim at two allocations a
// call: the argument boxed into the variadic list and the promise itself.
// The encoding (which the stream keeps until it is acknowledged) is
// carved from the peer's marshal arena, a chunk per hundred-odd calls. No
// source adapter, no decode closure, no done channel, no result slice.
// The remainder is per batch, as in the stream layer's own ceiling.
func TestAllocsCallClaim(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector changes allocation counts")
	}
	const window = 64
	run := callClaimWindow(t, window)
	run() // warm pools, rings, and the intern table
	perCall := testing.AllocsPerRun(20, run) / window
	t.Logf("measured %.2f allocs/call (must truncate to 2)", perCall)
	if perCall >= 3 {
		t.Errorf("Call+Claim allocs/call = %.2f, want < 3 (2 allocs/op)", perCall)
	}
}

func BenchmarkPromiseCallClaim(b *testing.B) {
	const window = 256
	run := callClaimWindow(b, window)
	run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += window {
		run()
	}
}
