package stream

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"promises/internal/simnet"
)

// Tests for the pooled-handle discipline: Pending cells recycled through
// a generation-guarded pool, Incoming scratch poisoned on retire.

func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("expected panic %q, got none", want)
		}
		if msg, ok := r.(string); !ok || msg != want {
			t.Fatalf("panic = %v, want %q", r, want)
		}
	}()
	f()
}

// TestPendingReleaseStaleHandlePanics: after Release recycles the cell, any
// further use of the handle must fail loudly — the cell may already back a
// different call, and silently aliasing it would corrupt that call.
func TestPendingReleaseStaleHandlePanics(t *testing.T) {
	f := newFixture(t, simnet.Config{}, fastOpts())
	f.handle("echo", echoHandler)
	s := f.client.Agent("a1").Stream("server", "g1")

	p, err := s.Call("echo", []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	s.Flush()
	claim(t, p)
	p.Release()

	mustPanic(t, "stream: use of released Pending handle", func() { p.Ready() })
	mustPanic(t, "stream: use of released Pending handle", func() { p.Get() })
	// A second Release trips the same generation guard: the cell was
	// recycled (generation bumped) by the first.
	mustPanic(t, "stream: use of released Pending handle", func() { p.Release() })
}

// TestPendingReleaseUnresolvedPanics: Release is the caller's statement
// that the outcome has been claimed; releasing a still-blocked call would
// let the transport resolve into a recycled cell.
func TestPendingReleaseUnresolvedPanics(t *testing.T) {
	f := newFixture(t, simnet.Config{}, fastOpts())
	f.handle("echo", echoHandler)
	s := f.client.Agent("a1").Stream("server", "g1")

	gate := make(chan struct{})
	f.handle("slow", func(call *Incoming) Outcome {
		<-gate
		return NormalOutcome(nil)
	})
	p, err := s.Call("slow", nil)
	if err != nil {
		t.Fatal(err)
	}
	mustPanic(t, "stream: Release of an unresolved Pending", func() { p.Release() })
	close(gate)
	claim(t, p)
	p.Release()
}

// TestPendingZeroValuePanics: the zero Pending is not a call.
func TestPendingZeroValuePanics(t *testing.T) {
	var p Pending
	if p.Valid() {
		t.Fatal("zero Pending reports Valid")
	}
	mustPanic(t, "stream: use of zero-value Pending", func() { p.Ready() })
}

// TestPendingReusedCellNewGeneration: a released cell recycled into a new
// call gets a new generation, so the old handle stays invalid even though
// the pointer it snapshotted is live again.
func TestPendingReusedCellNewGeneration(t *testing.T) {
	f := newFixture(t, simnet.Config{}, fastOpts())
	f.handle("echo", echoHandler)
	s := f.client.Agent("a1").Stream("server", "g1")

	old, err := s.Call("echo", []byte("a"))
	if err != nil {
		t.Fatal(err)
	}
	s.Flush()
	claim(t, old)
	old.Release()

	// Drive enough calls that the pool almost surely re-issues old's cell.
	for i := 0; i < 64; i++ {
		p, err := s.Call("echo", []byte("b"))
		if err != nil {
			t.Fatal(err)
		}
		s.Flush()
		claim(t, p)
		p.Release()
	}
	mustPanic(t, "stream: use of released Pending handle", func() { old.Ready() })
}

// TestIncomingRetainedPastReturnPanics: the Incoming a handler receives is
// pool-owned scratch, valid only for the duration of the handler. A handler
// that squirrels the pointer away sees poisoned zero fields afterwards, and
// any method use panics instead of corrupting the next call on the worker.
func TestIncomingRetainedPastReturnPanics(t *testing.T) {
	f := newFixture(t, simnet.Config{}, fastOpts())
	retained := make(chan *Incoming, 1)
	f.handle("keep", func(call *Incoming) Outcome {
		retained <- call
		return NormalOutcome(nil)
	})
	s := f.client.Agent("a1").Stream("server", "g1")
	p, err := s.Call("keep", []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	s.Flush()
	claim(t, p)
	p.Release()

	call := <-retained
	deadline := time.Now().Add(5 * time.Second)
	for !call.retired {
		if time.Now().After(deadline) {
			t.Fatal("Incoming not retired after handler return")
		}
		time.Sleep(time.Millisecond)
	}
	if call.Port != "" || call.Seq != 0 || call.Args != nil {
		t.Fatalf("retired Incoming keeps data: %+v", call)
	}
	mustPanic(t, "stream: Incoming used after its handler returned (Clone to retain)",
		func() { call.BreakStream(nil) })
	mustPanic(t, "stream: Clone of an Incoming whose handler already returned",
		func() { call.Clone() })
}

// TestIncomingCloneRetention: Clone inside the handler is the sanctioned
// way to retain a call — the clone owns copied Args and survives retire.
func TestIncomingCloneRetention(t *testing.T) {
	f := newFixture(t, simnet.Config{}, fastOpts())
	cloned := make(chan *Incoming, 1)
	f.handle("keep", func(call *Incoming) Outcome {
		cloned <- call.Clone()
		return NormalOutcome(nil)
	})
	s := f.client.Agent("a1").Stream("server", "g1")
	p, err := s.Call("keep", []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	s.Flush()
	claim(t, p)
	p.Release()

	c := <-cloned
	if c.Port != "keep" || c.Seq != 1 || !bytes.Equal(c.Args, []byte("payload")) {
		t.Fatalf("clone lost data: %+v", c)
	}
}

// TestParallelPortConcurrentCallers drives one stream from many
// goroutines against a parallel port run on the worker pool: pooled
// Pending cells and per-worker Incoming scratch recycle across
// goroutines, so this is their race-detector workout.
func TestParallelPortConcurrentCallers(t *testing.T) {
	opts := Options{MaxBatch: 8, MaxBatchDelay: time.Millisecond,
		RTO: 50 * time.Millisecond, MaxRetries: 8}
	f := newFixture(t, simnet.Config{}, opts)
	f.server.SetParallelPorts(func(port string) bool { return port == "echo" })
	f.handle("echo", echoHandler)
	s := f.client.Agent("a1").Stream("server", "g1")

	const callers, perCaller = 8, 50
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perCaller; i++ {
				p, err := s.Call("echo", []byte{byte(g), byte(i)})
				if err != nil {
					errs <- err
					return
				}
				s.Flush()
				o, err := p.Wait(ctx)
				if err != nil {
					errs <- err
					return
				}
				if !o.Normal || !bytes.Equal(o.Payload, []byte{byte(g), byte(i)}) {
					errs <- fmt.Errorf("seq %d: bad outcome %+v", p.Seq, o)
					return
				}
				p.Release()
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
