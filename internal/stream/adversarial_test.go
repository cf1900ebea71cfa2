package stream

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"promises/internal/metrics"
	"promises/internal/simnet"
)

// TestExactlyOnceUnderLossDupReorder is the adversarial delivery test:
// 10% loss, 15% duplication, and jitter-induced reordering all at once.
// Every call must execute exactly once, in call order, and every promise
// must resolve with the right reply.
func TestExactlyOnceUnderLossDupReorder(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		seed := seed
		t.Run(time.Duration(seed).String(), func(t *testing.T) {
			t.Parallel()
			cfg := simnet.Config{
				LossRate: 0.10,
				DupRate:  0.15,
				Jitter:   300 * time.Microsecond,
				Seed:     seed,
			}
			opts := Options{MaxBatch: 4, MaxBatchDelay: 500 * time.Microsecond,
				RTO: 4 * time.Millisecond, MaxRetries: 100}
			f := newFixture(t, cfg, opts)

			var mu sync.Mutex
			var order []int
			counts := make(map[int]int)
			f.handle("rec", func(call *Incoming) Outcome {
				v := int(call.Args[0]) | int(call.Args[1])<<8
				mu.Lock()
				order = append(order, v)
				counts[v]++
				mu.Unlock()
				return NormalOutcome(call.Args)
			})

			s := f.client.Agent("a1").Stream("server", "g1")
			const n = 150
			ps := make([]Pending, n)
			for i := range ps {
				p, err := s.Call("rec", []byte{byte(i), byte(i >> 8)})
				if err != nil {
					t.Fatal(err)
				}
				ps[i] = p
			}
			for i, p := range ps {
				o := claim(t, p)
				if !o.Normal {
					t.Fatalf("call %d outcome = %+v", i, o)
				}
				if got := int(o.Payload[0]) | int(o.Payload[1])<<8; got != i {
					t.Fatalf("call %d reply = %d", i, got)
				}
			}
			mu.Lock()
			defer mu.Unlock()
			if len(order) != n {
				t.Fatalf("executed %d calls, want %d", len(order), n)
			}
			for i, v := range order {
				if v != i {
					t.Fatalf("execution order[%d] = %d", i, v)
				}
			}
			for v, c := range counts {
				if c != 1 {
					t.Fatalf("call %d executed %d times", v, c)
				}
			}
			if dup := f.net.Stats().MessagesDuplicated; dup == 0 {
				t.Log("no duplicates were injected at this seed; weak run")
			}
		})
	}
}

// TestSynchUnderAdversarialDelivery: synch must eventually return nil
// when all calls succeed, despite loss and duplication.
func TestSynchUnderAdversarialDelivery(t *testing.T) {
	cfg := simnet.Config{LossRate: 0.1, DupRate: 0.1, Jitter: 200 * time.Microsecond, Seed: 99}
	opts := Options{MaxBatch: 4, MaxBatchDelay: 500 * time.Microsecond,
		RTO: 4 * time.Millisecond, MaxRetries: 100}
	f := newFixture(t, cfg, opts)
	f.handle("echo", echoHandler)
	s := f.client.Agent("a1").Stream("server", "g1")
	for i := 0; i < 60; i++ {
		if _, err := s.Call("echo", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := s.Synch(ctx); err != nil {
		t.Fatalf("Synch = %v", err)
	}
}

// TestExecutorBacklogPressure parks a deep backlog behind a first call
// that blocks the stream's serial runner: every received call waits in
// the stream's seq ring, and runs exactly once, in call order, once the
// first returns.
func TestExecutorBacklogPressure(t *testing.T) {
	opts := Options{MaxBatch: 256, MaxBatchDelay: 500 * time.Microsecond,
		RTO: 20 * time.Millisecond, MaxRetries: 50}
	f := newFixture(t, simnet.Config{}, opts)

	release := make(chan struct{})
	var mu sync.Mutex
	var order []int
	f.handle("step", func(call *Incoming) Outcome {
		v := int(call.Args[0]) | int(call.Args[1])<<8
		if v == 0 {
			<-release // block the runner with everything else queued
		}
		mu.Lock()
		order = append(order, v)
		mu.Unlock()
		return NormalOutcome(call.Args)
	})

	s := f.client.Agent("a1").Stream("server", "g1")
	const n = 1500 // six batches deep
	ps := make([]Pending, n)
	for i := range ps {
		p, err := s.Call("step", []byte{byte(i), byte(i >> 8)})
		if err != nil {
			t.Fatal(err)
		}
		ps[i] = p
	}
	s.Flush()
	time.Sleep(10 * time.Millisecond) // let the backlog pile up
	close(release)

	for i, p := range ps {
		o := claim(t, p)
		if !o.Normal {
			t.Fatalf("call %d outcome = %+v", i, o)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != n {
		t.Fatalf("executed %d calls", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d", i, v)
		}
	}
}

// TestReceiverAcksWhatItHolds: while a serial handler blocks with 2 000
// calls behind it, the receiver acknowledges every call it has received,
// run or not, so the sender retransmits none of them, however many RTOs
// pass; the calls then run in call order. The clock is virtual and moves
// only when the test advances it, so a loaded host cannot make an RTO
// run out before the ack arrives.
func TestReceiverAcksWhatItHolds(t *testing.T) {
	reg := metrics.NewRegistry()
	opts := Options{MaxBatchDelay: 10 * time.Millisecond, RTO: 10 * time.Millisecond, Metrics: reg}
	f, vclk := newVirtualFixture(t, simnet.Config{}, opts)
	held, release := newGate(t)
	var mu sync.Mutex
	var order []int
	f.handle("step", func(call *Incoming) Outcome {
		v := int(call.Args[0]) | int(call.Args[1])<<8
		if v == 0 {
			<-held
		}
		mu.Lock()
		order = append(order, v)
		mu.Unlock()
		return NormalOutcome(call.Args)
	})

	s := f.client.Agent("a1").Stream("server", "g1")
	vclk.SetAutoAdvance(false)
	const n = 2000
	ps := make([]Pending, n)
	for i := range ps {
		p, err := s.Call("step", []byte{byte(i), byte(i >> 8)})
		if err != nil {
			t.Fatal(err)
		}
		ps[i] = p
	}
	s.Flush()
	waitFor(t, "the receiver's ack frontier never covered every call", func() bool {
		f.server.mu.Lock()
		r := f.server.recvs[streamKey{"client", "a1", "server", "g1"}]
		f.server.mu.Unlock()
		if r == nil {
			return false
		}
		r.mu.Lock()
		defer r.mu.Unlock()
		return r.expected > n
	})
	vclk.Advance(opts.RTO / 2) // one tick: the receiver acks what it holds
	waitFor(t, "the ack never reached the sender", func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.lane.items) == s.lane.unsent
	})
	for i := 0; i < 20; i++ { // ten more RTOs
		vclk.Advance(opts.RTO / 2)
		vclk.Settle()
	}
	release()
	vclk.SetAutoAdvance(true)
	for i, p := range ps {
		if o := claim(t, p); !o.Normal {
			t.Fatalf("call %d outcome = %+v", i, o)
		}
	}
	if got := reg.Snapshot().Counters["stream_retransmits_total"]; got != 0 {
		t.Errorf("stream_retransmits_total = %d; the receiver held those calls", got)
	}
	mu.Lock()
	defer mu.Unlock()
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d", i, v)
		}
	}
	if len(order) != n {
		t.Fatalf("executed %d calls", len(order))
	}
}

// TestIdleStreamsHoldNoGoroutines: a stream is a record, not a
// goroutine. After one RPC on each of 1 000 streams, the two peers hold
// no more goroutines than a per-peer constant (each parks at most
// execWorkers idle runners), and a stream pair costs a few rings' worth
// of heap.
func TestIdleStreamsHoldNoGoroutines(t *testing.T) {
	const n = 1000
	f := newFixture(t, simnet.Config{}, fastOpts())
	f.handle("echo", echoHandler)
	ctx := context.Background()
	rpc := func(s *Stream) {
		if _, err := s.RPC(ctx, "echo", nil); err != nil {
			t.Fatal(err)
		}
	}
	rpc(f.client.Agent("warm").Stream("server", "g1"))

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	base := runtime.NumGoroutine()
	streams := make([]*Stream, n)
	for i := range streams {
		streams[i] = f.client.Agent(fmt.Sprint("a", i)).Stream("server", "g1")
		rpc(streams[i])
	}

	const bound = 2 * (execWorkers + 4) // per peer: parked runners, and slack
	delta := func() int { return runtime.NumGoroutine() - base }
	for deadline := time.Now().Add(2 * time.Second); delta() > bound && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if d := delta(); d > bound {
		t.Fatalf("%d idle stream pairs hold %d goroutines (bound %d, whatever the count)", n, d, bound)
	}
	if raceEnabled {
		return // the race detector's shadow memory swells the heap
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perPair := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / n
	t.Logf("%d B of heap per idle stream pair", perPair)
	if perPair > 32<<10 {
		t.Errorf("an idle stream pair costs %d B of heap, want <= 32 KiB", perPair)
	}
	runtime.KeepAlive(streams)
}
