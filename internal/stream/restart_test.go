package stream

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"promises/internal/exception"
	"promises/internal/simnet"
)

// TestReceiverAdoptsNewIncarnation covers the receiver-side reset path:
// calls are delivered on incarnation 1, the sender restarts the stream,
// and subsequent calls on incarnation 2 reach the SAME receiving stream,
// which must adopt the new incarnation with fresh sequencing state.
func TestReceiverAdoptsNewIncarnation(t *testing.T) {
	var mu sync.Mutex
	var seen []struct {
		seq uint64
		val byte
	}
	f, _ := newVirtualFixture(t, simnet.Config{}, fastOpts())
	f.handle("rec", func(call *Incoming) Outcome {
		mu.Lock()
		seen = append(seen, struct {
			seq uint64
			val byte
		}{call.Seq, call.Args[0]})
		mu.Unlock()
		return NormalOutcome(call.Args)
	})

	s := f.client.Agent("a1").Stream("server", "g1")
	// Incarnation 1: two calls, completed.
	for i := byte(1); i <= 2; i++ {
		p, err := s.Call("rec", []byte{i})
		if err != nil {
			t.Fatal(err)
		}
		s.Flush()
		if o := claim(t, p); !o.Normal {
			t.Fatalf("inc1 call %d = %+v", i, o)
		}
	}

	s.Restart()
	if got := s.Incarnation(); got != 2 {
		t.Fatalf("incarnation = %d", got)
	}

	// Incarnation 2: sequence numbers restart at 1 and the calls execute.
	p, err := s.Call("rec", []byte{3})
	if err != nil {
		t.Fatal(err)
	}
	s.Flush()
	if o := claim(t, p); !o.Normal || o.Payload[0] != 3 {
		t.Fatalf("inc2 call = %+v", o)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 3 {
		t.Fatalf("executed %d calls", len(seen))
	}
	if seen[0].seq != 1 || seen[1].seq != 2 {
		t.Fatalf("inc1 seqs = %+v", seen[:2])
	}
	if seen[2].seq != 1 || seen[2].val != 3 {
		t.Fatalf("inc2 call = %+v; receiver did not adopt the new incarnation", seen[2])
	}
}

// TestStaleIncarnationBatchIgnored: after adoption, a delayed batch from
// the old incarnation must be discarded, not re-executed.
func TestStaleIncarnationBatchIgnored(t *testing.T) {
	var mu sync.Mutex
	count := map[byte]int{}
	f, clk := newVirtualFixture(t, simnet.Config{}, fastOpts())
	f.handle("rec", func(call *Incoming) Outcome {
		mu.Lock()
		count[call.Args[0]]++
		mu.Unlock()
		return NormalOutcome(call.Args)
	})
	s := f.client.Agent("a1").Stream("server", "g1")
	p, err := s.Call("rec", []byte{1})
	if err != nil {
		t.Fatal(err)
	}
	s.Flush()
	claim(t, p)
	s.Restart()
	p2, err := s.Call("rec", []byte{2})
	if err != nil {
		t.Fatal(err)
	}
	s.Flush()
	claim(t, p2)

	// Replay the old incarnation's batch by hand: it must be ignored.
	stale := encodeRequestBatch(requestBatch{
		Agent: "a1", Group: "g1", Incarnation: 1,
		Requests: []request{{Seq: 1, Port: "rec", Mode: ModeCall, Args: []byte{1}}},
	}, nil)
	node, _ := f.net.Node("client")
	if err := node.Send("server", stale); err != nil {
		t.Fatal(err)
	}
	clk.Sleep(5 * time.Millisecond) // virtual: spans the replay's delivery
	mu.Lock()
	defer mu.Unlock()
	if count[1] != 1 {
		t.Fatalf("stale incarnation call executed %d times", count[1])
	}
}

// TestNewIncarnationAfterCloseReturns: a batch of a new incarnation that
// reaches a receiving stream its peer has already closed resets it and
// returns. Draining a closed queue used to spin forever, and Close waited
// on that spin.
func TestNewIncarnationAfterCloseReturns(t *testing.T) {
	n := simnet.New(simnet.Config{})
	defer n.Close()
	p := NewPeer(n.MustAddNode("server"), fastOpts())
	defer p.Close()
	r := newRStream(p, streamKey{senderNode: "client", agent: "a1", recvNode: "server", group: "g1"}, 1, p.opts)
	r.close()
	done := make(chan struct{})
	go func() {
		r.handleRequestBatch(&requestBatch{Agent: "a1", Group: "g1", Incarnation: 2})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("a new incarnation's batch on a closed receiving stream never returned")
	}
}

func TestAccessors(t *testing.T) {
	f := newFixture(t, simnet.Config{}, fastOpts())
	f.handle("echo", echoHandler)
	if f.client.Endpoint() == nil || f.client.Endpoint().Name() != "client" {
		t.Fatal("Peer.Endpoint broken")
	}
	// The deprecated Node accessor and Endpoint agree, and the concrete
	// backend is recoverable by assertion.
	if _, ok := f.client.Endpoint().(*simnet.Node); !ok {
		t.Fatal("Endpoint lost the concrete *simnet.Node")
	}
	if f.client.Options().MaxBatch != 8 {
		t.Fatalf("Options = %+v", f.client.Options())
	}
	a := f.client.Agent("a1")
	if a.Name() != "a1" {
		t.Fatalf("Agent.Name = %q", a.Name())
	}
	s := a.Stream("server", "g1")
	if !strings.Contains(s.Key(), "client/a1->server/g1") {
		t.Fatalf("Key = %q", s.Key())
	}
	p, err := s.Call("echo", []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	s.Flush()
	<-p.Done() // Done channel closes on resolution
	if o := p.Get(); !o.Normal {
		t.Fatalf("Get = %+v", o)
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.MaxBatch != 16 || o.MaxBatchDelay != 2*time.Millisecond ||
		o.RTO != 25*time.Millisecond || o.MaxRetries != 8 {
		t.Fatalf("defaults = %+v", o)
	}
}

func TestOutcomeErrOnNormal(t *testing.T) {
	if NormalOutcome(nil).Err() != nil {
		t.Fatal("Err on normal outcome")
	}
	o := ExceptionOutcome(exception.New("e", "arg"))
	ex := o.Err()
	if ex == nil || ex.Name != "e" || ex.StringArg(0) != "arg" {
		t.Fatalf("Err = %v", ex)
	}
	if _, err := o.Results(); !exception.Is(err, "e") {
		t.Fatalf("Results on exceptional outcome = %v", err)
	}
}

func TestWaitContextCancel(t *testing.T) {
	f := newFixture(t, simnet.Config{}, fastOpts())
	f.net.Partition("client", "server")
	s := f.client.Agent("a1").Stream("server", "g1")
	p, err := s.Call("echo", nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel()
	if _, err := p.Wait(ctx); err == nil {
		t.Fatal("Wait should fail when the context ends first")
	}
}
