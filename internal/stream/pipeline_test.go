package stream

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"promises/internal/exception"
	"promises/internal/simnet"
	"promises/internal/wire"
)

// pipeFixture wires one client and several named server peers over one
// network, each server with its own port->handler table.
type pipeFixture struct {
	net    *simnet.Network
	client *Peer
	peers  map[string]*Peer
	mu     sync.Mutex
	tables map[string]map[string]Handler
}

func newPipeFixture(t *testing.T, opts Options, servers ...string) *pipeFixture {
	t.Helper()
	n := simnet.New(simnet.Config{})
	f := &pipeFixture{
		net:    n,
		peers:  make(map[string]*Peer),
		tables: make(map[string]map[string]Handler),
	}
	f.client = NewPeer(n.MustAddNode("client"), opts)
	for _, name := range servers {
		name := name
		p := NewPeer(n.MustAddNode(name), opts)
		f.peers[name] = p
		f.tables[name] = make(map[string]Handler)
		p.SetDispatcher(func(port string) (Handler, bool) {
			f.mu.Lock()
			defer f.mu.Unlock()
			h, ok := f.tables[name][port]
			return h, ok
		})
	}
	t.Cleanup(func() {
		f.client.Close()
		for _, p := range f.peers {
			p.Close()
		}
		n.Close()
	})
	return f
}

func (f *pipeFixture) handle(node, port string, h Handler) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.tables[node][port] = h
}

func encInt(v int64) []byte {
	return wire.AppendInt(wire.AppendHeader(nil, 1), v)
}

func decInt(t *testing.T, args []byte) int64 {
	t.Helper()
	d := wire.NewDecoder(args)
	if _, err := d.Header(); err != nil {
		t.Fatalf("args header: %v", err)
	}
	v, err := d.Int()
	if err != nil {
		t.Fatalf("args int: %v", err)
	}
	return v
}

// incHandler parses one int argument and replies with it incremented.
func incHandler(t *testing.T) Handler {
	return func(call *Incoming) Outcome {
		d := wire.NewDecoder(call.Args)
		if _, err := d.Header(); err != nil {
			return ExceptionOutcome(exception.Failure("bad args"))
		}
		v, err := d.Int()
		if err != nil {
			return ExceptionOutcome(exception.Failure("bad args"))
		}
		return NormalOutcome(encInt(v + 1))
	}
}

// issuePiped issues a pipelined stream call of port with args.
func issuePiped(t *testing.T, s *Stream, port string, args []byte, stages ...PipeStage) Pending {
	t.Helper()
	p, err := s.Issue(context.Background(), Req{Port: port, Args: plain(args), Stages: stages})
	if err != nil {
		t.Fatalf("Issue: %v", err)
	}
	return p
}

// TestPipelinedChainEndToEnd drives a 3-stage chain across three
// guardians: the call executes at ga, its result forwards to gb, then gc,
// and gc's result resolves the caller's pending directly — as a stream
// call, and as an RPC (sent at once, waited for).
func TestPipelinedChainEndToEnd(t *testing.T) {
	f := newPipeFixture(t, fastOpts(), "ga", "gb", "gc")
	for _, n := range []string{"ga", "gb", "gc"} {
		f.handle(n, "inc", incHandler(t))
	}
	s := f.client.Agent("app").Stream("ga", "g")
	stages := []PipeStage{{Node: "gb", Group: "g", Port: "inc"}, {Node: "gc", Group: "g", Port: "inc"}}
	for _, mode := range []Mode{ModeCall, ModeRPC} {
		pend, err := s.Issue(context.Background(), Req{Mode: mode, Port: "inc", Args: plain(encInt(1)), Stages: stages})
		if err != nil {
			t.Fatalf("%v: Issue: %v", mode, err)
		}
		o := claim(t, pend)
		if !o.Normal {
			t.Fatalf("%v: chain failed: %s", mode, o.Exception)
		}
		if got := decInt(t, o.Payload); got != 4 {
			t.Fatalf("%v: chain result = %d, want 4", mode, got)
		}
		pend.Release()
	}
}

// TestPipelinedExtraArgsSpliced checks the continuation's frozen extra
// arguments are appended after the previous stage's result.
func TestPipelinedExtraArgsSpliced(t *testing.T) {
	f := newPipeFixture(t, fastOpts(), "ga", "gb")
	f.handle("ga", "inc", incHandler(t))
	// add expects two ints: the spliced stage-1 result and the extra.
	f.handle("gb", "add", func(call *Incoming) Outcome {
		d := wire.NewDecoder(call.Args)
		n, err := d.Header()
		if err != nil || n != 2 {
			return ExceptionOutcome(exception.Failure("want 2 args"))
		}
		a, err1 := d.Int()
		b, err2 := d.Int()
		if err1 != nil || err2 != nil {
			return ExceptionOutcome(exception.Failure("bad args"))
		}
		return NormalOutcome(encInt(a + b))
	})
	s := f.client.Agent("app").Stream("ga", "g")
	pend := issuePiped(t, s, "inc", encInt(1),
		PipeStage{Node: "gb", Group: "g", Port: "add", Extra: encInt(40)})
	o := claim(t, pend)
	if !o.Normal {
		t.Fatalf("chain failed: %s", o.Exception)
	}
	if got := decInt(t, o.Payload); got != 42 {
		t.Fatalf("chain result = %d, want 42", got)
	}
	pend.Release()
}

// TestPipelinedExceptionPropagates: a mid-chain stage failing resolves
// the caller's promise with that exception — the chain's outcome.
func TestPipelinedExceptionPropagates(t *testing.T) {
	f := newPipeFixture(t, fastOpts(), "ga", "gb", "gc")
	f.handle("ga", "inc", incHandler(t))
	f.handle("gb", "inc", func(*Incoming) Outcome {
		return ExceptionOutcome(exception.Failure("stage blew up"))
	})
	f.handle("gc", "inc", incHandler(t))
	s := f.client.Agent("app").Stream("ga", "g")
	pend := issuePiped(t, s, "inc", encInt(1),
		PipeStage{Node: "gb", Group: "g", Port: "inc"},
		PipeStage{Node: "gc", Group: "g", Port: "inc"})
	o := claim(t, pend)
	if o.Normal {
		t.Fatalf("chain unexpectedly succeeded")
	}
	if o.Exception != exception.NameFailure {
		t.Fatalf("exception = %q, want %q", o.Exception, exception.NameFailure)
	}
	pend.Release()
}

// TestPipelinedChainReturnsHome: a chain whose last stage runs at the
// origin guardian resolves locally (no resolve message on the wire for
// the guardian leg).
func TestPipelinedChainReturnsHome(t *testing.T) {
	f := newPipeFixture(t, fastOpts(), "ga", "gb")
	f.handle("ga", "inc", incHandler(t))
	f.handle("gb", "inc", incHandler(t))
	s := f.client.Agent("app").Stream("ga", "g")
	pend := issuePiped(t, s, "inc", encInt(10),
		PipeStage{Node: "gb", Group: "g", Port: "inc"},
		PipeStage{Node: "ga", Group: "g", Port: "inc"})
	o := claim(t, pend)
	if !o.Normal || decInt(t, o.Payload) != 13 {
		t.Fatalf("outcome = %+v, want normal 13", o)
	}
	pend.Release()
}

// TestMalformedContinuationFailsCall hand-sends a request batch whose one
// call carries a garbage continuation blob. The receiver must fail the
// call without running it: answering with the handler's value would hand
// the caller stage one's result as the whole chain's.
func TestMalformedContinuationFailsCall(t *testing.T) {
	n := simnet.New(simnet.Config{})
	defer n.Close()
	raw := n.MustAddNode("client")
	server := NewPeer(n.MustAddNode("ga"), fastOpts())
	defer server.Close()
	var ran atomic.Int32
	server.SetDispatcher(func(string) (Handler, bool) {
		return func(call *Incoming) Outcome { ran.Add(1); return NormalOutcome(encInt(2)) }, true
	})
	msg := encodeRequestBatch(requestBatch{Agent: "app", Group: "g", Incarnation: 1,
		Requests: []request{{Seq: 1, Port: "inc", Mode: ModeCall, Args: encInt(1), Trace: 1,
			Cont: []byte("not a continuation")}}})
	if err := raw.Send("ga", msg); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for {
		in, err := raw.Recv(ctx)
		if err != nil {
			t.Fatalf("no reply for the call: %v", err)
		}
		kind, _, pb, _, err := decodeMessage(in.Payload)
		if err != nil || kind != kindReplyBatch || len(pb.Replies) == 0 {
			continue // an ack ahead of the reply
		}
		if o := pb.Replies[0].Outcome; o.Normal || o.Err().StringArg(0) != "malformed continuation" {
			t.Fatalf("outcome = %+v, want failure(malformed continuation)", o)
		}
		break
	}
	if runs := ran.Load(); runs != 0 {
		t.Errorf("the handler ran %d times for a call whose continuation is garbage", runs)
	}
}
