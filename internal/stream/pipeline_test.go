package stream

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"promises/internal/exception"
	"promises/internal/metrics"
	"promises/internal/simnet"
	"promises/internal/wire"
)

// pipeFixture wires one client and several named server peers over one
// network, each server with its own port->handler table and metrics
// registry. Every peer's endpoint counts the message kinds it sends.
type pipeFixture struct {
	net    *simnet.Network
	client *Peer
	peers  map[string]*Peer
	regs   map[string]*metrics.Registry
	kinds  [8]atomic.Int64 // messages sent, by wire kind (0: unreadable)
	mu     sync.Mutex
	tables map[string]map[string]Handler
}

// kindTap is a simnet node that counts the kinds of the messages it sends.
type kindTap struct {
	*simnet.Node
	kinds *[8]atomic.Int64
}

func (e kindTap) Send(to string, payload []byte) error {
	d := wire.NewDecoder(payload)
	kind := int64(0)
	if _, err := d.Header(); err == nil {
		if k, err := d.Int(); err == nil && k > 0 && k < int64(len(e.kinds)) {
			kind = k
		}
	}
	e.kinds[kind].Add(1)
	return e.Node.Send(to, payload)
}

func newPipeFixture(t *testing.T, cfg simnet.Config, opts Options, servers ...string) *pipeFixture {
	t.Helper()
	n := simnet.New(cfg)
	f := &pipeFixture{
		net:    n,
		peers:  make(map[string]*Peer),
		regs:   make(map[string]*metrics.Registry),
		tables: make(map[string]map[string]Handler),
	}
	f.client = NewPeer(kindTap{n.MustAddNode("client"), &f.kinds}, opts)
	for _, name := range servers {
		name := name
		popts := opts
		popts.Metrics = metrics.NewRegistry()
		f.regs[name] = popts.Metrics
		p := NewPeer(kindTap{n.MustAddNode(name), &f.kinds}, popts)
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
// and gc's result goes back to ga, which replies with it — as a stream
// call, and as an RPC (sent at once, waited for).
func TestPipelinedChainEndToEnd(t *testing.T) {
	f := newPipeFixture(t, simnet.Config{}, fastOpts(), "ga", "gb", "gc")
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
	f := newPipeFixture(t, simnet.Config{}, fastOpts(), "ga", "gb")
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
	f := newPipeFixture(t, simnet.Config{}, fastOpts(), "ga", "gb", "gc")
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
// origin guardian resolves there locally, with no resolution send.
func TestPipelinedChainReturnsHome(t *testing.T) {
	f := newPipeFixture(t, simnet.Config{}, fastOpts(), "ga", "gb")
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
	for _, g := range []string{"ga", "gb"} {
		if n := f.regs[g].Counter("stream_calls_enqueued_total").Value(); n != 1 {
			t.Errorf("%s enqueued %d calls, want 1: its forward, and no resolution send", g, n)
		}
	}
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

// TestPipelinedChainsExactlyOnceUnderLoss runs 200 three-stage chains
// across ga, gb and gc over a network that loses, duplicates and reorders
// datagrams. The forwards and the resolutions ride ~pipe streams, so the
// stream's retransmission and duplicate suppression are all that keep a
// chain alive: every promise must resolve normally with its chain's value,
// every stage must run exactly once per chain, and promise i+1 may be
// ready only when promise i is.
func TestPipelinedChainsExactlyOnceUnderLoss(t *testing.T) {
	cfg := simnet.Config{LossRate: 0.05, DupRate: 0.02, Jitter: 200 * time.Microsecond, Seed: 7}
	opts := Options{MaxBatch: 8, MaxBatchDelay: 500 * time.Microsecond,
		RTO: 4 * time.Millisecond, MaxRetries: 100}
	f := newPipeFixture(t, cfg, opts, "ga", "gb", "gc")
	var mu sync.Mutex
	runs := make(map[string]map[int64]int)
	for _, g := range []string{"ga", "gb", "gc"} {
		g := g
		runs[g] = make(map[int64]int)
		inc := incHandler(t)
		f.handle(g, "inc", func(call *Incoming) Outcome {
			mu.Lock()
			runs[g][decInt(t, call.Args)]++
			mu.Unlock()
			return inc(call)
		})
	}
	// Chain i enters ga with 10i, gb with 10i+1 and gc with 10i+2, and
	// resolves with 10i+3.
	const n = 200
	s := f.client.Agent("app").Stream("ga", "g")
	stages := []PipeStage{{Node: "gb", Group: "g", Port: "inc"}, {Node: "gc", Group: "g", Port: "inc"}}
	ps := make([]Pending, n)
	for i := range ps {
		ps[i] = issuePiped(t, s, "inc", encInt(int64(10*i)), stages...)
		if i%8 == 7 {
			s.Flush()
		}
	}
	s.Flush()
	for i, p := range ps {
		// Readiness is monotone, so scanning from the newest promise down
		// catches any promise that was ready before an older one.
		newerReady := -1
		for j := n - 1; j >= 0; j-- {
			if ps[j].Ready() {
				if newerReady < 0 {
					newerReady = j
				}
			} else if newerReady >= 0 {
				t.Fatalf("promise %d was ready before promise %d", newerReady, j)
			}
		}
		o := claim(t, p)
		if !o.Normal {
			t.Fatalf("chain %d: %s(%s)", i, o.Exception, o.Err().StringArg(0))
		}
		if got := decInt(t, o.Payload); got != int64(10*i+3) {
			t.Fatalf("chain %d = %d, want %d", i, got, 10*i+3)
		}
	}
	for _, p := range ps {
		p.Release()
	}
	mu.Lock()
	defer mu.Unlock()
	for k, g := range []string{"ga", "gb", "gc"} {
		for i := 0; i < n; i++ {
			if c := runs[g][int64(10*i+k)]; c != 1 {
				t.Errorf("%s ran chain %d's stage %d times, want 1", g, i, c)
			}
		}
		if len(runs[g]) != n {
			t.Errorf("%s ran %d distinct stages, want %d", g, len(runs[g]), n)
		}
	}
	st := f.net.Stats()
	t.Logf("%d messages sent, %d dropped, %d duplicated", st.MessagesSent, st.MessagesDropped, st.MessagesDuplicated)
	if st.MessagesDropped == 0 || st.MessagesDuplicated == 0 {
		t.Errorf("the network dropped %d and duplicated %d messages: a weak run", st.MessagesDropped, st.MessagesDuplicated)
	}
}

// TestChainResultsBatchHome: chain results come home on the stream. 64
// three-stage chains go out on one client stream, eight per flush. Their
// results reach the origin guardian ga in batches, and ga replies once
// per delivered batch, not once per chain — so it sends fewer reply
// batches than there are chains. No peer sends any message but the three
// stream kinds.
func TestChainResultsBatchHome(t *testing.T) {
	// Timers long enough that no flush in the run is a timer's.
	opts := Options{MaxBatch: 16, MaxBatchDelay: 20 * time.Millisecond,
		RTO: 200 * time.Millisecond, MaxRetries: 8}
	f := newPipeFixture(t, simnet.Config{}, opts, "ga", "gb", "gc")
	for _, g := range []string{"ga", "gb", "gc"} {
		f.handle(g, "inc", incHandler(t))
	}
	const n = 64
	s := f.client.Agent("app").Stream("ga", "g")
	stages := []PipeStage{{Node: "gb", Group: "g", Port: "inc"}, {Node: "gc", Group: "g", Port: "inc"}}
	ps := make([]Pending, 0, n)
	for i := 0; i < n; i++ {
		ps = append(ps, issuePiped(t, s, "inc", encInt(int64(i)), stages...))
		if len(ps)%8 == 0 {
			s.Flush()
		}
	}
	for i, p := range ps {
		if o := claim(t, p); !o.Normal || decInt(t, o.Payload) != int64(i+3) {
			t.Fatalf("chain %d: outcome %+v", i, o)
		}
		p.Release()
	}
	got := f.regs["ga"].Counter("stream_reply_batches_sent_total").Value()
	t.Logf("ga sent %d reply batches for %d chains", got, n)
	if got >= n {
		t.Errorf("ga sent %d reply batches for %d chains: one per chain", got, n)
	}
	for kind := range f.kinds {
		if c := f.kinds[kind].Load(); c != 0 && (kind < 1 || kind > int(kindBreak)) {
			t.Errorf("%d messages of kind %d were sent", c, kind)
		}
	}
}

// TestBlockedStageDoesNotStallOtherChains: gb's gate port holds every
// call until released. More than recvWindow chains pass through it from
// origin ga, which is more forwards than gb's credit admits; chains
// through gc follow on another client stream. The forwards are the epoch
// scheduler's sends, which the credit does not apply to, so the scheduler
// never parks on gb: the gc chains resolve while gb is blocked, and after
// the release every gb chain resolves once, with its own value.
func TestBlockedStageDoesNotStallOtherChains(t *testing.T) {
	opts := Options{MaxBatchDelay: time.Millisecond, RTO: time.Second, MaxRetries: 8}
	f := newPipeFixture(t, simnet.Config{}, opts, "ga", "gb", "gc")
	held, release := newGate(t)
	var mu sync.Mutex
	gated := make(map[int64]int)
	inc := incHandler(t)
	for _, g := range []string{"ga", "gb", "gc"} {
		f.handle(g, "inc", inc)
	}
	f.handle("gb", "gate", func(call *Incoming) Outcome {
		<-held
		mu.Lock()
		gated[decInt(t, call.Args)]++
		mu.Unlock()
		return inc(call)
	})
	viaB := []PipeStage{{Node: "gb", Group: "g", Port: "gate"}}
	viaC := []PipeStage{{Node: "gc", Group: "g", Port: "inc"}}

	// One chain through gb's open port first, so ga's ~pipe stream to gb
	// has heard gb's credit before the gated chains need more of it.
	sb := f.client.Agent("b").Stream("ga", "g")
	warm := issuePiped(t, sb, "inc", encInt(-10), PipeStage{Node: "gb", Group: "g", Port: "inc"})
	if o := claim(t, warm); !o.Normal {
		t.Fatalf("warm-up chain: %+v", o)
	}
	toB := f.peers["ga"].Agent(pipeAgentName).Stream("gb", "g")
	waitFor(t, "gb never granted ga credit", func() bool {
		toB.mu.Lock()
		defer toB.mu.Unlock()
		return toB.grantThrough > 0
	})

	// Chain i enters ga with i, gb with i+1 and resolves with i+2.
	const n = recvWindow + 8
	ps := make([]Pending, n)
	for i := range ps {
		ps[i] = issuePiped(t, sb, "inc", encInt(int64(i)), viaB...)
	}
	sb.Flush()
	waitFor(t, "ga never forwarded a credit's worth of chains to gb",
		func() bool { return toB.InFlight() >= recvWindow })

	sc := f.client.Agent("c").Stream("ga", "g")
	for j := int64(0); j < 8; j++ {
		p := issuePiped(t, sc, "inc", encInt(1000*j), viaC...)
		ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		o, err := p.Wait(ctx)
		cancel()
		if err != nil {
			t.Fatalf("chain %d through gc stalled behind the blocked gb: %v", j, err)
		}
		if !o.Normal || decInt(t, o.Payload) != 1000*j+2 {
			t.Fatalf("chain %d through gc: %+v", j, o)
		}
	}

	release()
	for i, p := range ps {
		if o := claim(t, p); !o.Normal || decInt(t, o.Payload) != int64(i+2) {
			t.Fatalf("chain %d through gb: %+v", i, o)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for i := 0; i < n; i++ {
		if c := gated[int64(i+1)]; c != 1 {
			t.Fatalf("gb ran chain %d's stage %d times, want 1", i, c)
		}
	}
}

// FuzzPipeContAdvance: a hop that cuts stage 0 out of a continuation blob
// produces exactly the blob encodePipeCont writes for the remaining
// stages, parses exactly stage 0, and reads back the reference the origin
// wrote. Any other bytes parse to an error or to a blob whose cut parses
// again — never to a panic.
func FuzzPipeContAdvance(f *testing.F) {
	long := strings.Repeat("guardian-", 30)
	for k := 0; k <= 6; k++ {
		ref := pipeRef{senderNode: "client", agent: "app", recvNode: "ga", group: "g", incarnation: 3, seq: uint64(k)}
		stages := make([]PipeStage, k)
		for i := range stages {
			stages[i] = PipeStage{Node: fmt.Sprint(long, i), Group: "g", Port: "inc", Extra: bytes.Repeat([]byte{byte(i)}, 50*i)}
		}
		blob := encodePipeCont(ref, stages)
		f.Add(blob, long, []byte("extra"), uint8(k))
		f.Add(blob[:len(blob)/2], "", []byte(nil), uint8(k))
	}
	f.Add([]byte("not a continuation"), "n", encInt(7), uint8(1))

	f.Fuzz(func(t *testing.T, blob []byte, name string, extra []byte, k uint8) {
		if c, err := parsePipeCont(blob); err == nil {
			ref := c.ref()
			if c.n > 0 {
				next, err := parsePipeCont(c.advance())
				if err != nil || next.n != c.n-1 || next.ref() != ref {
					t.Fatalf("cut of a blob that parses: %d stages, ref %+v, err %v", next.n, next.ref(), err)
				}
			}
			if r, err := parsePipeCont(c.resolution()); err != nil || r.n != 0 || r.ref() != ref {
				t.Fatalf("resolution blob: %d stages, err %v", r.n, err)
			}
		}

		ref := pipeRef{senderNode: name, agent: name + "/agent", recvNode: "r" + name, group: name,
			incarnation: uint64(len(extra)), seq: uint64(k)<<40 | uint64(len(name))}
		stages := make([]PipeStage, k%7)
		for i := range stages {
			stages[i] = PipeStage{Node: fmt.Sprint(name, i), Group: name, Port: "p" + name}
			if i%2 == 0 && len(extra) > 0 {
				stages[i].Extra = extra
			}
		}
		blob = encodePipeCont(ref, stages)
		for _, bad := range [][]byte{blob[:len(blob)-1], append(blob[:len(blob):len(blob)], 0)} {
			if _, err := parsePipeCont(bad); err == nil {
				t.Fatalf("a truncated or padded blob parsed")
			}
		}
		for i := 0; ; i++ {
			c, err := parsePipeCont(blob)
			if err != nil {
				t.Fatalf("hop %d: %v", i, err)
			}
			if got := c.ref(); got != ref {
				t.Fatalf("hop %d: reference %+v, want %+v", i, got, ref)
			}
			if want := encodePipeCont(ref, nil); !bytes.Equal(c.resolution(), want) {
				t.Fatalf("hop %d: resolution blob %x, want %x", i, c.resolution(), want)
			}
			if c.n != len(stages)-i {
				t.Fatalf("hop %d: %d stages left, want %d", i, c.n, len(stages)-i)
			}
			if c.n == 0 {
				break
			}
			if st := stages[i]; c.next.Node != st.Node || c.next.Group != st.Group ||
				c.next.Port != st.Port || !bytes.Equal(c.next.Extra, st.Extra) {
				t.Fatalf("hop %d: stage %+v, want %+v", i, c.next, st)
			}
			blob = c.advance()
			if want := encodePipeCont(ref, stages[i+1:]); !bytes.Equal(blob, want) {
				t.Fatalf("hop %d: cut blob\n%x\nwant the re-encoded\n%x", i, blob, want)
			}
		}
	})
}
