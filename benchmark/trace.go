package main

import (
	"context"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"

	"promises/internal/metrics"
	"promises/internal/simnet"
	"promises/internal/tcpnet"
	"promises/internal/trace"
	"promises/internal/transport"
)

// observer is everything the traced pass adds to a world, all of it from
// outside the program: a registry on the transport config, a tap around
// every endpoint, and spans at the call sites in the driver and handlers.
// A nil *observer is the untraced pass; its methods do nothing.
type observer struct {
	reg *metrics.Registry
	tap *tap

	// rings holds the spans of the ops in flight, one ring per driver
	// goroutine, indexed by op index. The driver writes the call and claim
	// stamps, the handlers write theirs; an op is tied together by the
	// trace.Cause root the driver mints and the handler reads.
	rings [][]opSpan

	execNs, execs atomic.Int64 // time inside handler bodies

	mu      sync.Mutex
	flushes []span
}

// ringSize bounds the spans kept (and written by -spans) per driver; it
// only has to exceed the ops one driver keeps in flight.
const ringSize = 1 << 16

// opSpan is the four spans of one op, as nanoseconds since the process
// epoch: call and claim in the driver, handler (first stage entry to last
// stage exit) in the server.
type opSpan struct {
	root                 uint64
	callStart, callEnd   int64
	claimStart, claimEnd int64
	hStart, hEnd         atomic.Int64
}

type span struct {
	Op    uint64 `json:"op,omitempty"` // the trace.Cause root; 0 for a flush
	Name  string `json:"name"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
}

func newObserver(drivers int) *observer {
	o := &observer{reg: metrics.NewRegistry(), tap: newTap(), rings: make([][]opSpan, drivers)}
	for i := range o.rings {
		o.rings[i] = make([]opSpan, ringSize)
	}
	return o
}

func (o *observer) now() int64 {
	if o == nil {
		return 0
	}
	return nanos()
}

// opRoot mints the causal root of one op: the driver in the high bits, the
// op index (plus one, so it is never zero) in the low ones.
func opRoot(driver int, idx uint64) uint64 { return uint64(driver+1)<<48 | (idx+1)&(1<<48-1) }

func (o *observer) cause(driver int, idx uint64) trace.Cause {
	if o == nil {
		return trace.Cause{}
	}
	r := opRoot(driver, idx)
	return trace.Cause{Root: r, Parent: r}
}

func (o *observer) span(driver int, idx uint64) *opSpan {
	return &o.rings[driver][idx%ringSize]
}

// handled records one handler execution that began at start.
func (o *observer) handled(root uint64, start int64, first, last bool) {
	if o == nil {
		return
	}
	end := nanos()
	o.execNs.Add(end - start)
	o.execs.Add(1)
	driver := int(root>>48) - 1
	if driver < 0 || driver >= len(o.rings) {
		return // a call the driver did not mint a root for (set-up, warm-up)
	}
	sp := o.span(driver, root&(1<<48-1)-1)
	if first {
		sp.hStart.Store(start)
	}
	if last {
		sp.hEnd.Store(end)
	}
}

func (o *observer) flushed(start int64) {
	if o == nil {
		return
	}
	end := nanos()
	o.mu.Lock()
	if len(o.flushes) < ringSize {
		o.flushes = append(o.flushes, span{Name: "flush", Start: start, End: end})
	}
	o.mu.Unlock()
}

// writeSpans writes the spans still held in memory: the last ringSize ops
// of each driver and the first ringSize flushes.
func (o *observer) writeSpans(path string) error {
	var out []span
	for i := range o.rings {
		for j := range o.rings[i] {
			sp := &o.rings[i][j]
			if sp.root == 0 {
				continue
			}
			out = append(out,
				span{Op: sp.root, Name: "call", Start: sp.callStart, End: sp.callEnd},
				span{Op: sp.root, Name: "handler", Start: sp.hStart.Load(), End: sp.hEnd.Load()},
				span{Op: sp.root, Name: "claim", Start: sp.claimStart, End: sp.claimEnd})
		}
	}
	out = append(out, o.flushes...)
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// tap times the transport from outside: every endpoint of a traced world
// is wrapped in a type that embeds the concrete endpoint (so every
// optional transport capability is still found by assertion) and stamps
// Send/SendShard entry and return and Recv entry and return.
type tap struct {
	sendNs, sends atomic.Int64 // time inside Send/SendShard
	recvWaitNs    atomic.Int64 // time the receive loops sat in Recv

	mu      sync.Mutex
	sent    map[frameKey]int64 // Send entry time of frames not yet received
	sendOrd map[[2]string]uint64
	recvOrd map[[2]string]uint64
	transit []int64 // Send entry to peer Recv return, per frame
}

// frameKey matches a received frame to its Send. TCP keeps frames in
// order per directed pair and drops none (FramesDropped is asserted 0),
// so the k-th frame received is the k-th sent. simnet loses and
// duplicates frames but hands the receiver the sender's own slice, so the
// first byte's address identifies the frame.
type frameKey struct {
	pair [2]string
	ord  uint64
	ptr  *byte
}

func newTap() *tap {
	return &tap{sent: make(map[frameKey]int64), sendOrd: make(map[[2]string]uint64), recvOrd: make(map[[2]string]uint64)}
}

// sendStart registers a frame before the transport sees it, so its
// receiver cannot look it up too early, and returns the entry time.
func (t *tap) sendStart(from, to string, payload []byte, byAddr bool) int64 {
	start := nanos()
	if len(payload) == 0 {
		return start
	}
	key := frameKey{pair: [2]string{from, to}}
	t.mu.Lock()
	if byAddr {
		key.ptr = &payload[0]
	} else {
		key.ord = t.sendOrd[key.pair]
		t.sendOrd[key.pair]++
	}
	t.sent[key] = start
	t.mu.Unlock()
	return start
}

func (t *tap) sendEnd(start int64) {
	t.sendNs.Add(nanos() - start)
	t.sends.Add(1)
}

func (t *tap) noteRecv(msg transport.Message, byAddr bool, start int64) {
	end := nanos()
	t.recvWaitNs.Add(end - start)
	if len(msg.Payload) == 0 {
		return
	}
	key := frameKey{pair: [2]string{msg.From, msg.To}}
	t.mu.Lock()
	if byAddr {
		key.ptr = &msg.Payload[0]
	} else {
		key.ord = t.recvOrd[key.pair]
		t.recvOrd[key.pair]++
	}
	if at, ok := t.sent[key]; ok { // a simnet duplicate finds its entry gone
		delete(t.sent, key)
		t.transit = append(t.transit, end-at)
	}
	t.mu.Unlock()
}

// reset forgets the totals and the transit samples; frames in flight keep
// their entries so the matching stays aligned.
func (t *tap) reset() {
	t.sendNs.Store(0)
	t.sends.Store(0)
	t.recvWaitNs.Store(0)
	t.mu.Lock()
	t.transit = t.transit[:0]
	t.mu.Unlock()
}

type tappedTCP struct {
	*tcpnet.Endpoint
	tap *tap
}

func (e *tappedTCP) Send(to string, payload []byte) error {
	start := e.tap.sendStart(e.Name(), to, payload, false)
	err := e.Endpoint.Send(to, payload)
	e.tap.sendEnd(start)
	return err
}

func (e *tappedTCP) SendShard(to string, payload []byte, shard int) error {
	start := e.tap.sendStart(e.Name(), to, payload, false)
	err := e.Endpoint.SendShard(to, payload, shard)
	e.tap.sendEnd(start)
	return err
}

func (e *tappedTCP) Recv(ctx context.Context) (transport.Message, error) {
	start := nanos()
	msg, err := e.Endpoint.Recv(ctx)
	if err == nil {
		e.tap.noteRecv(msg, false, start)
	}
	return msg, err
}

type tappedSim struct {
	*simnet.Node
	tap *tap
}

func (e *tappedSim) Send(to string, payload []byte) error {
	start := e.tap.sendStart(e.Name(), to, payload, true)
	err := e.Node.Send(to, payload)
	e.tap.sendEnd(start)
	return err
}

func (e *tappedSim) Recv(ctx context.Context) (transport.Message, error) {
	start := nanos()
	msg, err := e.Node.Recv(ctx)
	if err == nil {
		e.tap.noteRecv(msg, true, start)
	}
	return msg, err
}
