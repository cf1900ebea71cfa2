// Package trace records stream-protocol events for observability and for
// tests that assert on protocol behavior (did batching coalesce these
// calls? was a probe sent? when did the break happen?).
//
// The stream runtime emits events through the Tracer interface when one
// is installed on a Peer (stream.Peer.SetTracer); with no tracer
// installed the instrumentation is a nil check. Ring is the standard
// tracer: a fixed-capacity, concurrency-safe ring buffer.
//
// Events that belong to one call carry its TraceID — a value each end
// derives deterministically from (stream, incarnation, seq), so it never
// crosses the wire — and sender-side and receiver-side rings can be
// joined into per-call timelines (see Correlate).
package trace

import (
	"fmt"
	"sync"
	"time"
)

// Kind classifies one protocol event.
type Kind int

// Protocol event kinds.
const (
	// CallEnqueued: a call accepted into a sending stream's buffer.
	CallEnqueued Kind = iota
	// BatchSent: a request batch transmitted (Detail: "n=<calls>" or
	// "probe" / "retransmit").
	BatchSent
	// ReplyBatchSent: a reply batch transmitted by the receiving end.
	ReplyBatchSent
	// CallExecuted: a call's handler completed at the receiver.
	CallExecuted
	// PromiseResolved: a pending resolved at the sender (Detail: outcome).
	PromiseResolved
	// StreamBroken: a stream broke (Detail: reason).
	StreamBroken
	// StreamRestarted: a stream reincarnated (Seq: new incarnation).
	StreamRestarted
	// CallDelivered: a request admitted into the receiver's order buffer
	// (first, non-duplicate arrival).
	CallDelivered
	// CallReplied: a call's reply entered the receiver's reply buffer,
	// ready for (re)transmission (Detail: outcome).
	CallReplied
	// ContForwarded: a pipelined call's result was spliced into the next
	// continuation stage and forwarded to its guardian (Detail:
	// "node/group:port").
	ContForwarded
	// ResolveForwarded: a continuation chain's final outcome was forwarded
	// to the promise reference's subscribers (Detail: outcome).
	ResolveForwarded
)

// numKinds bounds the Kind enum for the ring's per-kind count table.
const numKinds = int(ResolveForwarded) + 1

var kindNames = map[Kind]string{
	CallEnqueued:     "call-enqueued",
	BatchSent:        "batch-sent",
	ReplyBatchSent:   "reply-batch-sent",
	CallExecuted:     "call-executed",
	PromiseResolved:  "promise-resolved",
	StreamBroken:     "stream-broken",
	StreamRestarted:  "stream-restarted",
	CallDelivered:    "call-delivered",
	CallReplied:      "call-replied",
	ContForwarded:    "cont-forwarded",
	ResolveForwarded: "resolve-forwarded",
}

func (k Kind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Event is one recorded protocol event.
type Event struct {
	At      time.Time
	Kind    Kind
	Stream  string // stream key ("sender/agent->recv/group")
	Seq     uint64 // call seq (or incarnation for StreamRestarted)
	TraceID uint64 // per-call causal ID; 0 when not call-scoped
	Root    uint64 // root trace ID of the causal chain; 0 when unknown
	Parent  uint64 // trace ID of the causing call; 0 for chain roots
	Detail  string
}

func (e Event) String() string {
	return fmt.Sprintf("%s %s seq=%d %s", e.Kind, e.Stream, e.Seq, e.Detail)
}

// Tracer receives protocol events. Implementations must be safe for
// concurrent use.
type Tracer interface {
	Record(Event)
}

// NowSetter is implemented by tracers whose event timestamps should
// follow an externally supplied time source. stream.Peer.SetTracer uses
// it to stamp events with the peer's clock automatically, so a tracer
// installed on a virtual-time peer records virtual timestamps without
// any manual wiring.
type NowSetter interface {
	SetNow(now func() time.Time)
}

// Ring is a fixed-capacity ring-buffer tracer: the newest events win.
// It keeps per-kind counts incrementally, so Count is O(1) regardless
// of capacity.
type Ring struct {
	mu     sync.Mutex
	buf    []Event
	next   int
	count  int
	byKind [numKinds]int    // counts for in-range kinds
	extra  map[Kind]int     // counts for out-of-range kinds, lazily made
	now    func() time.Time // stamps events recorded with a zero At
}

// NewRing creates a ring holding up to capacity events (default 4096 if
// capacity <= 0).
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		capacity = 4096
	}
	return &Ring{buf: make([]Event, capacity)}
}

// SetNow installs the time source used to stamp events recorded with a
// zero At — a virtual clock's Now under simulation. The default is
// time.Now. Call before recording starts; it is not synchronized with
// concurrent Records. Peers wire their own clock in automatically when
// the tracer is installed (see NowSetter).
func (r *Ring) SetNow(now func() time.Time) {
	r.now = now
}

func (r *Ring) addKindLocked(k Kind, delta int) {
	if ki := int(k); ki >= 0 && ki < numKinds {
		r.byKind[ki] += delta
		return
	}
	if r.extra == nil {
		r.extra = make(map[Kind]int)
	}
	r.extra[k] += delta
}

// Record stores an event, evicting the oldest if full.
func (r *Ring) Record(e Event) {
	if e.At.IsZero() {
		if r.now != nil {
			e.At = r.now()
		} else {
			e.At = time.Now()
		}
	}
	r.mu.Lock()
	if r.count == len(r.buf) {
		r.addKindLocked(r.buf[r.next].Kind, -1)
	}
	r.addKindLocked(e.Kind, 1)
	r.buf[r.next] = e
	r.next = (r.next + 1) % len(r.buf)
	if r.count < len(r.buf) {
		r.count++
	}
	r.mu.Unlock()
}

// Events returns the recorded events, oldest first.
func (r *Ring) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, r.count)
	start := r.next - r.count
	if start < 0 {
		start += len(r.buf)
	}
	for i := 0; i < r.count; i++ {
		out = append(out, r.buf[(start+i)%len(r.buf)])
	}
	return out
}

// Filter returns the recorded events of one kind, oldest first. It
// scans the ring in place and copies only the matches.
func (r *Ring) Filter(k Kind) []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.countLocked(k)
	if n == 0 {
		return nil
	}
	out := make([]Event, 0, n)
	start := r.next - r.count
	if start < 0 {
		start += len(r.buf)
	}
	for i := 0; i < r.count; i++ {
		if e := r.buf[(start+i)%len(r.buf)]; e.Kind == k {
			out = append(out, e)
		}
	}
	return out
}

func (r *Ring) countLocked(k Kind) int {
	if ki := int(k); ki >= 0 && ki < numKinds {
		return r.byKind[ki]
	}
	return r.extra[k]
}

// Count returns how many recorded events have the given kind. O(1): the
// ring maintains per-kind counts as events are recorded and evicted.
func (r *Ring) Count(k Kind) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.countLocked(k)
}

// Reset discards all recorded events.
func (r *Ring) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next = 0
	r.count = 0
	r.byKind = [numKinds]int{}
	r.extra = nil
}
