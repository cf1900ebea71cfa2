// Package transport is the network seam underneath the call-stream
// implementation: the minimal datagram contract the stream layer needs
// from whatever carries its bytes. Two backends implement it — simnet
// (the in-process cost model every experiment was originally measured
// on) and tcpnet (real sockets, guardians as separate OS processes) —
// and the stream layer is written against this package alone, so a third
// backend (QUIC, shared memory, ...) needs no stream changes.
//
// The contract is deliberately datagram-shaped, not connection-shaped:
// Send is fire-and-forget and may silently lose the message; Recv
// delivers whole payloads with a sender name attached; duplication and
// reordering are allowed. The call-stream protocol already defends
// against all of that (retransmission, seq-ordered delivery, breaks), so
// a backend never needs to buffer, dedupe, or order — a broken TCP
// connection simply looks like a lossy patch of network until the dial
// succeeds again.
//
// Everything beyond the core Endpoint contract is an optional capability
// discovered by interface assertion: fault injection,
// clock/metrics/cost-model inheritance. A backend implements
// what it can; the stream layer degrades gracefully where it can't.
package transport

import (
	"context"
	"errors"
	"time"

	"promises/internal/clock"
	"promises/internal/metrics"
)

// Message is one delivered datagram. Payload ownership passes to the
// receiver at delivery: the backend must not reuse or mutate it after
// Recv returns it (the stream layer's zero-copy decode aliases it for as
// long as call arguments and reply payloads live).
type Message struct {
	From    string
	To      string
	Payload []byte
}

// Endpoint is one named attachment point on a network: the stream
// layer's view of "our node". An entity (guardian) owns exactly one
// endpoint; all its agents and ports share it.
//
// Send transmits payload to the named peer endpoint. It is asynchronous
// and unreliable: a nil error means the message was accepted locally,
// not that it will arrive. Send never blocks: it does not wait for the
// peer, the network or a full socket buffer, so the stream layer may
// call it from its receive and deadline loops; a backend that cannot take a
// message drops it. Errors are local conditions only (this end down, no
// route, transport closed) and should map onto the portable error set
// below with errors.Is.
//
// Recv blocks for the next delivered message. It returns ErrCrashed
// while the endpoint is down (fault injection), ErrClosed once the
// transport shuts down, or ctx.Err() when the context ends first.
type Endpoint interface {
	Name() string
	Send(to string, payload []byte) error
	Recv(ctx context.Context) (Message, error)
}

// Portable error set. Backends wrap these (errors.Is-compatible) so the
// stream layer and applications can branch on the condition without
// importing a concrete backend.
var (
	// ErrCrashed: the local endpoint is down (crash fault injection or a
	// backend-level shutdown of this end). Volatile stream state is
	// presumed lost.
	ErrCrashed = errors.New("transport: endpoint is down")
	// ErrClosed: the transport has shut down permanently.
	ErrClosed = errors.New("transport: closed")
	// ErrNoRoute: the destination name is unknown to this transport.
	ErrNoRoute = errors.New("transport: no route to endpoint")
)

// ShardedSender is Send with a write-scheduling hint that backends may
// ignore (tcpnet does). It has no caller in this module — the stream
// layer sends everything through Send — and stays only because the
// benchmark module's endpoint taps implement and check it.
type ShardedSender interface {
	SendShard(to string, payload []byte, shard int) error
}

// Faulter is the optional fault-injection capability: Crash takes the
// endpoint down (Send/Recv fail with ErrCrashed, traffic is dropped)
// until Recover. simnet implements it natively; tcpnet implements it by
// dropping connections and refusing traffic, which lets the same
// crash-recovery tests run over real sockets.
type Faulter interface {
	Crash()
	Recover()
	Crashed() bool
}

// Closer is the optional teardown capability for endpoints that own
// resources (sockets, goroutines) beyond their network's lifetime.
type Closer interface {
	Close() error
}

// CostModel mirrors the knobs of the simnet cost model: the fixed
// per-message kernel-call overhead, the per-byte transmission cost, and
// the one-way propagation delay. A backend with no modeled costs (tcpnet:
// the real network IS the cost) does not offer it. The stream layer does
// not read it — its batching is a fixed count-and-age policy — so the
// capability is introspection only. It stays because the benchmark's
// taps assert that wrapping an endpoint keeps every capability, this one
// included; folding the providers into one environment value is what
// would retire it.
type CostModel struct {
	KernelOverhead time.Duration
	PerByte        time.Duration
	Propagation    time.Duration
}

// CostModeler is the optional cost-model capability.
type CostModeler interface {
	Cost() CostModel
}

// ClockProvider lets an endpoint supply the time source layers built on
// it inherit (virtual clocks for deterministic simulation).
type ClockProvider interface {
	Clock() clock.Clock
}

// MetricsProvider lets an endpoint supply the metrics registry layers
// built on it inherit, mirroring ClockProvider.
type MetricsProvider interface {
	Metrics() *metrics.Registry
}
