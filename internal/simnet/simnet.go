// Package simnet is the network substrate underneath the call-stream
// implementation. It stands in for the Mercury communication system and
// operating-system kernel that the paper's performance arguments rest on.
//
// The substitution preserves the phenomena that matter to the paper:
//
//   - a fixed per-message kernel-call overhead charged to the caller of
//     Send and Recv, so batching several calls into one message wins;
//   - a per-byte transmission cost and a propagation delay, so round
//     trips are expensive and pipelining wins;
//   - unreliable delivery: messages can be lost, delayed, and reordered,
//     and nodes can crash and recover and links can partition, so the
//     stream layer's exactly-once ordered delivery — and its breaks —
//     have something real to defend against.
//
// All costs are modeled with sleeps at microsecond-to-millisecond scale
// on the network's clock — the wall clock by default, or a virtual clock
// (clock.Virtual) for deterministic simulation, in which case delivery
// deadlines are instants of logical time and no real time is spent. With
// a zero Config the network is a plain reliable in-process message
// switch suitable for fast unit tests.
//
// Delivery is event-driven: one dispatcher goroutine per network holds
// every in-flight message in a min-heap keyed by delivery deadline,
// sleeps on a single resettable timer until the earliest deadline, and
// delivers due messages in batch. The goroutine count is therefore O(1)
// per network, independent of the number of messages in flight.
package simnet

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"promises/internal/clock"
	"promises/internal/metrics"
	"promises/internal/pqueue"
	"promises/internal/transport"
)

// Config sets the cost and fault model for a Network.
type Config struct {
	// KernelOverhead is the fixed cost of one Send or Recv kernel call,
	// charged to (slept by) the calling goroutine.
	KernelOverhead time.Duration
	// Propagation is the one-way network latency added to every delivery.
	Propagation time.Duration
	// PerByte is the transmission cost per payload byte. It is charged
	// both to the sender (copy into the kernel) and to the delivery delay
	// (time on the wire).
	PerByte time.Duration
	// Jitter is the maximum extra random delivery delay. Jitter makes
	// reordering possible, which the stream layer must mask.
	Jitter time.Duration
	// LossRate is the probability in [0,1] that a message is silently
	// dropped.
	LossRate float64
	// DupRate is the probability in [0,1] that a delivered message is
	// delivered a second time (with its own delay), as a duplicated
	// datagram. The stream layer's exactly-once guarantee must suppress
	// these.
	DupRate float64
	// Seed seeds the network's random source; 0 means a fixed default so
	// runs are reproducible unless a seed is chosen explicitly.
	Seed int64
	// InboxDepth is the per-node inbox capacity; messages arriving at a
	// full inbox are dropped (receiver overload). 0 means 4096.
	InboxDepth int
	// Clock is the time source for delivery deadlines and cost-model
	// sleeps. nil means the wall clock (clock.Real). Layers built on the
	// network (streams, guardians) inherit this clock, so configuring a
	// clock.Virtual here puts a whole system on virtual time.
	Clock clock.Clock
	// Metrics, when set, receives the network's counters (messages,
	// bytes, drops, fault events, dispatcher queue depth) and is
	// inherited by the layers built on the network — streams, guardians —
	// exactly like Clock, so one registry on the network config
	// instruments a whole system. nil disables registry metrics; the
	// cheap built-in Stats counters are always maintained.
	Metrics *metrics.Registry
}

// Stats counts network activity since the network was created.
type Stats struct {
	MessagesSent       int64 // Send calls that were accepted
	MessagesDelivered  int64 // messages that reached an inbox
	MessagesDropped    int64 // lost, partitioned, crashed-target, or overflowed
	MessagesDuplicated int64 // extra deliveries injected by DupRate
	BytesSent          int64
	KernelCalls        int64 // Send + successful Recv kernel calls
}

// Message is one datagram. Payload is owned by the receiver after
// delivery; senders must not mutate it after Send. It is an alias of the
// portable transport.Message, which is what lets *Node satisfy
// transport.Endpoint directly, with no adapter on the hot path.
type Message = transport.Message

// Errors returned by node operations. Each wraps its counterpart in the
// portable transport error set, so errors.Is works against either
// identity: code written to the transport seam matches transport.Err*,
// existing simnet-aware code keeps matching simnet.Err* — same values,
// same messages as before the seam existed.
var (
	ErrCrashed       = wrapErr("simnet: node is crashed", transport.ErrCrashed)
	ErrNoSuchNode    = wrapErr("simnet: no such node", transport.ErrNoRoute)
	ErrNetworkDown   = wrapErr("simnet: network closed", transport.ErrClosed)
	ErrDuplicateNode = errors.New("simnet: node already exists")
)

// wrappedError preserves the historical simnet error strings while
// unwrapping to the portable transport error set.
type wrappedError struct {
	msg   string
	under error
}

func wrapErr(msg string, under error) error { return &wrappedError{msg: msg, under: under} }

func (e *wrappedError) Error() string { return e.msg }
func (e *wrappedError) Unwrap() error { return e.under }

// spinThreshold is the residual wait below which the dispatcher yields
// in a loop instead of arming its timer. OS timers round short sleeps up
// (commonly to a millisecond or more), so waiting on the timer would
// stretch every sub-millisecond delivery delay to the timer floor.
const spinThreshold = 500 * time.Microsecond

// delivery is one scheduled message delivery held by the dispatcher.
type delivery struct {
	due    time.Time
	seq    uint64 // insertion order; FIFO tiebreak among equal deadlines
	target *Node
	msg    Message
}

// Network is an in-process datagram network between named nodes.
type Network struct {
	cfg     Config
	clk     clock.Clock
	virtual bool // clk is a clock.Virtual: skip wall-clock spin waits

	mu         sync.Mutex
	rng        *rand.Rand
	nodes      map[string]*Node
	partitions map[[2]string]bool
	linkDelay  map[[2]string]time.Duration
	closed     bool
	wg         sync.WaitGroup // dispatcher goroutine

	// Delivery scheduler state. schedMu is separate from mu so the
	// dispatcher popping due messages does not contend with node lookups
	// and fate rolls on the send path.
	schedMu     sync.Mutex
	sched       *pqueue.Heap[delivery]
	schedSeq    uint64
	schedClosed bool
	wake        chan struct{} // signaled when a new earliest deadline arrives
	done        chan struct{} // closed by Close; stops the dispatcher

	stats struct {
		sent, delivered, dropped, duplicated, bytes, kernel int64
	}
	met *netMetrics // nil when no registry is configured
}

// netMetrics bundles the network's registry handles, resolved once at
// construction. nil means registry metrics are disabled.
type netMetrics struct {
	sent       *metrics.Counter
	delivered  *metrics.Counter
	dropped    *metrics.Counter
	duplicated *metrics.Counter
	bytes      *metrics.Counter
	kernel     *metrics.Counter
	partitions *metrics.Counter
	heals      *metrics.Counter
	crashes    *metrics.Counter
	recoveries *metrics.Counter
	queueDepth *metrics.Gauge     // messages in the dispatcher's heap
	msgBytes   *metrics.Histogram // payload size per accepted Send
}

func newNetMetrics(reg *metrics.Registry) *netMetrics {
	if reg == nil {
		return nil
	}
	return &netMetrics{
		sent:       reg.Counter("simnet_messages_sent_total"),
		delivered:  reg.Counter("simnet_messages_delivered_total"),
		dropped:    reg.Counter("simnet_messages_dropped_total"),
		duplicated: reg.Counter("simnet_messages_duplicated_total"),
		bytes:      reg.Counter("simnet_bytes_sent_total"),
		kernel:     reg.Counter("simnet_kernel_calls_total"),
		partitions: reg.Counter("simnet_partitions_total"),
		heals:      reg.Counter("simnet_heals_total"),
		crashes:    reg.Counter("simnet_crashes_total"),
		recoveries: reg.Counter("simnet_recoveries_total"),
		queueDepth: reg.Gauge("simnet_dispatch_queue_depth"),
		// Payload sizes: 64 B .. 1 MiB by powers of 4.
		msgBytes: reg.Histogram("simnet_message_bytes", metrics.PowersOf(4, 64, 8)),
	}
}

// noteDropped counts one dropped message in both the built-in stats and
// the registry.
func (n *Network) noteDropped() {
	atomic.AddInt64(&n.stats.dropped, 1)
	if n.met != nil {
		n.met.dropped.Inc()
	}
}

// New creates a network with the given cost and fault model.
func New(cfg Config) *Network {
	seed := cfg.Seed
	if seed == 0 {
		seed = 1988 // the year of the paper; fixed for reproducibility
	}
	if cfg.InboxDepth <= 0 {
		cfg.InboxDepth = 4096
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	n := &Network{
		cfg:        cfg,
		clk:        cfg.Clock,
		virtual:    clock.IsVirtual(cfg.Clock),
		rng:        rand.New(rand.NewSource(seed)),
		nodes:      make(map[string]*Node),
		partitions: make(map[[2]string]bool),
		linkDelay:  make(map[[2]string]time.Duration),
		sched: pqueue.NewHeap(func(a, b delivery) bool {
			if !a.due.Equal(b.due) {
				return a.due.Before(b.due)
			}
			return a.seq < b.seq
		}),
		wake: make(chan struct{}, 1),
		done: make(chan struct{}),
		met:  newNetMetrics(cfg.Metrics),
	}
	n.wg.Add(1)
	go n.dispatcher()
	return n
}

// Config returns the network's configuration.
func (n *Network) Config() Config { return n.cfg }

// Clock returns the network's time source. Layers built on the network
// take their clock from here unless explicitly configured otherwise.
func (n *Network) Clock() clock.Clock { return n.clk }

// Metrics returns the network's metrics registry (nil when none was
// configured). Layers built on the network inherit their registry from
// here unless explicitly configured otherwise, mirroring Clock.
func (n *Network) Metrics() *metrics.Registry { return n.cfg.Metrics }

// AddNode creates a node with a unique name.
func (n *Network) AddNode(name string) (*Node, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, ErrNetworkDown
	}
	if _, ok := n.nodes[name]; ok {
		return nil, fmt.Errorf("%w: %q", ErrDuplicateNode, name)
	}
	nd := &Node{
		net:   n,
		name:  name,
		inbox: make(chan Message, n.cfg.InboxDepth),
	}
	n.nodes[name] = nd
	return nd, nil
}

// MustAddNode is AddNode for test and example setup paths where a duplicate
// name is a programming error.
func (n *Network) MustAddNode(name string) *Node {
	nd, err := n.AddNode(name)
	if err != nil {
		panic(err)
	}
	return nd
}

// Node returns the named node, if it exists.
func (n *Network) Node(name string) (*Node, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	nd, ok := n.nodes[name]
	return nd, ok
}

func pairKey(a, b string) [2]string {
	if a > b {
		a, b = b, a
	}
	return [2]string{a, b}
}

// Partition blocks all traffic between a and b (both directions) until
// Heal. Messages in flight when the partition starts are unaffected.
func (n *Network) Partition(a, b string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.partitions[pairKey(a, b)] = true
	if n.met != nil {
		n.met.partitions.Inc()
	}
}

// Heal removes the partition between a and b.
func (n *Network) Heal(a, b string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.partitions, pairKey(a, b))
	if n.met != nil {
		n.met.heals.Inc()
	}
}

// HealAll removes every partition.
func (n *Network) HealAll() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.partitions = make(map[[2]string]bool)
}

// SetLinkDelay overrides the propagation delay on the a↔b link (both
// directions), for asymmetric topologies. A zero duration restores the
// network default.
func (n *Network) SetLinkDelay(a, b string, d time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if d == 0 {
		delete(n.linkDelay, pairKey(a, b))
	} else {
		n.linkDelay[pairKey(a, b)] = d
	}
}

// Stats returns a snapshot of the network counters.
func (n *Network) Stats() Stats {
	return Stats{
		MessagesSent:       atomic.LoadInt64(&n.stats.sent),
		MessagesDelivered:  atomic.LoadInt64(&n.stats.delivered),
		MessagesDropped:    atomic.LoadInt64(&n.stats.dropped),
		MessagesDuplicated: atomic.LoadInt64(&n.stats.duplicated),
		BytesSent:          atomic.LoadInt64(&n.stats.bytes),
		KernelCalls:        atomic.LoadInt64(&n.stats.kernel),
	}
}

// Close shuts the network down: in-flight deliveries are dropped (and
// counted), the dispatcher goroutine exits, and all Recv calls unblock
// with ErrNetworkDown.
func (n *Network) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	nodes := make([]*Node, 0, len(n.nodes))
	for _, nd := range n.nodes {
		nodes = append(nodes, nd)
	}
	n.mu.Unlock()

	// Drop everything still in flight; stop accepting new deliveries.
	n.schedMu.Lock()
	n.schedClosed = true
	n.sched.Drain(func(delivery) {
		n.noteDropped()
	})
	if n.met != nil {
		n.met.queueDepth.Set(0)
	}
	n.schedMu.Unlock()
	close(n.done)
	n.wg.Wait()

	for _, nd := range nodes {
		nd.closeInbox()
	}
}

// decideFate looks up the target and rolls loss/duplication/partition/
// closed checks, computing the delivery delay (and the duplicate's delay,
// if any). target is non-nil iff the named node exists; deliver reports
// whether the message survives the fault model. It must be called with
// n.mu NOT held.
func (n *Network) decideFate(from, to string, size int) (target *Node, deliver bool, delay, dupDelay time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	target = n.nodes[to]
	if target == nil || n.closed {
		return target, false, 0, 0
	}
	if n.partitions[pairKey(from, to)] {
		return target, false, 0, 0
	}
	if n.cfg.LossRate > 0 && n.rng.Float64() < n.cfg.LossRate {
		return target, false, 0, 0
	}
	prop := n.cfg.Propagation
	if d, ok := n.linkDelay[pairKey(from, to)]; ok {
		prop = d
	}
	base := prop + time.Duration(size)*n.cfg.PerByte
	delay = base
	if n.cfg.Jitter > 0 {
		delay += time.Duration(n.rng.Int63n(int64(n.cfg.Jitter)))
	}
	if n.cfg.DupRate > 0 && n.rng.Float64() < n.cfg.DupRate {
		dupDelay = base + 1 // distinct nonzero delay even with zero jitter
		if n.cfg.Jitter > 0 {
			dupDelay = base + time.Duration(n.rng.Int63n(int64(n.cfg.Jitter)))
		}
	}
	return target, true, delay, dupDelay
}

// schedule hands one future delivery to the dispatcher.
func (n *Network) schedule(target *Node, msg Message, d time.Duration) {
	item := delivery{due: n.clk.Now().Add(d), target: target, msg: msg}
	n.schedMu.Lock()
	if n.schedClosed {
		n.schedMu.Unlock()
		n.noteDropped()
		return
	}
	n.schedSeq++
	item.seq = n.schedSeq
	n.sched.Push(item)
	if n.met != nil {
		n.met.queueDepth.Add(1)
	}
	min, _ := n.sched.Peek()
	isNewMin := min.seq == item.seq
	n.schedMu.Unlock()
	if isNewMin {
		// The earliest deadline moved up; nudge the dispatcher so it
		// re-arms its timer. The buffered channel coalesces signals.
		select {
		case n.wake <- struct{}{}:
		default:
		}
	}
}

// dispatcher is the single delivery goroutine: it sleeps until the
// earliest deadline in the heap and delivers every due message in batch.
func (n *Network) dispatcher() {
	defer n.wg.Done()
	timer := n.clk.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C()
	}
	var batch []delivery
	for {
		now := n.clk.Now()
		n.schedMu.Lock()
		batch = batch[:0]
		for {
			min, ok := n.sched.Peek()
			if !ok || min.due.After(now) {
				break
			}
			item, _ := n.sched.Pop()
			batch = append(batch, item)
		}
		if n.met != nil && len(batch) > 0 {
			n.met.queueDepth.Add(-int64(len(batch)))
		}
		var wait time.Duration
		hasNext := false
		if min, ok := n.sched.Peek(); ok {
			wait = min.due.Sub(now)
			hasNext = true
		}
		n.schedMu.Unlock()

		// Deliver outside schedMu: deliver takes the node lock and the
		// send path must stay free to schedule more messages meanwhile.
		if len(batch) > 0 {
			for i := range batch {
				batch[i].target.deliver(batch[i].msg)
				batch[i] = delivery{} // release payload reference
			}
			// Go straight back to the heap: delivering took real time, so
			// the wait computed above is stale, and new messages may have
			// been scheduled meanwhile. The next pass recomputes the sleep
			// from a fresh clock with no work left to do before arming it.
			continue
		}

		if hasNext && wait < spinThreshold && !n.virtual {
			// OS timers round short waits up (commonly to ≥1ms), which
			// would stretch every sub-millisecond delivery delay to the
			// timer floor. Yield and re-check the clock instead; the loop
			// above delivers as soon as the deadline truly passes, and
			// also notices any earlier message scheduled meanwhile.
			// A virtual timer is exact, so under virtual time the timer
			// below is both precise and visible to the clock's
			// quiescence detection — spinning would hide this goroutine
			// from auto-advance and deadlock the simulation.
			runtime.Gosched()
			continue
		}

		if hasNext {
			timer.Reset(wait)
			select {
			case <-timer.C():
			case <-n.wake:
				if !timer.Stop() {
					select {
					case <-timer.C():
					default:
					}
				}
			case <-n.done:
				if !timer.Stop() {
					select {
					case <-timer.C():
					default:
					}
				}
				return
			}
		} else {
			// Nothing due and nothing scheduled: sleep until woken.
			select {
			case <-n.wake:
			case <-n.done:
				return
			}
		}
	}
}

// Node is one network endpoint. An entity (guardian) owns exactly one
// node; all its agents and ports share it.
type Node struct {
	net  *Network
	name string

	mu      sync.Mutex
	inbox   chan Message
	crashed bool
	closed  bool
}

// Node is the simnet backend of the transport seam: the stream layer
// holds it as a transport.Endpoint and discovers the optional
// capabilities by assertion.
var (
	_ transport.Endpoint    = (*Node)(nil)
	_ transport.Faulter     = (*Node)(nil)
	_ transport.CostModeler = (*Node)(nil)
)

// Name returns the node's unique name.
func (nd *Node) Name() string { return nd.name }

// Network returns the network the node belongs to.
func (nd *Node) Network() *Network { return nd.net }

// Clock returns the node's time source — the network's clock — so layers
// built on the transport seam inherit virtual time without knowing the
// backend (transport.ClockProvider).
func (nd *Node) Clock() clock.Clock { return nd.net.clk }

// Metrics returns the registry layers built on the node inherit
// (transport.MetricsProvider); nil when the network has none.
func (nd *Node) Metrics() *metrics.Registry { return nd.net.cfg.Metrics }

// Cost reports the network's modeled costs (transport.CostModeler).
func (nd *Node) Cost() transport.CostModel {
	return transport.CostModel{
		KernelOverhead: nd.net.cfg.KernelOverhead,
		PerByte:        nd.net.cfg.PerByte,
		Propagation:    nd.net.cfg.Propagation,
	}
}

// Send transmits payload to the named node. It charges the sender the
// kernel-call overhead plus the per-byte copy cost, then schedules
// asynchronous delivery. Send returns an error only for local conditions
// (crashed sender, unknown target, closed network); a lost or partitioned
// message is NOT an error — the sender cannot know.
func (nd *Node) Send(to string, payload []byte) error {
	n := nd.net
	nd.mu.Lock()
	if nd.crashed {
		nd.mu.Unlock()
		return ErrCrashed
	}
	nd.mu.Unlock()

	// Charge the sender: one kernel call plus the copy of the payload.
	occupancy := n.cfg.KernelOverhead + time.Duration(len(payload))*n.cfg.PerByte
	if occupancy > 0 {
		n.clk.Sleep(occupancy)
	}

	target, deliver, delay, dupDelay := n.decideFate(nd.name, to, len(payload))
	if target == nil {
		return fmt.Errorf("%w: %q", ErrNoSuchNode, to)
	}
	atomic.AddInt64(&n.stats.kernel, 1)
	atomic.AddInt64(&n.stats.sent, 1)
	atomic.AddInt64(&n.stats.bytes, int64(len(payload)))
	if m := n.met; m != nil {
		m.kernel.Inc()
		m.sent.Inc()
		m.bytes.Add(uint64(len(payload)))
		m.msgBytes.Observe(uint64(len(payload)))
	}
	if !deliver {
		n.noteDropped()
		return nil
	}

	msg := Message{From: nd.name, To: to, Payload: payload}
	n.schedule(target, msg, delay)
	if dupDelay > 0 {
		atomic.AddInt64(&n.stats.duplicated, 1)
		if n.met != nil {
			n.met.duplicated.Inc()
		}
		n.schedule(target, msg, dupDelay)
	}
	return nil
}

func (nd *Node) deliver(msg Message) {
	// The non-blocking send happens under the lock so it cannot race a
	// concurrent Crash/Close of the inbox channel.
	nd.mu.Lock()
	defer nd.mu.Unlock()
	if nd.crashed || nd.closed {
		nd.net.noteDropped()
		return
	}
	select {
	case nd.inbox <- msg:
		atomic.AddInt64(&nd.net.stats.delivered, 1)
		if nd.net.met != nil {
			nd.net.met.delivered.Inc()
		}
	default:
		// Receiver overloaded: datagram dropped.
		nd.net.noteDropped()
	}
}

// Recv waits for the next message. It charges the receiver one kernel call
// per message received. It returns ErrCrashed if the node crashes while
// waiting, ErrNetworkDown if the network closes, or ctx.Err() if the
// context ends first.
func (nd *Node) Recv(ctx context.Context) (Message, error) {
	nd.mu.Lock()
	if nd.crashed {
		nd.mu.Unlock()
		return Message{}, ErrCrashed
	}
	inbox := nd.inbox
	nd.mu.Unlock()

	select {
	case msg, ok := <-inbox:
		if !ok {
			// Inbox was torn down by crash or close; report which. Only
			// closed can say: a Recover that ran before this goroutine did
			// has already cleared crashed, and the receiver must still
			// hear that it crashed — its next Recv finds the new inbox.
			nd.mu.Lock()
			closed := nd.closed
			nd.mu.Unlock()
			if closed {
				return Message{}, ErrNetworkDown
			}
			return Message{}, ErrCrashed
		}
		if d := nd.net.cfg.KernelOverhead; d > 0 {
			nd.net.clk.Sleep(d)
		}
		atomic.AddInt64(&nd.net.stats.kernel, 1)
		if nd.net.met != nil {
			nd.net.met.kernel.Inc()
		}
		return msg, nil
	case <-ctx.Done():
		return Message{}, ctx.Err()
	}
}

// Crash takes the node down: its inbox is discarded (volatile state is
// lost), pending and future deliveries are dropped, and Send/Recv fail
// with ErrCrashed until Recover.
func (nd *Node) Crash() {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	if nd.crashed || nd.closed {
		return
	}
	nd.crashed = true
	if nd.net.met != nil {
		nd.net.met.crashes.Inc()
	}
	close(nd.inbox)
	// Drain so queued messages are counted as dropped. In-flight messages
	// still in the dispatcher's heap are dropped at delivery time by the
	// crashed check in deliver.
	for range nd.inbox {
		nd.net.noteDropped()
	}
}

// Recover brings a crashed node back with an empty inbox, modeling a
// guardian restarting after a crash.
func (nd *Node) Recover() {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	if !nd.crashed || nd.closed {
		return
	}
	nd.crashed = false
	if nd.net.met != nil {
		nd.net.met.recoveries.Inc()
	}
	nd.inbox = make(chan Message, nd.net.cfg.InboxDepth)
}

// Crashed reports whether the node is currently down.
func (nd *Node) Crashed() bool {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	return nd.crashed
}

func (nd *Node) closeInbox() {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	if nd.closed {
		return
	}
	nd.closed = true
	if !nd.crashed {
		close(nd.inbox)
	}
}
