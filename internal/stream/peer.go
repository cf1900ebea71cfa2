package stream

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"promises/internal/clock"
	"promises/internal/exception"
	"promises/internal/metrics"
	"promises/internal/pqueue"
	"promises/internal/trace"
	"promises/internal/transport"
)

// Peer is the stream runtime for one entity: it owns the entity's network
// endpoint, demultiplexes incoming messages to sending streams (replies,
// breaks) and receiving streams (requests), and serves the deadlines its
// streams arm for batching and retransmission. One Peer serves both roles
// at once — an entity can be a client of some streams and the server of
// others.
//
// The peer is written against the transport seam alone: any
// transport.Endpoint — simnet's in-process cost model or tcpnet's real
// sockets — carries the same protocol bytes.
type Peer struct {
	ep   transport.Endpoint
	name string // ep.Name(), cached — the hot path never re-asks
	opts Options
	clk  clock.Clock
	sm   *streamMetrics // nil when metrics are disabled

	mu     sync.Mutex
	agents map[string]*Agent
	sends  map[streamKey]*Stream
	recvs  map[streamKey]*rstream
	closed bool

	// What the call path loads for every call it runs, with no lock: the
	// port-to-handler lookup and the parallel-port predicate (nil: none).
	dispatch atomic.Pointer[Dispatcher]
	parallel atomic.Pointer[func(port string) bool]

	tracer atomic.Pointer[trace.Tracer]

	// sched is the epoch scheduler for continuation chains, created
	// lazily on the first pipelined call this peer executes — peers that
	// never see pipelining pay nothing for it.
	sched atomic.Pointer[pipeScheduler]

	// arena holds the small argument and result lists the peer's callers
	// and handlers marshal, and the scheduler's per-chain blobs.
	arena arena

	// Bounded worker pool for parallel-port execution (see execWorker):
	// workers are spawned lazily up to execWorkers and live until Close,
	// which closes execTasks after every submitter (the runners, tracked
	// in wg) has exited.
	execTasks   chan execTask
	execWorkers atomic.Int32
	execWG      sync.WaitGroup

	// Runners execute receiving streams' calls (see handOff): runq hands a
	// stream to an idle one, and idleRunners counts those waiting on it.
	runq        chan *rstream
	idleRunners atomic.Int32

	// The deadline queue (see due), behind one timer armed for its head.
	// dueMu is a leaf lock: streams arm under their own locks. dueOff is
	// set once dueLoop has exited; nothing is armed after it.
	dueMu    sync.Mutex
	dues     *pqueue.Heap[dueEntry]
	dueTimer clock.Timer
	dueOff   bool
	// Every duty but an age flush is served on the tick grid start +
	// k·tick, k ≥ 1: at the first grid instant at or after it falls due.
	start time.Time
	tick  time.Duration
	// rtoFloor is the least retransmission timeout: MaxBatchDelay and a
	// tick, what the other end may take to ack a batch that arrived.
	rtoFloor time.Duration

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// execTask is one parallel-port call of incarnation inc handed to the
// worker pool. A typed struct rather than a closure, so submission does
// not allocate.
type execTask struct {
	r   *rstream
	req request
	inc uint64
}

// due is one duty's place in its peer's deadline queue. fire does what is
// due at the instant it was armed for (at the last tick the loop has
// reached, if that is later) and returns when the duty is next due, or
// zero. at is that instant as an offset from the peer's start, 0 while
// not queued: written under dueMu, read without it, so a duty queued in
// time already re-arms with no lock.
type due struct {
	at   atomic.Int64
	rank int
	fire func(at time.Time) time.Time
}

// Duties due at one instant fire in rank order.
const (
	rankAgeFlush = iota // a batch's age flush, at its exact deadline
	rankSend            // retransmission, pure ack, probe
	rankRecv            // owed notes, aged replies, reply retransmission
)

// dueEntry is one arming of d for at; a later arming for an earlier
// instant supersedes it.
type dueEntry struct {
	at time.Time
	d  *due
}

// NewPeer creates the stream runtime on a transport endpoint and starts
// its receive and timer loops. Clock and metrics registry are inherited
// from the endpoint when it provides them (simnet nodes expose their
// network's; tcpnet endpoints expose their config's), the registry only
// if the options did not pin one; the clock defaults to the real one.
func NewPeer(ep transport.Endpoint, opts Options) *Peer {
	ctx, cancel := context.WithCancel(context.Background())
	opts = opts.withDefaults()
	var clk clock.Clock = clock.Real{}
	if cp, ok := ep.(transport.ClockProvider); ok && cp.Clock() != nil {
		clk = cp.Clock()
	}
	if mp, ok := ep.(transport.MetricsProvider); ok && opts.Metrics == nil {
		opts.Metrics = mp.Metrics()
	}
	p := &Peer{
		ep:        ep,
		name:      ep.Name(),
		opts:      opts,
		clk:       clk,
		sm:        newStreamMetrics(opts.Metrics),
		agents:    make(map[string]*Agent),
		sends:     make(map[streamKey]*Stream),
		recvs:     make(map[streamKey]*rstream),
		execTasks: make(chan execTask, 2*execWorkers),
		runq:      make(chan *rstream),
		ctx:       ctx,
		cancel:    cancel,
	}
	p.tick = opts.MaxBatchDelay / 2
	if rto := opts.RTO / 2; rto < p.tick {
		p.tick = rto
	}
	if p.tick < 200*time.Microsecond {
		p.tick = 200 * time.Microsecond
	}
	p.rtoFloor = opts.MaxBatchDelay + p.tick
	p.start = p.clk.Now()
	p.dues = pqueue.NewHeap(func(a, b dueEntry) bool {
		return a.at.Before(b.at) || a.at.Equal(b.at) && a.d.rank < b.d.rank
	})
	p.dueTimer = p.clk.NewTimer(time.Hour)
	p.dueTimer.Stop()
	p.wg.Add(2)
	go p.recvLoop()
	go p.dueLoop()
	return p
}

// Endpoint returns the transport endpoint the peer runs on.
func (p *Peer) Endpoint() transport.Endpoint { return p.ep }

// Clock returns the peer's time source.
func (p *Peer) Clock() clock.Clock { return p.clk }

// Options returns the peer's protocol options (defaults applied).
func (p *Peer) Options() Options { return p.opts }

// Metrics returns the registry the peer's instrumentation registers
// into (nil when metrics are disabled). Layers built on the peer — the
// guardian's dispatch counters, for one — take their registry from here,
// completing the same inheritance chain as Clock.
func (p *Peer) Metrics() *metrics.Registry { return p.opts.Metrics }

// SetDispatcher installs the port-to-handler lookup used for incoming
// calls. Entities that only make calls never set one.
func (p *Peer) SetDispatcher(d Dispatcher) { p.dispatch.Store(&d) }

// SetTracer installs a protocol-event tracer on this peer (nil removes
// it). Tracing covers both roles: calls this peer sends and calls it
// receives. A tracer that implements trace.NowSetter is wired to the
// peer's clock automatically, so events recorded directly against it
// (outside the peer's own emit path, which always stamps peer time)
// carry virtual timestamps whenever the peer runs on a virtual clock —
// no manual Ring.SetNow call needed.
func (p *Peer) SetTracer(t trace.Tracer) {
	if t == nil {
		p.tracer.Store(nil)
		return
	}
	if ns, ok := t.(trace.NowSetter); ok {
		ns.SetNow(p.clk.Now)
	}
	p.tracer.Store(&t)
}

// tracing reports whether a tracer is installed. Hot paths check it
// before building emit arguments, so trace detail strings are only
// formatted when someone is listening.
func (p *Peer) tracing() bool { return p.tracer.Load() != nil }

// emit records a protocol event if a tracer is installed. tid is the
// call's trace ID for call-scoped events, 0 for stream- or batch-scoped
// ones.
func (p *Peer) emit(kind trace.Kind, stream string, seq, tid uint64, detail string) {
	p.emitCause(kind, stream, seq, tid, trace.Cause{}, detail)
}

// emitCause is emit for call-scoped events that carry a propagated causal
// context: the chain's root trace ID and the causing call's trace ID ride
// the event, so the correlator can join cross-guardian chains without any
// per-process state.
func (p *Peer) emitCause(kind trace.Kind, stream string, seq, tid uint64, c trace.Cause, detail string) {
	tp := p.tracer.Load()
	if tp == nil {
		return
	}
	(*tp).Record(trace.Event{At: p.clk.Now(), Kind: kind, Stream: stream, Seq: seq,
		TraceID: tid, Root: c.Root, Parent: c.Parent, Detail: detail})
}

// SetParallelPorts installs the predicate that marks ports whose calls
// may be processed in parallel with other calls on the same stream — the
// "explicit override" §2.1 of the paper anticipates for more
// sophisticated receivers. Calls to unmarked ports still wait for every
// earlier call on their stream, parallel ones included.
func (p *Peer) SetParallelPorts(pred func(port string) bool) { p.parallel.Store(&pred) }

// isParallel reports whether calls to port run on the worker pool.
func (p *Peer) isParallel(port string) bool {
	pred := p.parallel.Load()
	return pred != nil && *pred != nil && (*pred)(port)
}

// handler finds port's handler; with no dispatcher set, none exists.
func (p *Peer) handler(port string) (Handler, bool) {
	d := p.dispatch.Load()
	if d == nil || *d == nil {
		return nil, false
	}
	return (*d)(port)
}

// Agent returns the named agent, creating it on first use. Each concurrent
// activity should use its own agent.
func (p *Peer) Agent(name string) *Agent {
	p.mu.Lock()
	defer p.mu.Unlock()
	a, ok := p.agents[name]
	if !ok {
		a = &Agent{peer: p, name: name}
		p.agents[name] = a
	}
	return a
}

func (p *Peer) senderStream(key streamKey) *Stream {
	p.mu.Lock()
	defer p.mu.Unlock()
	s, ok := p.sends[key]
	if !ok {
		s = newStream(p, key, p.opts)
		p.sends[key] = s
	}
	return s
}

// handOff gives stream r, which has calls to run and no runner, to an
// idle runner, or to a new one when none is parked. Callers hold a wg
// count (the receive loop does), so the Add cannot race Close's Wait.
func (p *Peer) handOff(r *rstream) {
	select {
	case p.runq <- r:
	default:
		p.wg.Add(1)
		go p.runner(r)
	}
}

// runner runs the streams handed to it, one at a time, each until it has
// nothing left to run, then parks on runq: waking a parked runner costs
// what a channel send does, where a fresh goroutine would regrow its
// stack through the handler. At most execWorkers runners park.
func (p *Peer) runner(r *rstream) {
	defer p.wg.Done()
	var scratch Incoming // reused across calls; retired after each
	for {
		r.run(&scratch)
		if p.idleRunners.Add(1) > execWorkers {
			p.idleRunners.Add(-1)
			return
		}
		select {
		case r = <-p.runq:
			p.idleRunners.Add(-1)
		case <-p.ctx.Done():
			return
		}
	}
}

// submitParallel hands one parallel-port call to the worker pool,
// spawning a worker if the pool is below its cap. It returns false only
// when the peer is shutting down and the task was not accepted — the
// caller then abandons the call, as a crash would. The pool outlives the
// submitters (Close closes execTasks only after wg — which tracks every
// runner — has drained), so an accepted task is always executed and its
// outstanding count always released.
func (p *Peer) submitParallel(t execTask) bool {
	if n := p.execWorkers.Load(); n < execWorkers {
		if p.execWorkers.CompareAndSwap(n, n+1) {
			p.execWG.Add(1)
			go p.execWorker()
		}
	}
	select {
	case p.execTasks <- t:
		return true
	case <-p.ctx.Done():
		return false
	}
}

// execWorker runs parallel-port calls until the pool channel closes.
// Workers deliberately do not watch ctx: during shutdown they must keep
// draining accepted tasks so runners blocked in outstanding.Wait can
// finish. A task may have waited in the pool while its stream broke,
// closed or moved on, so the worker checks again before it runs the call.
func (p *Peer) execWorker() {
	defer p.execWG.Done()
	var scratch Incoming // reused across calls; retired after each
	for t := range p.execTasks {
		if t.r.live(t.inc, t.req.Seq) {
			t.r.executeOne(t.req, t.inc, &scratch)
		}
		t.r.outstanding.Done()
	}
}

// transmit sends a protocol message, ignoring local send errors: if our
// node is crashed or the target vanished, retransmission timers and
// retry exhaustion turn the silence into a broken stream.
func (p *Peer) transmit(to string, payload []byte) {
	_ = p.ep.Send(to, payload)
}

// recvLoop demultiplexes every incoming message.
func (p *Peer) recvLoop() {
	defer p.wg.Done()
	// One reusable timer paces the crashed-node polling; time.After here
	// would allocate a timer per iteration for the whole crash duration.
	var wait clock.Timer
	defer func() {
		if wait != nil {
			wait.Stop()
		}
	}()
	for {
		msg, err := p.ep.Recv(p.ctx)
		switch {
		case err == nil:
			p.handleMessage(msg)
		case errors.Is(err, transport.ErrCrashed):
			// The node is down; volatile stream state is gone. Wait for
			// recovery (the guardian restarting) or shutdown.
			p.dropAllStreams()
			if wait == nil {
				wait = p.clk.NewTimer(time.Millisecond)
			} else {
				wait.Reset(time.Millisecond)
			}
			select {
			case <-p.ctx.Done():
				return
			case <-wait.C():
			}
		default:
			return // context cancelled or network closed
		}
	}
}

// dropAllStreams discards all stream state, as a crash would.
func (p *Peer) dropAllStreams() {
	p.mu.Lock()
	sends := p.sends
	recvs := p.recvs
	p.sends = make(map[streamKey]*Stream)
	p.recvs = make(map[streamKey]*rstream)
	p.mu.Unlock()
	for _, s := range sends {
		s.breakInternal(exception.Unavailable("node crashed"), true)
	}
	for _, r := range recvs {
		r.close()
	}
}

func (p *Peer) handleMessage(msg transport.Message) {
	kind, rb, pb, bm, err := decodeMessage(msg.Payload)
	if err != nil {
		// A garbled datagram, which retransmission recovers — or a layout
		// this package does not write, which it never will: counted, so a
		// peer speaking one shows in /metrics before its streams break.
		p.sm.noteRejected()
		return
	}
	switch kind {
	case kindRequestBatch:
		key := streamKey{senderNode: msg.From, agent: rb.Agent, recvNode: p.name, group: rb.Group}
		if r := p.recvStream(key, rb.Incarnation); r != nil {
			r.handleRequestBatch(rb)
		}
		// The handler copied what it keeps (entry values go into the seq
		// rings; their Args keep aliasing the datagram, not the batch).
		releaseRequestBatch(rb)
	case kindReplyBatch:
		key := streamKey{senderNode: p.name, agent: pb.Agent, recvNode: msg.From, group: pb.Group}
		p.mu.Lock()
		s := p.sends[key]
		p.mu.Unlock()
		if s != nil {
			s.handleReplyBatch(pb)
		}
		releaseReplyBatch(pb)
	case kindBreak:
		// A break can be addressed to our receiving end (sender broke) or
		// to our sending end (receiver broke). Route by key match.
		rkey := streamKey{senderNode: msg.From, agent: bm.Agent, recvNode: p.name, group: bm.Group}
		skey := streamKey{senderNode: p.name, agent: bm.Agent, recvNode: msg.From, group: bm.Group}
		p.mu.Lock()
		r := p.recvs[rkey]
		s := p.sends[skey]
		p.mu.Unlock()
		if r != nil {
			r.handleBreak(bm)
		}
		if s != nil {
			s.handleBreak(bm)
		}
	}
}

// scheduler returns the peer's epoch scheduler, creating it (and its
// wave loop) on first use.
func (p *Peer) scheduler() *pipeScheduler {
	if ps := p.sched.Load(); ps != nil {
		return ps
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if ps := p.sched.Load(); ps != nil {
		return ps
	}
	ps := newPipeScheduler(p)
	if !p.closed {
		p.wg.Add(1)
		go ps.loop()
	}
	p.sched.Store(ps)
	return ps
}

// resolvePipe retains a chain's outcome at this peer's receiving end of
// the origin stream ref names, which owes the caller the pipelined call's
// reply, and adds that reply lane to lanes for flushing. A resolution for
// a stream this peer no longer has is dropped.
func (p *Peer) resolvePipe(ref pipeRef, o Outcome, lanes *replyLanes) {
	p.mu.Lock()
	r := p.recvs[ref.streamKey]
	p.mu.Unlock()
	if r != nil && r.resolvePiped(ref.incarnation, ref.seq, o) {
		lanes.add(r)
	}
}

// recvStream returns (creating on first use) the receiving stream for a
// key. It returns nil once the peer is closed, so a message racing with
// Close cannot register a stream that shutdown would never close.
func (p *Peer) recvStream(key streamKey, incarnation uint64) *rstream {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil
	}
	r, ok := p.recvs[key]
	if !ok {
		r = newRStream(p, key, incarnation, p.opts)
		p.recvs[key] = r
	}
	return r
}

// arm queues d, which falls due at when as seen at now: an age flush for
// when itself, any other duty for the first tick at or after when and
// after now, the instant being served. A duty already queued for that
// instant or earlier is left as it is: when it fires, it returns its next.
func (p *Peer) arm(d *due, when, now time.Time) {
	at := when
	if d.rank != rankAgeFlush {
		if when.After(now) {
			now = when.Add(-1)
		}
		at = p.start.Add((now.Sub(p.start)/p.tick + 1) * p.tick)
	}
	off := int64(at.Sub(p.start))
	if cur := d.at.Load(); cur != 0 && cur <= off {
		return
	}
	p.dueMu.Lock()
	defer p.dueMu.Unlock()
	if cur := d.at.Load(); p.dueOff || cur != 0 && cur <= off {
		return
	}
	d.at.Store(off)
	if head, ok := p.dues.Peek(); !ok || at.Before(head.at) {
		p.dueTimer.Reset(at.Sub(p.clk.Now()))
	}
	p.dues.Push(dueEntry{at, d})
}

// dueLoop fires each queued duty when its instant comes, in (instant,
// rank) order, re-arms it for the instant it returns, and sets dueTimer
// for the first entry still live, so a superseded one costs no wake-up.
// An idle peer's timer is left unarmed.
func (p *Peer) dueLoop() {
	defer p.wg.Done()
	for {
		select {
		case <-p.ctx.Done():
			p.dueMu.Lock()
			p.dueOff = true
			p.dueTimer.Stop()
			p.dues.Drain(nil)
			p.dueMu.Unlock()
			return
		case <-p.dueTimer.C():
		}
		now := p.clk.Now()
		p.dueMu.Lock()
		for {
			e, ok := p.dues.Peek()
			if !ok {
				break
			}
			if e.d.at.Load() != int64(e.at.Sub(p.start)) {
				p.dues.Pop() // superseded by an arming for an earlier instant
				continue
			}
			if e.at.After(now) {
				p.dueTimer.Reset(e.at.Sub(p.clk.Now()))
				break
			}
			p.dues.Pop()
			e.d.at.Store(0)
			p.dueMu.Unlock()
			// A loop that fell behind a whole tick serves the duty at the
			// last tick it has reached, as a ticker that drops missed
			// ticks did: a stall costs one retransmission or probe, then
			// a whole RTO's wait, not a burst of them.
			at := e.at
			if tick := p.start.Add(now.Sub(p.start) / p.tick * p.tick); tick.After(at) {
				at = tick
			}
			if next := e.d.fire(at); !next.IsZero() {
				p.arm(e.d, next, at)
			}
			p.dueMu.Lock()
		}
		p.dueMu.Unlock()
	}
}

// Crash models a node crash: the endpoint goes down (when the backend
// supports fault injection) and all volatile stream state is lost.
// Outstanding local promises resolve with unavailable.
func (p *Peer) Crash() {
	if f, ok := p.ep.(transport.Faulter); ok {
		f.Crash()
	}
	p.dropAllStreams()
}

// Recover brings the node back up, as a guardian recovering from a crash.
// Streams start over with fresh state when next used.
func (p *Peer) Recover() {
	if f, ok := p.ep.(transport.Faulter); ok {
		f.Recover()
	}
}

// Close shuts down the peer: all runners stop and background loops
// exit. Outstanding sender promises resolve with unavailable. Receiving
// streams close first, so a handler that a broken sending stream hands
// "peer shut down" cannot send that out as its reply.
func (p *Peer) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	// Fresh: the scheduler may still open streams while these are broken.
	sends := p.sends
	p.sends = make(map[streamKey]*Stream)
	recvs := p.recvs
	p.mu.Unlock()

	for _, r := range recvs {
		r.close()
	}
	for _, s := range sends {
		s.Break(exception.Unavailable("peer shut down"))
	}
	p.cancel()
	p.wg.Wait()
	// Every submitter (the runners, tracked in wg) has exited; the pool
	// can now drain its remaining tasks and stop.
	close(p.execTasks)
	p.execWG.Wait()
}
