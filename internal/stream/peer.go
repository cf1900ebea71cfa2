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
	"promises/internal/trace"
	"promises/internal/transport"
)

// Peer is the stream runtime for one entity: it owns the entity's network
// endpoint, demultiplexes incoming messages to sending streams (replies,
// breaks) and receiving streams (requests), and drives the background
// timers for batching and retransmission. One Peer serves both roles at
// once — an entity can be a client of some streams and the server of
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

	mu       sync.Mutex
	agents   map[string]*Agent
	sends    map[streamKey]*Stream
	recvs    map[streamKey]*rstream
	dispatch Dispatcher
	parallel func(port string) bool
	closed   bool

	tracer atomic.Pointer[trace.Tracer]

	// sched is the epoch scheduler for continuation chains, created
	// lazily on the first pipelined call this peer executes — peers that
	// never see pipelining pay nothing for it.
	sched atomic.Pointer[pipeScheduler]

	// Bounded worker pool for parallel-port execution (see execWorker):
	// workers are spawned lazily up to execWorkers and live until Close,
	// which closes execTasks after every submitter (the per-stream
	// executors, tracked in wg) has exited.
	execTasks   chan execTask
	execWorkers atomic.Int32
	execWG      sync.WaitGroup

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// execTask is one parallel-port call handed to the worker pool. A typed
// struct rather than a closure, so submission does not allocate.
type execTask struct {
	r   *rstream
	req request
}

// NewPeer creates the stream runtime on a transport endpoint and starts
// its receive and timer loops. Clock and metrics registry are inherited
// from the endpoint when it provides them (simnet nodes expose their
// network's; tcpnet endpoints expose their config's) and the options did
// not pin them.
func NewPeer(ep transport.Endpoint, opts Options) *Peer {
	ctx, cancel := context.WithCancel(context.Background())
	opts = opts.withDefaults()
	if opts.Clock == nil {
		if cp, ok := ep.(transport.ClockProvider); ok {
			opts.Clock = cp.Clock()
		}
		if opts.Clock == nil {
			opts.Clock = clock.Real{}
		}
	}
	if opts.Metrics == nil {
		if mp, ok := ep.(transport.MetricsProvider); ok {
			opts.Metrics = mp.Metrics()
		}
	}
	p := &Peer{
		ep:        ep,
		name:      ep.Name(),
		opts:      opts,
		clk:       opts.Clock,
		sm:        newStreamMetrics(opts.Metrics),
		agents:    make(map[string]*Agent),
		sends:     make(map[streamKey]*Stream),
		recvs:     make(map[streamKey]*rstream),
		execTasks: make(chan execTask, 2*execWorkers),
		ctx:       ctx,
		cancel:    cancel,
	}
	p.wg.Add(2)
	go p.recvLoop()
	go p.tickLoop()
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
func (p *Peer) SetDispatcher(d Dispatcher) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.dispatch = d
}

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
func (p *Peer) SetParallelPorts(pred func(port string) bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.parallel = pred
}

func (p *Peer) parallelPredicate() func(port string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.parallel == nil {
		return neverParallel
	}
	return p.parallel
}

func neverParallel(string) bool { return false }

func (p *Peer) dispatcher() Dispatcher {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.dispatch == nil {
		return func(string) (Handler, bool) { return nil, false }
	}
	return p.dispatch
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
		if !p.closed {
			// The precise age-flush timer (sender.go flushLoop). A stream
			// created in a race with Close gets none: the peer is dead and
			// its transmits are no-ops anyway, and wg.Add after wg.Wait
			// would race.
			p.wg.Add(1)
			go s.flushLoop()
		}
	}
	return s
}

// submitParallel hands one parallel-port call to the worker pool,
// spawning a worker if the pool is below its cap. It returns false only
// when the peer is shutting down and the task was not accepted — the
// caller then abandons the call, as a crash would. The pool outlives the
// submitters (Close closes execTasks only after wg — which tracks every
// executor — has drained), so an accepted task is always executed and
// its outstanding count always released.
func (p *Peer) submitParallel(r *rstream, req request) bool {
	if n := p.execWorkers.Load(); n < execWorkers {
		if p.execWorkers.CompareAndSwap(n, n+1) {
			p.execWG.Add(1)
			go p.execWorker()
		}
	}
	select {
	case p.execTasks <- execTask{r: r, req: req}:
		return true
	case <-p.ctx.Done():
		return false
	}
}

// execWorker runs parallel-port calls until the pool channel closes.
// Workers deliberately do not watch ctx: during shutdown they must keep
// draining accepted tasks so executors blocked in outstanding.Wait can
// finish.
func (p *Peer) execWorker() {
	defer p.execWG.Done()
	var scratch Incoming // reused across calls; retired after each
	for t := range p.execTasks {
		t.r.executeOne(t.req, &scratch)
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
		s.systemBreak(exception.Unavailable("node crashed"))
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
	r := p.recvs[ref.key()]
	p.mu.Unlock()
	if r != nil && r.resolvePiped(ref.incarnation, ref.seq, o) {
		lanes.add(r)
	}
}

// recvStream returns (creating on first use) the receiving stream for a
// key. It returns nil once the peer is closed, so a message racing with
// Close cannot register an executor that shutdown would never stop.
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

// tickLoop drives batching-delay flushes and retransmission for every
// stream on this peer.
func (p *Peer) tickLoop() {
	defer p.wg.Done()
	interval := p.opts.MaxBatchDelay / 2
	if rto := p.opts.RTO / 2; rto < interval {
		interval = rto
	}
	if interval < 200*time.Microsecond {
		interval = 200 * time.Microsecond
	}
	ticker := p.clk.NewTicker(interval)
	defer ticker.Stop()
	// The snapshot slices persist across ticks so steady-state ticking
	// does not allocate; entries are cleared after use so dropped streams
	// are not pinned until the next tick.
	var sends []*Stream
	var recvs []*rstream
	for {
		select {
		case <-p.ctx.Done():
			return
		case now := <-ticker.C():
			p.mu.Lock()
			sends = sends[:0]
			for _, s := range p.sends {
				sends = append(sends, s)
			}
			recvs = recvs[:0]
			for _, r := range p.recvs {
				recvs = append(recvs, r)
			}
			p.mu.Unlock()
			for i, s := range sends {
				s.tick(now)
				sends[i] = nil
			}
			for i, r := range recvs {
				r.tick(now)
				recvs[i] = nil
			}
			if ps := p.sched.Load(); ps != nil {
				ps.tick()
			}
		}
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

// Close shuts down the peer: all receiving executors stop and background
// loops exit. Outstanding sender promises resolve with unavailable.
func (p *Peer) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	sends := p.sends
	recvs := p.recvs
	p.mu.Unlock()

	for _, s := range sends {
		s.Break(exception.Unavailable("peer shut down"))
	}
	p.cancel()
	for _, r := range recvs {
		r.close()
	}
	p.wg.Wait()
	// Every submitter (the executors, tracked in wg) has exited; the pool
	// can now drain its remaining tasks and stop.
	close(p.execTasks)
	p.execWG.Wait()
}
