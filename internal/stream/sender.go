package stream

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"promises/internal/clock"
	"promises/internal/exception"
	"promises/internal/trace"
)

// Agent identifies one activity within an entity; it is the sending end of
// streams. All calls sent by an agent to ports in one port group travel on
// the same stream and are therefore sequenced. Separate activities should
// use separate agents so they do not synchronize with (or deadlock against)
// one another.
type Agent struct {
	peer *Peer
	name string
}

// Name returns the agent's name, unique within its peer.
func (a *Agent) Name() string { return a.name }

// Stream returns the stream from this agent to the given port group of the
// entity at recvNode, creating it on first use.
func (a *Agent) Stream(recvNode, group string) *Stream {
	return a.peer.senderStream(streamKey{
		senderNode: a.peer.name,
		agent:      a.name,
		recvNode:   recvNode,
		group:      group,
	})
}

// pendingCall is the pooled resolution cell behind a Pending handle. Cells
// cycle through pendingPool: a call draws one at enqueue, and Release
// returns it once the outcome has been claimed. The generation counter is
// bumped on every recycle, so a stale handle — one kept past its Release —
// is detected by the gen snapshot it carries and fails loudly instead of
// silently aliasing a newer call.
type pendingCall struct {
	mode Mode

	// Claim instrumentation, inherited from the stream at creation: sm is
	// nil when metrics are disabled, and clk is only read when sm is set.
	sm  *streamMetrics
	clk clock.Clock
	// enqAt is when the call entered the stream, for the enqueue→resolve
	// stage histogram. Only stamped when metrics are enabled.
	enqAt time.Time

	gen      atomic.Uint32 // recycle counter; handles snapshot it
	resolved atomic.Bool
	released atomic.Bool

	mu      sync.Mutex
	cond    sync.Cond     // L == &mu; broadcast on resolve
	outcome Outcome       // valid once resolved
	done    chan struct{} // lazily created; closed once resolved
}

var pendingPool = sync.Pool{New: func() any {
	c := &pendingCall{}
	c.cond.L = &c.mu
	return c
}}

// Pending is the transport-level handle for one call's eventual outcome;
// the promise package wraps it with types. A Pending becomes ready exactly
// once. Readiness is ordered: the pending for call i+1 becomes ready only
// after the pending for call i ("if the i+1st result is ready, then so is
// the ith").
//
// The handle is a small value (copy it freely) over a pooled cell. Once
// the outcome has been claimed, Release returns the cell to the pool so a
// steady-state workload allocates nothing per call; Release is optional —
// an unreleased cell is simply collected — but a handle used after its
// Release panics rather than aliasing whichever call reuses the cell.
// The panic is best-effort under concurrent misuse (claiming on one
// goroutine while releasing on another is a bug either way); sequential
// use-after-release is always caught.
type Pending struct {
	Seq uint64
	gen uint32
	c   *pendingCall
}

func newPending(seq uint64, mode Mode, sm *streamMetrics, clk clock.Clock) Pending {
	c := pendingPool.Get().(*pendingCall)
	c.mode = mode
	c.sm = sm
	c.clk = clk
	if sm != nil {
		c.enqAt = clk.Now()
	}
	// released resets at acquire, not at recycle, so a double Release can
	// never re-recycle a cell already handed to a new call.
	c.released.Store(false)
	return Pending{Seq: seq, gen: c.gen.Load(), c: c}
}

// Valid reports whether the handle refers to a call at all (the zero
// Pending does not).
func (p Pending) Valid() bool { return p.c != nil }

// cell returns the backing cell, panicking on a zero or stale handle.
func (p Pending) cell() *pendingCall {
	c := p.c
	if c == nil {
		panic("stream: use of zero-value Pending")
	}
	if c.gen.Load() != p.gen {
		panic("stream: use of released Pending handle")
	}
	return c
}

// noteClaim records one claim. Only blocking claims pay extra updates
// (a blocked counter and the wait histogram); the ready-at-claim fast
// path is a single increment, and the paper's "was the answer already
// there when the program asked" ratio is (claims - blocked) / claims.
func (c *pendingCall) noteClaim(ready bool, wait time.Duration) {
	if c.sm == nil {
		return
	}
	if !ready {
		c.sm.claimsBlocked.Inc()
		c.sm.claimWait.ObserveDuration(wait)
	}
	c.sm.claims.Inc()
}

func (c *pendingCall) resolve(o Outcome) {
	c.mu.Lock()
	c.outcome = o
	c.resolved.Store(true)
	if c.done != nil {
		close(c.done)
	}
	c.cond.Broadcast()
	c.mu.Unlock()
}

// Ready reports whether the outcome has arrived.
func (p Pending) Ready() bool { return p.cell().resolved.Load() }

// Done returns a channel closed when the outcome is ready. The channel is
// materialized lazily: claims through Ready/Get/Wait-without-deadline
// never pay the allocation.
func (p Pending) Done() <-chan struct{} {
	c := p.cell()
	c.mu.Lock()
	if c.done == nil {
		c.done = make(chan struct{})
		if c.resolved.Load() {
			close(c.done)
		}
	}
	d := c.done
	c.mu.Unlock()
	return d
}

// Wait blocks until the outcome is ready or ctx ends.
func (p Pending) Wait(ctx context.Context) (Outcome, error) {
	c := p.cell()
	if c.resolved.Load() {
		c.noteClaim(true, 0)
		return c.outcome, nil
	}
	if ctx.Done() == nil {
		// No cancellation possible: block on the cell's condition variable
		// instead of materializing the done channel. This keeps a blocking
		// claim allocation-free.
		return c.await(p.gen), nil
	}
	var start time.Time
	if c.sm != nil {
		start = c.clk.Now()
	}
	select {
	case <-p.Done():
		if c.sm != nil {
			c.noteClaim(false, c.clk.Now().Sub(start))
		}
		return c.outcome, nil
	case <-ctx.Done():
		return Outcome{}, ctx.Err()
	}
}

// Get returns the outcome, blocking until it is ready.
func (p Pending) Get() Outcome {
	c := p.cell()
	if c.resolved.Load() {
		c.noteClaim(true, 0)
		return c.outcome
	}
	return c.await(p.gen)
}

// await blocks on the condition variable until the cell resolves. gen is
// the caller's handle snapshot: a recycle while waiting is misuse
// (released with a claim in progress) and panics.
func (c *pendingCall) await(gen uint32) Outcome {
	var start time.Time
	if c.sm != nil {
		start = c.clk.Now()
	}
	c.mu.Lock()
	for !c.resolved.Load() {
		if c.gen.Load() != gen {
			c.mu.Unlock()
			panic("stream: Pending released while a claim was in progress")
		}
		c.cond.Wait()
	}
	o := c.outcome
	c.mu.Unlock()
	if c.sm != nil {
		c.noteClaim(false, c.clk.Now().Sub(start))
	}
	return o
}

// Release returns the handle's cell to the pool for reuse by a later
// call. It requires the outcome to have arrived (claim first, then
// release) and panics on a second Release or any later use of the handle.
// Releasing is optional — it is what makes the steady-state round trip
// allocation-free, not a correctness obligation.
func (p Pending) Release() {
	c := p.cell()
	if !c.resolved.Load() {
		panic("stream: Release of an unresolved Pending")
	}
	if !c.released.CompareAndSwap(false, true) {
		panic("stream: Pending released twice")
	}
	c.mu.Lock()
	c.gen.Add(1) // stale handles now fail loudly
	c.outcome = Outcome{}
	c.resolved.Store(false)
	c.done = nil
	c.sm = nil
	c.clk = nil
	c.enqAt = time.Time{}
	c.mu.Unlock()
	pendingPool.Put(c)
}

// Stream is the sending end of one call-stream. All methods are safe for
// concurrent use, though a stream normally belongs to a single activity.
type Stream struct {
	peer    *Peer
	key     streamKey
	keyStr  string // key.String(), cached once — the hot path never rebuilds it
	keyHash uint64 // trace.HashStream(keyStr), cached for trace-ID derivation
	opts    Options

	// The batch lane: assembly and retransmission state, guarded by
	// batchMu. The lock order is mu before batchMu; flush drops mu before
	// encoding, so a batch is built without holding the stream lock.
	batchMu      sync.Mutex
	buffer       []request // accepted but not yet transmitted
	bufferBytes  int       // approximate encoded size of buffer (byte budget)
	bufferedAt   time.Time // when buffer[0] was accepted
	lastArriveAt time.Time // when the newest buffered call was accepted (quiescence flush)
	unacked      []request // transmitted but not acked by receiver
	lastSendAt   time.Time // when unacked was last (re)transmitted

	// flushArm signals the flush-timer goroutine that the buffer went
	// from empty to non-empty (see flushLoop). Buffered; signals coalesce.
	flushArm chan struct{}

	mu          sync.Mutex
	incarnation uint64
	nextSeq     uint64 // seq to assign to the next call (starts at 1)
	broken      bool
	breakErr    *exception.Exception

	// Per-seq resolution state, guarded by mu.
	pending     seqRing[Pending]
	heldReplies seqRing[Outcome]

	// Synchronous-break grace state: the receiver announced a break after
	// pendingBreakAfter, so replies through that seq were (or are about to
	// be) delivered. We hold the break open until they drain — or until a
	// grace timeout, in case the final reply batch was lost.
	pendingBreak       bool
	pendingBreakAfter  uint64
	pendingBreakReason *exception.Exception
	pendingBreakAt     time.Time

	ackedThrough uint64 // receiver acked requests through this seq
	retries      int

	// Adaptive batch controller state (see adaptive.go); the zero value
	// is disabled and batchLimitLocked falls back to opts.MaxBatch.
	adapt adaptiveState

	// Flow control. grantThrough is the receiver's advertised admission
	// credit (0 until a versioned reply batch arrives; legacy receivers
	// never advertise). flowWaiters are enqueues blocked on the in-flight
	// window or the credit, woken whenever either can have moved.
	grantThrough uint64
	flowWaiters  []chan struct{}

	// Resolution cursors.
	nextResolve      uint64 // seq whose outcome is resolved next (ordered readiness)
	completedThrough uint64

	// Synch bookkeeping.
	boundarySeq  uint64          // first seq after the last synch / RPC / incarnation
	lastExcSeq   uint64          // highest seq that resolved exceptionally
	synchWaiters []chan struct{} // woken whenever resolution progresses

	// lastAckedReplies is the highest reply ack we have transmitted, so
	// idle ticks only send a pure ack when the receiver hasn't heard it.
	lastAckedReplies uint64

	// recvEpoch is the boot epoch of the receiving end we have been
	// talking to (0 = none seen yet this incarnation). A different epoch
	// in a reply batch means the receiver lost its stream state.
	recvEpoch uint64

	// lastProgressAt is the last time we heard from the receiver (any
	// valid reply batch) or made local progress. While calls are
	// outstanding and the receiver is silent past RTO, the sender probes
	// with empty request batches; MaxRetries silent probes break the
	// stream. This is what detects a receiver that acknowledged requests
	// and then crashed, leaving nothing to retransmit.
	lastProgressAt time.Time
}

func newStream(p *Peer, key streamKey, opts Options) *Stream {
	keyStr := key.String()
	s := &Stream{
		peer:           p,
		key:            key,
		keyStr:         keyStr,
		keyHash:        trace.HashStream(keyStr),
		opts:           opts,
		flushArm:       make(chan struct{}, 1),
		incarnation:    1,
		nextSeq:        1,
		nextResolve:    1,
		boundarySeq:    1,
		lastProgressAt: p.clk.Now(),
	}
	s.adapt.initAdaptive(opts, s.lastProgressAt)
	return s
}

// InFlight returns the number of unresolved calls outstanding on the
// stream (buffered, in transit, or awaiting replies).
func (s *Stream) InFlight() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int(s.nextSeq - s.nextResolve)
}

// BatchLimit returns the current call-count batch closure limit: the
// adapted value when AdaptiveBatch is on, MaxBatch otherwise.
func (s *Stream) BatchLimit() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.batchLimitLocked()
}

// Key returns a human-readable identification of the stream.
func (s *Stream) Key() string { return s.keyStr }

// Incarnation returns the current incarnation number (starting at 1, bumped
// by each restart).
func (s *Stream) Incarnation() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.incarnation
}

// Broken reports whether the stream is currently broken (and, with
// auto-restart off, unusable until Restart).
func (s *Stream) Broken() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.broken
}

// Sibling returns the stream from the same agent to another port group,
// creating it on first use. The caller-mediated pipelining fallback uses
// it to reach later-stage guardians when the first stage's endpoint turned
// out not to understand continuations.
func (s *Stream) Sibling(recvNode, group string) *Stream {
	if recvNode == s.key.recvNode && group == s.key.group {
		return s
	}
	return s.peer.Agent(s.key.agent).Stream(recvNode, group)
}

// CallPipelined makes a stream call whose result feeds a continuation
// chain executed guardian-to-guardian: stage N+1 runs at the guardian that
// produced stage N's output, with no hop back to the caller. The returned
// Pending resolves with the LAST stage's outcome when the receiving chain
// understands continuations (Outcome.Piped true); a legacy first-stage
// endpoint instead replies with stage one's value un-piped, and the caller
// is then responsible for the remaining stages (promise.Graph does this
// transparently). With no stages this is exactly CallCause.
func (s *Stream) CallPipelined(ctx context.Context, port string, args []byte, cause trace.Cause, stages []PipeStage) (Pending, error) {
	return s.CallMarshalled(ctx, port, plain(args), cause, stages)
}

// CallMarshalled is CallPipelined (CallCause when stages is empty) for
// arguments encoded by Marshal: when they fill a page the call is
// transmitted at once, as a batch of its own built around them in place.
func (s *Stream) CallMarshalled(ctx context.Context, port string, args Marshalled, cause trace.Cause, stages []PipeStage) (Pending, error) {
	if len(stages) == 0 {
		return s.enqueue(ctx, port, args, ModeCall, cause, nil)
	}
	return s.enqueue(ctx, port, args, ModeCall, cause, &pipeArg{stages: stages})
}

// Call makes a stream call to the named port with pre-encoded arguments.
// It returns a Pending for the reply, or an error if the stream is broken
// (in which case, per §3, no pending is created). The call is buffered;
// it is transmitted when the batch fills (by count or byte budget), when
// MaxBatchDelay elapses, or at the next Flush. With MaxInFlight set, Call
// blocks while the in-flight window (or the receiver's advertised credit)
// is exhausted; use CallCtx to bound that wait.
func (s *Stream) Call(port string, args []byte) (Pending, error) {
	return s.enqueue(context.Background(), port, plain(args), ModeCall, trace.Cause{}, nil)
}

// CallCtx is Call with a context bounding the flow-control wait: if the
// stream's in-flight window is full, the enqueue blocks until a slot
// frees, the stream breaks, or ctx ends (returning ctx.Err() with no
// pending created).
func (s *Stream) CallCtx(ctx context.Context, port string, args []byte) (Pending, error) {
	return s.enqueue(ctx, port, plain(args), ModeCall, trace.Cause{}, nil)
}

// CallCause is CallCtx carrying an upstream causal context: the cause's
// root and parent trace IDs ride the request batch's versioned trailing
// wire header, joining this call into its initiator's cross-guardian
// chain. A handler issuing downstream calls passes the incoming call's
// child cause (Incoming.ChildCause, or guardian.Call.Cause); a
// top-level activity that wants its fan-out grouped under one root
// passes a fixed non-zero Cause of its own. The zero Cause makes this
// identical to CallCtx.
func (s *Stream) CallCause(ctx context.Context, port string, args []byte, cause trace.Cause) (Pending, error) {
	return s.enqueue(ctx, port, plain(args), ModeCall, cause, nil)
}

// Send makes a send to the named port: the sender hears back only if the
// call terminates abnormally. The returned Pending resolves with an empty
// normal outcome on success; sends exist so that "normal replies can be
// omitted" from the wire.
func (s *Stream) Send(port string, args []byte) (Pending, error) {
	return s.enqueue(context.Background(), port, plain(args), ModeSend, trace.Cause{}, nil)
}

// SendCtx is Send with a context bounding the flow-control wait, like
// CallCtx.
func (s *Stream) SendCtx(ctx context.Context, port string, args []byte) (Pending, error) {
	return s.enqueue(ctx, port, plain(args), ModeSend, trace.Cause{}, nil)
}

// SendCause is SendCtx carrying an upstream causal context, like
// CallCause.
func (s *Stream) SendCause(ctx context.Context, port string, args []byte, cause trace.Cause) (Pending, error) {
	return s.enqueue(ctx, port, plain(args), ModeSend, cause, nil)
}

// SendMarshalled is SendCause for arguments encoded by Marshal, like
// CallMarshalled.
func (s *Stream) SendMarshalled(ctx context.Context, port string, args Marshalled, cause trace.Cause) (Pending, error) {
	return s.enqueue(ctx, port, args, ModeSend, cause, nil)
}

// RPC makes a remote procedure call: the request bypasses the batch buffer
// and the caller waits for the reply. An RPC also establishes a synch
// boundary, like Argus's regular calls do.
func (s *Stream) RPC(ctx context.Context, port string, args []byte) (Outcome, error) {
	return s.RPCCause(ctx, port, args, trace.Cause{})
}

// RPCCause is RPC carrying an upstream causal context, like CallCause.
func (s *Stream) RPCCause(ctx context.Context, port string, args []byte, cause trace.Cause) (Outcome, error) {
	return s.RPCMarshalled(ctx, port, plain(args), cause)
}

// RPCMarshalled is RPCCause for arguments encoded by Marshal, like
// CallMarshalled.
func (s *Stream) RPCMarshalled(ctx context.Context, port string, args Marshalled, cause trace.Cause) (Outcome, error) {
	p, err := s.enqueue(ctx, port, args, ModeRPC, cause, nil)
	if err != nil {
		return Outcome{}, err
	}
	s.Flush()
	o, err := p.Wait(ctx)
	if err != nil {
		return Outcome{}, err
	}
	p.Release() // the handle never escapes; recycle its cell
	s.mu.Lock()
	if p.Seq+1 > s.boundarySeq {
		s.boundarySeq = p.Seq + 1
	}
	s.mu.Unlock()
	return o, nil
}

func (s *Stream) enqueue(ctx context.Context, port string, m Marshalled, mode Mode, cause trace.Cause, pipe *pipeArg) (Pending, error) {
	args, frame := m.Bytes(), m.frame()
	s.mu.Lock()
	for {
		if s.pendingBreak {
			err := s.pendingBreakReason
			s.mu.Unlock()
			return Pending{}, err
		}
		if s.broken {
			err := s.breakErr
			s.mu.Unlock()
			if err == nil {
				err = exception.Unavailable("stream is broken")
			}
			return Pending{}, err
		}
		if s.admitLocked() {
			break
		}
		// Backpressure: the in-flight window (or the receiver's advertised
		// credit) is exhausted. Park until resolution progress, a credit
		// raise, or a break moves it — or the caller's context ends. Only
		// credit exhaustion marks the controller epoch blocked: the local
		// MaxInFlight window is self-imposed (a fast caller, not a slow
		// receiver), and larger batches still help there.
		if s.grantThrough > 0 && s.nextSeq > s.grantThrough {
			s.adapt.epochBlocked = true
		}
		w := make(chan struct{})
		s.flowWaiters = append(s.flowWaiters, w)
		s.mu.Unlock()
		sm := s.peer.sm
		var start time.Time
		if sm != nil {
			sm.flowBlocked.Inc()
			start = s.peer.clk.Now()
		}
		select {
		case <-w:
			if sm != nil {
				sm.flowWait.ObserveDuration(s.peer.clk.Now().Sub(start))
			}
		case <-ctx.Done():
			return Pending{}, ctx.Err()
		}
		s.mu.Lock()
	}
	seq := s.nextSeq
	s.nextSeq++
	tid := trace.CallID(s.keyHash, s.incarnation, seq)
	// Pipelined calls encode their continuation chain here, inside the
	// seq-assignment critical section, because the blob embeds the promise
	// reference (stream key + incarnation + seq) the chain's last guardian
	// will resolve. Plain calls pass pipe == nil and skip this entirely.
	// Mid-chain forwards carry the ORIGIN call's reference instead, so
	// every hop keeps resolving the original caller's promise.
	var cont []byte
	if pipe != nil {
		ref := pipe.ref
		if ref == (pipeRef{}) {
			ref = pipeRef{senderNode: s.key.senderNode, agent: s.key.agent,
				recvNode: s.key.recvNode, group: s.key.group,
				incarnation: s.incarnation, seq: seq}
		}
		cont = encodePipeCont(ref, pipe.stages)
	}
	p := newPending(seq, mode, s.peer.sm, s.peer.clk)
	limit := s.batchLimitLocked()
	s.pending.put(seq, p)
	// Seq assignment and the ring insert happen in one s.mu critical
	// section, so a break cannot slip between them and orphan the pending.
	// The batch append nests inside it (lock order mu -> batchMu).
	s.batchMu.Lock()
	arm := len(s.buffer) == 0
	if arm {
		s.bufferedAt = s.peer.clk.Now()
		s.lastArriveAt = s.bufferedAt
	} else if s.peer.idleFlush > 0 {
		// Each arrival pushes the quiescence deadline out; the flush loop
		// sends the batch once arrivals pause for peer.idleFlush.
		s.lastArriveAt = s.peer.clk.Now()
	}
	s.buffer = append(s.buffer, request{Seq: seq, Port: port, Mode: mode, Args: args,
		Trace: tid, Root: cause.Root, Parent: cause.Parent, Cont: cont, frame: frame})
	s.bufferBytes += reqWireSize(port, args) + len(cont)
	// A call big enough to ride alone closes the batch like an RPC does:
	// waiting for company would only get it copied (see frame.go).
	full := len(s.buffer) >= limit || mode == ModeRPC || frame != nil ||
		(s.opts.MaxBatchBytes > 0 && s.bufferBytes >= s.opts.MaxBatchBytes)
	s.batchMu.Unlock()
	s.mu.Unlock()
	if sm := s.peer.sm; sm != nil {
		sm.callsEnqueued.Inc()
	}
	if s.peer.tracing() {
		s.peer.emitCause(trace.CallEnqueued, s.keyStr, seq, tid, cause, mode.String())
	}
	if full {
		s.flush(false)
	} else if arm {
		// First call of a new batch: arm the precise flush timer. The
		// channel holds one pending signal; a dropped send means the loop
		// is already due to re-check.
		select {
		case s.flushArm <- struct{}{}:
		default:
		}
	}
	return p, nil
}

// admitLocked reports whether a new call may enter the stream under flow
// control. With MaxInFlight unset (0) admission is always granted and
// receiver credit is ignored — the legacy unbounded window. Caller holds
// s.mu.
func (s *Stream) admitLocked() bool {
	if s.opts.MaxInFlight <= 0 {
		return true
	}
	if s.nextSeq-s.nextResolve >= uint64(s.opts.MaxInFlight) {
		return false
	}
	if s.grantThrough > 0 && s.nextSeq > s.grantThrough {
		return false
	}
	return true
}

// wakeFlowWaitersLocked wakes every enqueue parked on flow control; they
// re-check admission (or observe the break) under the lock. Caller holds
// s.mu.
func (s *Stream) wakeFlowWaitersLocked() {
	for _, w := range s.flowWaiters {
		close(w)
	}
	s.flowWaiters = nil
}

// Flush transmits any buffered call requests now instead of waiting for
// the batch to fill. ("Even without the flush, the system will send these
// messages eventually; the flush merely speeds this up.")
func (s *Stream) Flush() { s.flush(false) }

// flush transmits the buffered batch. timerClosed marks a flush initiated
// by the flush-loop timer (quiescence pause or MaxBatchDelay bound)
// rather than by count/byte closure or an explicit Flush — the adaptive
// controller treats that as evidence the limit has outrun the arrival
// process (see adaptNoteTimerFlushLocked).
//
// The stream lock is held only long enough to snapshot the batch header
// (incarnation, reply ack) and move the buffer to the unacked set; the
// encode itself runs under batchMu alone.
func (s *Stream) flush(timerClosed bool) {
	s.mu.Lock()
	s.batchMu.Lock()
	if len(s.buffer) == 0 {
		s.batchMu.Unlock()
		s.mu.Unlock()
		return
	}
	if timerClosed {
		s.adaptNoteTimerFlushLocked(len(s.buffer))
	}
	batch := s.buffer
	s.unacked = append(s.unacked, batch...)
	s.lastSendAt = s.peer.clk.Now()
	batchWait := s.lastSendAt.Sub(s.bufferedAt)
	s.lastAckedReplies = s.nextResolve - 1
	hdr := requestBatch{
		Agent:             s.key.agent,
		Group:             s.key.group,
		Incarnation:       s.incarnation,
		AckRepliesThrough: s.nextResolve - 1,
		Requests:          batch,
	}
	window := s.nextSeq - s.nextResolve // unresolved calls outstanding
	s.mu.Unlock()
	// Only this first transmission may build the message in the call's own
	// buffer (a lone big call; see frame.go). Retransmissions re-encode
	// from unacked's view of the arguments: by then the buffer belongs to
	// the transport.
	msg := frameRequestBatch(hdr)
	if msg == nil {
		msg = encodeRequestBatch(hdr)
	}
	firstSeq, n := batch[0].Seq, len(batch)
	// The batch is copied into unacked and encoded into msg; recycle its
	// backing array as the next buffer (slots zeroed so the stale copies
	// do not pin argument payloads).
	for i := range batch {
		batch[i] = request{}
	}
	s.buffer = batch[:0]
	s.bufferBytes = 0
	s.batchMu.Unlock()
	if sm := s.peer.sm; sm != nil {
		sm.batchesSent.Inc()
		sm.batchCalls.Observe(uint64(n))
		sm.batchBytes.Observe(uint64(len(msg)))
		sm.windowCalls.Observe(window)
		sm.stageBatchWait.ObserveDuration(batchWait)
	}
	if s.peer.tracing() {
		s.peer.emit(trace.BatchSent, s.keyStr, firstSeq, 0, trace.BatchDetail(n))
	}
	s.peer.transmit(s.key.recvNode, msg)
}

// buildRequestBatchLocked encodes a request batch carrying the current ack
// state — used for acks, probes, and retransmissions, which build under
// the stream lock (they are off the hot path). Caller holds s.mu.
func (s *Stream) buildRequestBatchLocked(reqs []request) []byte {
	s.lastAckedReplies = s.nextResolve - 1
	return encodeRequestBatch(requestBatch{
		Agent:             s.key.agent,
		Group:             s.key.group,
		Incarnation:       s.incarnation,
		AckRepliesThrough: s.nextResolve - 1,
		Requests:          reqs,
	})
}

// Synch flushes the stream and waits until every call made so far has
// completed. It returns nil only if all stream calls since the last synch
// boundary (the last Synch, RPC, or incarnation start) terminated
// normally; otherwise it returns ErrExceptionReply. It does not say which
// calls failed — "to discover this, the program must use promises."
func (s *Stream) Synch(ctx context.Context) error {
	s.Flush()
	s.mu.Lock()
	target := s.nextSeq // all seqs < target must resolve
	inc := s.incarnation
	for s.incarnation == inc && s.nextResolve < target {
		waiter := make(chan struct{})
		s.synchWaiters = append(s.synchWaiters, waiter)
		s.mu.Unlock()
		select {
		case <-waiter:
		case <-ctx.Done():
			return ctx.Err()
		}
		s.mu.Lock()
	}
	if s.incarnation != inc {
		// The stream broke and was reincarnated while we waited: every
		// call before the break was resolved — exceptionally.
		s.mu.Unlock()
		return ErrExceptionReply
	}
	sawExc := s.lastExcSeq >= s.boundarySeq
	s.boundarySeq = s.nextSeq
	s.mu.Unlock()
	if sawExc {
		return ErrExceptionReply
	}
	return nil
}

// Break breaks the stream from the sender side with the given reason:
// every call whose reply has not yet been resolved terminates with the
// reason exception, and — unlike system-initiated breaks — the stream stays
// broken until Restart is called.
func (s *Stream) Break(reason *exception.Exception) {
	s.breakInternal(reason, false)
}

// Restart makes a broken stream usable again: it is "equivalent to a break
// done by the system at the sender at that moment, followed by the
// reincarnation of the stream." Calling Restart on a healthy stream first
// breaks it (resolving outstanding calls with unavailable).
func (s *Stream) Restart() {
	s.mu.Lock()
	if !s.broken {
		s.mu.Unlock()
		s.breakInternal(exception.Unavailable("stream restarted"), false)
		s.mu.Lock()
	}
	s.reincarnateLocked()
	s.mu.Unlock()
}

// systemBreak is invoked by the protocol machinery (retry exhaustion,
// receiver break notification, target crash). It honors NoAutoRestart.
func (s *Stream) systemBreak(reason *exception.Exception) {
	s.breakInternal(reason, !s.opts.NoAutoRestart)
}

func (s *Stream) breakInternal(reason *exception.Exception, restart bool) {
	s.mu.Lock()
	if s.broken {
		s.mu.Unlock()
		return
	}
	s.broken = true
	s.breakErr = reason
	s.pendingBreak = false
	if sm := s.peer.sm; sm != nil {
		sm.breaks.Inc()
	}
	if s.peer.tracing() {
		s.peer.emit(trace.StreamBroken, s.keyStr, 0, 0, reason.Name+"("+reason.StringArg(0)+")")
	}

	// Tell the receiver, best effort, so it can discard state.
	note := encodeBreak(breakMsg{
		Agent:       s.key.agent,
		Group:       s.key.group,
		Incarnation: s.incarnation,
		Synchronous: false,
		ExcName:     reason.Name,
		Reason:      reason.StringArg(0),
	})

	// Resolve every unresolved pending, in seq order, with the reason.
	s.resolveAllLocked(reason)
	s.wakeFlowWaitersLocked()
	if restart {
		s.reincarnateLocked()
	}
	s.mu.Unlock()

	s.peer.transmit(s.key.recvNode, note)
}

// resolveAllLocked resolves all outstanding pendings (buffered, unacked,
// and awaiting replies) with the given exception, preserving seq order.
func (s *Stream) resolveAllLocked(reason *exception.Exception) {
	o := ExceptionOutcome(reason)
	for seq := s.nextResolve; seq < s.nextSeq; seq++ {
		if held, ok := s.heldReplies.get(seq); ok {
			s.resolveOneLocked(seq, held)
			continue
		}
		s.resolveOneLocked(seq, o)
	}
	s.clearBatchLocked()
}

// clearBatchLocked discards the buffered and unacked requests
// (break/reincarnation paths). Caller holds s.mu.
func (s *Stream) clearBatchLocked() {
	s.batchMu.Lock()
	s.buffer = nil
	s.bufferBytes = 0
	s.unacked = nil
	s.batchMu.Unlock()
}

func (s *Stream) reincarnateLocked() {
	s.incarnation++
	if sm := s.peer.sm; sm != nil {
		sm.restarts.Inc()
	}
	s.peer.emit(trace.StreamRestarted, s.keyStr, s.incarnation, 0, "")
	// Wake synch waiters so they observe the incarnation change.
	for _, w := range s.synchWaiters {
		close(w)
	}
	s.synchWaiters = nil
	s.nextSeq = 1
	s.nextResolve = 1
	s.boundarySeq = 1
	s.lastExcSeq = 0
	s.lastAckedReplies = 0
	s.broken = false
	s.breakErr = nil
	s.pendingBreak = false
	s.recvEpoch = 0
	s.lastProgressAt = s.peer.clk.Now()
	s.ackedThrough = 0
	s.completedThrough = 0
	s.retries = 0
	s.clearBatchLocked()
	s.pending.reset()
	s.heldReplies.reset()
	// Credit was granted against the old incarnation's seq space.
	s.grantThrough = 0
	s.wakeFlowWaitersLocked()
	// The adapted limit carries over — network conditions did not change
	// with the incarnation — but the measurement epoch restarts.
	s.adapt.epochStart = s.lastProgressAt
	s.adapt.epochResolved = 0
	s.adapt.epochRetrans = false
	s.adapt.epochBlocked = false
	s.adapt.regressEpochs = 0
	s.adapt.holdEpochs = 0
	s.adapt.lastRate = 0
}

// resolveOneLocked resolves pending seq with outcome o and advances the
// resolution cursor. Caller must ensure seq == s.nextResolve.
func (s *Stream) resolveOneLocked(seq uint64, o Outcome) {
	if p, ok := s.pending.get(seq); ok {
		if sm := s.peer.sm; sm != nil && !p.c.enqAt.IsZero() {
			sm.stageResolve.ObserveDuration(s.peer.clk.Now().Sub(p.c.enqAt))
		}
		p.c.resolve(o)
		s.pending.del(seq)
	}
	s.heldReplies.del(seq)
	if !o.Normal && seq > s.lastExcSeq {
		s.lastExcSeq = seq
	}
	if s.peer.tracing() {
		detail := "normal"
		if !o.Normal {
			detail = o.Exception
		}
		s.peer.emit(trace.PromiseResolved, s.keyStr, seq,
			trace.CallID(s.keyHash, s.incarnation, seq), detail)
	}
	s.nextResolve = seq + 1
	if s.adapt.enabled {
		s.adapt.epochResolved++
	}
	// Wake synch waiters; they re-check their condition. Resolution also
	// frees an in-flight window slot, so flow-blocked enqueues re-check.
	for _, w := range s.synchWaiters {
		close(w)
	}
	s.synchWaiters = nil
	s.wakeFlowWaitersLocked()
}

// handleReplyBatch integrates a reply batch from the receiver.
func (s *Stream) handleReplyBatch(b *replyBatch) {
	s.mu.Lock()
	if b.Incarnation != s.incarnation || s.broken {
		s.mu.Unlock()
		return // stale incarnation or already broken
	}
	if s.recvEpoch != 0 && b.Epoch != s.recvEpoch {
		// The receiving end was recreated within one incarnation: the
		// receiver crashed and recovered, and our delivered-but-unreplied
		// calls are gone. The guarantees cannot be kept; break the stream.
		// (An epoch, not an ack-regression test, so reply batches
		// reordered by the network cannot false-positive.)
		s.mu.Unlock()
		s.systemBreak(exception.Unavailable("receiver lost stream state"))
		return
	}
	defer s.mu.Unlock()
	s.recvEpoch = b.Epoch
	// Hearing anything valid from the receiver is progress: the link and
	// the receiver are alive, so hold off probe-based breaking.
	now := s.peer.clk.Now()
	s.lastProgressAt = now
	s.retries = 0
	// Admission credit only ever moves forward within an incarnation, so
	// taking the max makes reordered reply batches harmless.
	if b.Credit > s.grantThrough {
		s.grantThrough = b.Credit
		s.wakeFlowWaitersLocked()
	}
	// Receiver acked our requests; prune retransmission state.
	if b.AckRequestsThrough > s.ackedThrough {
		s.ackedThrough = b.AckRequestsThrough
		s.batchMu.Lock()
		kept := s.unacked[:0]
		for _, r := range s.unacked {
			if r.Seq > s.ackedThrough {
				kept = append(kept, r)
			}
		}
		s.unacked = kept
		s.batchMu.Unlock()
	}
	if b.CompletedThrough > s.completedThrough {
		s.completedThrough = b.CompletedThrough
	}
	for _, r := range b.Replies {
		// The upper bound rejects replies for seqs we never assigned — a
		// corrupt datagram must not make the held-replies ring grow to
		// cover a garbage seq.
		if r.Seq >= s.nextResolve && r.Seq < s.nextSeq {
			s.heldReplies.put(r.Seq, r.Outcome)
		}
	}
	s.drainResolvableLocked()
	s.adaptMaybeAdjustLocked(now)
	s.finalizeBreakIfDrainedLocked()
}

// handleResolve integrates a forwarded chain resolution (kindResolve)
// arriving directly from the last guardian of a pipelined continuation
// chain — the caller's fast path, which skips the hop back through the
// origin guardian. The outcome is held like any other reply, so ordered
// readiness is preserved. Returns true when the forwarder should be
// acked: on successful integration, on duplicates, and on stale or
// implausible references (acking those stops pointless retransmission).
func (s *Stream) handleResolve(m *resolveMsg) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if m.Incarnation != s.incarnation || s.broken {
		return true // stale chain from a previous incarnation
	}
	if m.Seq < s.nextResolve || m.Seq >= s.nextSeq {
		return true // duplicate (already resolved) or garbled seq
	}
	s.heldReplies.put(m.Seq, m.Outcome)
	s.drainResolvableLocked()
	s.finalizeBreakIfDrainedLocked()
	return true
}

// drainResolvableLocked resolves pendings in seq order: an individually
// replied call resolves with its outcome; a send covered by
// CompletedThrough with no individual reply completed normally.
func (s *Stream) drainResolvableLocked() {
	for {
		seq := s.nextResolve
		if seq >= s.nextSeq {
			return
		}
		if o, ok := s.heldReplies.get(seq); ok {
			s.resolveOneLocked(seq, o)
			continue
		}
		p, ok := s.pending.get(seq)
		if ok && p.c.mode == ModeSend && seq <= s.completedThrough {
			// Normal reply omitted on the wire: completion implies success.
			s.resolveOneLocked(seq, NormalOutcome(nil))
			continue
		}
		return
	}
}

// handleBreak integrates a break notification from the receiver side.
func (s *Stream) handleBreak(b *breakMsg) {
	s.mu.Lock()
	if b.Incarnation != s.incarnation || s.broken {
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()

	name := b.ExcName
	if name == "" {
		name = exception.NameUnavailable
	}
	reason := exception.New(name, b.Reason)

	if !b.Synchronous {
		s.systemBreak(reason)
		return
	}

	// Synchronous break: calls through BrokenAfter are unaffected — their
	// replies were (or will be) delivered — but calls after it will never
	// have replies. The final reply batch may still be in flight (or even
	// arrive after the break note, since datagrams can reorder), so keep
	// the break pending until replies through BrokenAfter drain, with a
	// grace timeout in case that batch was lost.
	s.mu.Lock()
	s.drainResolvableLocked()
	if s.pendingBreak {
		s.mu.Unlock()
		return
	}
	s.pendingBreak = true
	s.pendingBreakAfter = b.BrokenAfter
	s.pendingBreakReason = reason
	s.pendingBreakAt = s.peer.clk.Now()
	s.finalizeBreakIfDrainedLocked()
	s.mu.Unlock()
}

// finalizeBreakIfDrainedLocked completes a pending synchronous break once
// every reply through pendingBreakAfter has resolved. Caller holds s.mu.
func (s *Stream) finalizeBreakIfDrainedLocked() {
	if !s.pendingBreak || s.nextResolve <= s.pendingBreakAfter {
		return
	}
	s.finalizeBreakLocked()
}

// finalizeBreakLocked completes a pending synchronous break now: remaining
// calls resolve with any held reply at or below the break point, and with
// the break reason otherwise. Caller holds s.mu.
func (s *Stream) finalizeBreakLocked() {
	reason := s.pendingBreakReason
	after := s.pendingBreakAfter
	s.pendingBreak = false
	s.broken = true
	s.breakErr = reason
	o := ExceptionOutcome(reason)
	for seq := s.nextResolve; seq < s.nextSeq; seq++ {
		if held, ok := s.heldReplies.get(seq); ok && seq <= after {
			s.resolveOneLocked(seq, held)
		} else {
			s.resolveOneLocked(seq, o)
		}
	}
	s.clearBatchLocked()
	s.wakeFlowWaitersLocked()
	if !s.opts.NoAutoRestart {
		s.reincarnateLocked()
	}
}

// tick is called periodically by the peer: it retransmits unacknowledged
// requests, breaking the stream when retries are exhausted, and sends
// pure acks and liveness probes when the stream is otherwise quiet.
func (s *Stream) tick(now time.Time) {
	var (
		toSend  []byte
		doBreak bool
	)
	s.mu.Lock()
	if s.broken {
		s.mu.Unlock()
		return
	}
	if s.pendingBreak {
		// Grace period for the receiver's final reply batch; if it never
		// arrives (lost datagram), give up and finalize with the reason.
		if now.Sub(s.pendingBreakAt) >= s.opts.RTO {
			s.finalizeBreakLocked()
		}
		s.mu.Unlock()
		return
	}
	sm := s.peer.sm
	// Age-based flushes are NOT handled here: flushLoop schedules a
	// precise per-batch timer at bufferedAt+MaxBatchDelay, so a buffered
	// batch never waits out the tick quantization on top of its delay.
	// unacked only changes with s.mu held, so it cannot move between the
	// staleness check and the retransmission below.
	s.batchMu.Lock()
	stale := len(s.unacked) > 0 && now.Sub(s.lastSendAt) >= s.opts.RTO
	s.batchMu.Unlock()
	if stale {
		// Retransmission of everything not yet acked, as one batch.
		s.retries++
		s.adapt.epochRetrans = true
		if sm != nil {
			sm.rtoFires.Inc()
		}
		if s.retries > s.opts.MaxRetries {
			doBreak = true
		} else {
			s.batchMu.Lock()
			s.lastSendAt = now
			toSend = s.buildRequestBatchLocked(s.unacked)
			first, n := s.unacked[0].Seq, len(s.unacked)
			s.batchMu.Unlock()
			if sm != nil {
				sm.batchesSent.Inc()
				sm.retransmits.Inc()
				sm.batchBytes.Observe(uint64(len(toSend)))
			}
			if s.peer.tracing() {
				s.peer.emit(trace.BatchSent, s.keyStr, first, 0, fmt.Sprintf("n=%d retransmit", n))
			}
		}
	} else if s.nextResolve > 1 && s.ackRepliesOwedLocked() {
		// Pure ack so the receiver can release retained replies.
		toSend = s.buildRequestBatchLocked(nil)
		if sm != nil {
			sm.batchesSent.Inc()
			sm.acks.Inc()
		}
		if s.peer.tracing() {
			s.peer.emit(trace.BatchSent, s.keyStr, 0, 0, "ack")
		}
	} else if s.nextResolve < s.nextSeq && now.Sub(s.lastProgressAt) >= s.opts.RTO {
		// Calls are outstanding, everything transmitted is acked, and the
		// receiver has been silent past the timeout: probe it. A live
		// receiver answers any empty request batch with its progress; one
		// that crashed after acking our requests stays silent, and
		// MaxRetries silent probes break the stream.
		s.retries++
		if sm != nil {
			sm.rtoFires.Inc()
		}
		if s.retries > s.opts.MaxRetries {
			doBreak = true
		} else {
			s.lastProgressAt = now // pace probes one RTO apart
			toSend = s.buildRequestBatchLocked(nil)
			if sm != nil {
				sm.batchesSent.Inc()
				sm.probes.Inc()
			}
			if s.peer.tracing() {
				s.peer.emit(trace.BatchSent, s.keyStr, 0, 0, "probe")
			}
		}
	}
	s.mu.Unlock()

	if doBreak {
		s.systemBreak(exception.Unavailable("cannot communicate"))
		return
	}
	if toSend != nil {
		s.peer.transmit(s.key.recvNode, toSend)
	}
}

// ackRepliesOwedLocked reports whether replies have resolved since the
// last ack we transmitted, i.e. the receiver is still retaining replies
// it could release if we told it. Caller holds s.mu.
func (s *Stream) ackRepliesOwedLocked() bool {
	return s.nextResolve-1 > s.lastAckedReplies
}

// flushLoop runs the stream's precise age-flush timer: parked until
// enqueue signals that the buffer went non-empty (flushArm), it then
// sleeps to exactly bufferedAt+MaxBatchDelay and flushes whatever is
// still buffered. The peer tick used to do this on its coarse interval,
// which let a batch wait up to a full tick beyond MaxBatchDelay; a timer
// through the clock removes the quantization (and stays deterministic
// under the virtual clock, where timer waiters fire at exact instants).
// The goroutine exits with the peer context; an idle stream costs one
// parked goroutine and no timer.
func (s *Stream) flushLoop() {
	defer s.peer.wg.Done()
	var t clock.Timer
	defer func() {
		if t != nil {
			t.Stop()
		}
	}()
	for {
		select {
		case <-s.peer.ctx.Done():
			return
		case <-s.flushArm:
		}
		for {
			s.batchMu.Lock()
			if len(s.buffer) == 0 {
				s.batchMu.Unlock()
				break // flushed by count/bytes/Flush; park until re-armed
			}
			due := s.bufferedAt.Add(s.opts.MaxBatchDelay)
			if idle := s.peer.idleFlush; idle > 0 {
				if d := s.lastArriveAt.Add(idle); d.Before(due) {
					due = d // quiescence: arrivals paused, stop waiting for more
				}
			}
			s.batchMu.Unlock()
			if wait := due.Sub(s.peer.clk.Now()); wait > 0 {
				if t == nil {
					t = s.peer.clk.NewTimer(wait)
				} else {
					t.Reset(wait)
				}
				select {
				case <-s.peer.ctx.Done():
					return
				case <-t.C():
				}
				continue // re-check: the batch may have flushed meanwhile
			}
			s.flush(true)
		}
	}
}
