package stream

import (
	"context"
	"math"
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
	mode  Mode
	chain bool // a chain's origin: its reply comes with the chain's resolution

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
	c.chain = false
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

	// The stream's places in its peer's deadline queue: the open batch's
	// age flush (fireAge) and the rest of its timed work (fire).
	ageDue, due due

	// mu guards the rest: one lock per stream end.
	mu          sync.Mutex
	lane        lane[request, *request] // the request lane (lane.go), go-back-N
	incarnation uint64
	nextSeq     uint64 // seq to assign to the next call (starts at 1)
	broken      bool
	breakErr    *exception.Exception

	// Per-seq resolution state.
	pending     seqRing[Pending]
	heldReplies seqRing[Outcome]

	// Flow control. grantThrough is the receiver's advertised admission
	// credit (0 until the first reply batch of this incarnation arrives).
	// flowWaiters are enqueues blocked on the credit, woken whenever it
	// can have moved.
	grantThrough uint64
	flowWaiters  []chan struct{}

	// Resolution cursors.
	nextResolve      uint64 // seq whose outcome is resolved next (ordered readiness)
	completedThrough uint64

	// Synch bookkeeping.
	boundarySeq  uint64          // first seq after the last synch / RPC / incarnation
	lastExcSeq   uint64          // highest seq that resolved exceptionally
	synchWaiters []chan struct{} // woken whenever resolution progresses

	// lastAckedReplies is the highest reply ack we have transmitted, so a
	// pure ack is owed only when the receiver hasn't heard it — or when
	// reack says a reply batch re-sent a reply we already have: the
	// receiver re-sends on silence, so a live sender answers it.
	lastAckedReplies uint64
	reack            bool

	// gap is what the stream holds of the reply lane past its ack, for its
	// batches to report (lane.go).
	gap gap

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

	// watches holds, on a ~pipe stream, the epoch scheduler's watch over
	// each send it issued, in place of a Pending.
	watches seqRing[pipeWatch]
}

func newStream(p *Peer, key streamKey, opts Options) *Stream {
	keyStr := key.String()
	s := &Stream{
		peer:           p,
		key:            key,
		keyStr:         keyStr,
		keyHash:        trace.HashStream(keyStr),
		opts:           opts,
		incarnation:    1,
		nextSeq:        1,
		nextResolve:    1,
		boundarySeq:    1,
		lastProgressAt: p.clk.Now(),
	}
	s.lane.goBackN = true
	s.ageDue.rank, s.ageDue.fire = rankAgeFlush, s.fireAge
	s.due.rank, s.due.fire = rankSend, s.fire
	return s
}

// InFlight returns the number of unresolved calls outstanding on the
// stream (buffered, in transit, or awaiting replies).
func (s *Stream) InFlight() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int(s.nextSeq - s.nextResolve)
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

// Broken reports whether the stream is currently broken: after an
// explicit Break, until Restart.
func (s *Stream) Broken() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.broken
}

// Req describes one call for Issue. Mode defaults to ModeCall. Args from
// Stream.Marshal rides alone, built around in place, from a page up
// (frame.go).
// Cause's root and parent trace IDs ride the request, joining the call
// into its initiator's cross-guardian chain: a handler passes
// Incoming.ChildCause (guardian.Call.Cause), and the zero Cause makes the
// call a chain root.
type Req struct {
	Mode  Mode
	Port  string
	Args  Marshalled
	Cause trace.Cause
}

// Issue makes one call on the stream. It returns a Pending for the
// outcome, or an error if the stream is broken (in which case, per §3, no
// pending is created) or ctx ends while the enqueue waits for flow
// control: the enqueue blocks while the receiver's advertised credit is
// used up.
//
// A stream call or send is buffered: it is transmitted when the batch
// holds MaxBatch calls, when MaxBatchDelay elapses, or at the next Flush.
// An RPC bypasses the buffer — its batch is sent at once — and the seq it
// resolves at is a synch boundary, like Argus's regular calls; Issue
// followed by Pending.Wait is an RPC.
//
// Stages pipeline a stream call or an RPC: its result feeds a
// continuation chain run guardian-to-guardian — stage N+1 at the guardian
// that produced stage N's output, with no hop back to the caller — and
// the Pending resolves with the LAST stage's outcome. Issue only reads
// stages, so they may live in the caller's frame: they travel apart from
// r, whose Port and Args the stream keeps.
func (s *Stream) Issue(ctx context.Context, r Req, stages ...PipeStage) (Pending, error) {
	return s.enqueue(ctx, r, stages, nil)
}

// Call makes a stream call to the named port with pre-encoded arguments:
// Issue of a ModeCall Req with no cause.
func (s *Stream) Call(port string, args []byte) (Pending, error) {
	return s.enqueue(context.Background(), Req{Port: port, Args: plain(args)}, nil, nil)
}

// Send makes a send to the named port: the sender hears back only if the
// call terminates abnormally. The returned Pending resolves with an empty
// normal outcome on success; sends exist so that "normal replies can be
// omitted" from the wire.
func (s *Stream) Send(port string, args []byte) (Pending, error) {
	return s.enqueue(context.Background(), Req{Mode: ModeSend, Port: port, Args: plain(args)}, nil, nil)
}

// RPC makes a remote procedure call: the request bypasses the batch buffer
// and the caller waits for the reply. An RPC also establishes a synch
// boundary, like Argus's regular calls do.
func (s *Stream) RPC(ctx context.Context, port string, args []byte) (Outcome, error) {
	p, err := s.enqueue(ctx, Req{Mode: ModeRPC, Port: port, Args: plain(args)}, nil, nil)
	if err != nil {
		return Outcome{}, err
	}
	o, err := p.Wait(ctx)
	if err != nil {
		return Outcome{}, err
	}
	p.Release() // the handle never escapes; recycle its cell
	return o, nil
}

// enqueue admits one call. w is non-nil only for the epoch scheduler's
// sends (epoch.go) — a mid-chain forward or a chain's resolution — which
// carry w.cont as it is, still naming the ORIGINAL caller's promise; a
// call with stages (and so no w) is a chain origin. Such a send gets no
// Pending cell, only its seq: the stream keeps w until the send resolves.
//
// The scheduler's sends skip the credit check: their chain was admitted
// once, at its origin, and a scheduler parked on one downstream guardian's
// credit would stall every other chain on the peer — including, for a
// chain that cycles back, the one whose progress would free the credit.
func (s *Stream) enqueue(ctx context.Context, r Req, stages []PipeStage, w *pipeWatch) (Pending, error) {
	port, mode, cause := r.Port, r.Mode, r.Cause
	args, frame := r.Args.Bytes(), r.Args.frame()
	s.mu.Lock()
	for {
		if s.broken {
			err := s.breakErr
			s.mu.Unlock()
			if err == nil {
				err = exception.Unavailable("stream is broken")
			}
			return Pending{}, err
		}
		if w != nil || s.admitLocked() {
			break
		}
		// Backpressure: the receiver's advertised credit is used up. Park
		// until a credit raise or a break moves it — or the caller's
		// context ends.
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
	seq, inc := s.nextSeq, s.incarnation
	s.nextSeq++
	// A chain origin encodes its continuation here, inside the
	// seq-assignment critical section, because the blob embeds the promise
	// reference (stream key + incarnation + seq) the chain's last guardian
	// will resolve. Plain calls have no stages and skip this.
	p, cont := Pending{Seq: seq}, []byte(nil)
	if w != nil {
		cont = w.cont
		s.watches.put(seq, *w)
	} else {
		if len(stages) > 0 {
			cont = encodePipeCont(pipeRef{s.key, inc, seq}, stages, &s.peer.arena)
		}
		p = newPending(seq, mode, s.peer.sm, s.peer.clk)
		p.c.chain = len(stages) > 0
		s.pending.put(seq, p)
	}
	// Seq assignment, the ring insert and the batch append happen in one
	// s.mu critical section, so a break cannot slip between them and
	// orphan the pending or the watch.
	var now time.Time
	if s.lane.unsent == 0 {
		now = s.peer.clk.Now()
	}
	opened := s.lane.push(request{Seq: seq, Port: port, Mode: mode, Args: args,
		Root: cause.Root, Parent: cause.Parent, Cont: cont, frame: frame}, now)
	// A call big enough to ride alone closes the batch like an RPC does:
	// waiting for company would only get it copied (see frame.go).
	full := s.lane.unsent >= s.opts.MaxBatch || mode == ModeRPC || frame != nil
	if !full && opened {
		s.peer.arm(&s.ageDue, now.Add(s.opts.MaxBatchDelay), now)
	}
	s.mu.Unlock()
	if sm := s.peer.sm; sm != nil {
		sm.callsEnqueued.Inc()
	}
	if s.peer.tracing() {
		s.peer.emitCause(trace.CallEnqueued, s.keyStr, seq, trace.CallID(s.keyHash, inc, seq), cause, mode.String())
	}
	if full {
		s.Flush()
	}
	return p, nil
}

// admitLocked reports whether a new call may enter the stream: its seq is
// within the receiver's advertised credit, or no reply batch has been
// heard this incarnation, so there is no credit to honour yet. Caller
// holds s.mu.
func (s *Stream) admitLocked() bool {
	return s.grantThrough == 0 || s.nextSeq <= s.grantThrough
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
func (s *Stream) Flush() {
	s.mu.Lock()
	if s.lane.unsent == 0 {
		s.mu.Unlock()
		return
	}
	now := s.peer.clk.Now()
	batchWait := now.Sub(s.lane.opened)
	batch := s.lane.take(now, math.MaxUint64) // a request is acked on receipt
	// The retransmission timer restarted: fire looks after it, and after
	// the probe it may owe once the batch is acked.
	s.peer.arm(&s.due, s.lane.resendAt(s.rtoLocked()), now)
	msg := s.sendLocked(batch, now, whyFlush)
	window, n := s.nextSeq-s.nextResolve, len(batch) // unresolved calls outstanding
	s.mu.Unlock()
	if sm := s.peer.sm; sm != nil {
		sm.batchCalls.Observe(uint64(n))
		sm.windowCalls.Observe(window)
		sm.stageBatchWait.ObserveDuration(batchWait)
	}
	s.peer.transmit(s.key.recvNode, msg)
}

// fireAge flushes the open batch once it is MaxBatchDelay old, or returns
// when it will be.
func (s *Stream) fireAge(now time.Time) time.Time {
	s.mu.Lock()
	at := s.lane.flushAt(s.opts.MaxBatchDelay)
	s.mu.Unlock()
	if !reached(at, now) {
		return at
	}
	s.Flush()
	return time.Time{}
}

// sendWhy says why a batch is sent: it picks the counters the batch moves
// and the detail of its trace event.
type sendWhy uint8

const (
	whyFlush      sendWhy = iota // the first transmission of the unsent suffix
	whyRetransmit                // a timeout's re-send, or a duplicate's re-send of the hole
	whyHole                      // the re-send of a hole the other end reported
	whyPartial                   // the re-send that follows a partial ack, after a timeout
	whyAck                       // a pure ack, and the report of a hole owed one
	whyProbe                     // a liveness probe
)

// whyDetail gives the trace detail of a batch of n items sent for each why.
var whyDetail = [...]func(n int) string{
	whyFlush:      trace.BatchDetail,
	whyRetransmit: trace.RetransmitDetail,
	whyHole:       trace.HoleDetail,
	whyPartial:    trace.PartialDetail,
	whyAck:        func(int) string { return "ack" },
	whyProbe:      func(int) string { return "probe" },
}

// sendLocked returns the request batch carrying reqs, sent at now for
// why, counted and traced. It acks the replies resolved so far, which it
// records as transmitted, and reports the hole above them if one is owed
// a report; a probe names the first call not yet sent. Only a flush may
// build the message in the call's own buffer (a lone big call; see
// frame.go): a re-send re-encodes from the lane's view of the arguments,
// since by then the buffer belongs to the transport. Caller holds s.mu,
// and transmits the batch once it has let go.
func (s *Stream) sendLocked(reqs []request, now time.Time, why sendWhy) []byte {
	s.lastAckedReplies, s.reack = s.nextResolve-1, false
	b := requestBatch{Agent: s.key.agent, Group: s.key.group, Incarnation: s.incarnation,
		AckRepliesThrough: s.lastAckedReplies, Held: s.gap.report(s.lane.window(), now), Requests: reqs}
	var msg []byte
	switch why {
	case whyFlush:
		msg = frameRequestBatch(b)
	case whyProbe:
		b.Probe = s.nextSeq - uint64(s.lane.unsent)
	}
	if msg == nil {
		msg = encodeRequestBatch(b, &s.peer.arena)
	}
	if sm := s.peer.sm; sm != nil {
		sm.batchesSent.Inc()
		if len(reqs) > 0 {
			sm.batchBytes.Observe(uint64(len(msg)))
		}
		switch why {
		case whyHole:
			sm.holeResends.Inc()
			fallthrough
		case whyRetransmit, whyPartial:
			sm.retransmits.Inc()
		case whyAck:
			sm.acks.Inc()
		case whyProbe:
			sm.probes.Inc()
		}
	}
	if s.peer.tracing() {
		var first uint64
		if len(reqs) > 0 {
			first = reqs[0].Seq
		}
		s.peer.emit(trace.BatchSent, s.keyStr, first, 0, whyDetail[why](len(reqs)))
	}
	return msg
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
	note := s.breakLocked(exception.Unavailable("stream restarted"), false)
	s.reincarnateLocked()
	s.mu.Unlock()
	s.sendNote(note)
}

func (s *Stream) breakInternal(reason *exception.Exception, restart bool) {
	s.mu.Lock()
	note := s.breakLocked(reason, restart)
	s.mu.Unlock()
	s.sendNote(note)
}

// breakLocked breaks the stream for reason, unless it is already broken,
// and returns the notice for the receiver, or nil if there was nothing to
// break. The protocol's own breaks restart the stream at once, so later
// calls proceed on the new incarnation ("broken streams are mapped into
// exceptions and then restarted automatically"). A break the stream
// decides under s.mu is made in that same critical section, so a Restart
// cannot slip between the decision and the break. Caller holds s.mu, and
// sends the notice (sendNote) once it has let go.
func (s *Stream) breakLocked(reason *exception.Exception, restart bool) []byte {
	if s.broken {
		return nil
	}
	s.broken = true
	s.breakErr = reason
	if sm := s.peer.sm; sm != nil {
		sm.breaks.Inc()
	}
	if s.peer.tracing() {
		s.peer.emit(trace.StreamBroken, s.keyStr, 0, 0, reason.Name+"("+reason.StringArg(0)+")")
	}
	note := s.key.breakNote(s.incarnation, reason)
	// Resolve every unresolved pending, in seq order, with the reason.
	s.resolveAllLocked(reason)
	s.wakeFlowWaitersLocked()
	if restart {
		s.reincarnateLocked()
	}
	return note
}

// sendNote tells the receiver of a break, best effort, so it can discard
// state. A nil note sends nothing.
func (s *Stream) sendNote(note []byte) {
	if note != nil {
		s.peer.transmit(s.key.recvNode, note)
	}
}

// resolveAllLocked resolves every outstanding pending (buffered, unacked
// or awaiting its reply) in seq order: with its held reply if it has one,
// else with reason. It empties the lane, so a break sends nothing more and
// leaves a reincarnation a fresh one. Caller holds s.mu.
func (s *Stream) resolveAllLocked(reason *exception.Exception) {
	o := ExceptionOutcome(reason)
	for seq := s.nextResolve; seq < s.nextSeq; seq++ {
		if held, ok := s.heldReplies.get(seq); ok {
			s.resolveOneLocked(seq, held)
		} else {
			s.resolveOneLocked(seq, o)
		}
	}
	s.lane.reset()
}

// reincarnateLocked starts the next incarnation. Its every caller has
// just broken the stream, which emptied the lane (resolveAllLocked).
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
	s.lastAckedReplies, s.reack = 0, false
	s.gap = gap{}
	s.broken = false
	s.breakErr = nil
	s.recvEpoch = 0
	s.lastProgressAt = s.peer.clk.Now()
	s.completedThrough = 0
	s.pending.reset()
	s.heldReplies.reset()
	// Credit was granted against the old incarnation's seq space.
	s.grantThrough = 0
	s.wakeFlowWaitersLocked()
}

// resolveOneLocked resolves pending seq with outcome o and advances the
// resolution cursor. Caller must ensure seq == s.nextResolve.
func (s *Stream) resolveOneLocked(seq uint64, o Outcome) {
	if p, ok := s.pending.get(seq); ok {
		if sm := s.peer.sm; sm != nil && !p.c.enqAt.IsZero() {
			sm.stageResolve.ObserveDuration(s.peer.clk.Now().Sub(p.c.enqAt))
		}
		if p.c.mode == ModeRPC && seq >= s.boundarySeq {
			s.boundarySeq = seq + 1 // an RPC is a synch boundary
		}
		p.c.resolve(o)
		s.pending.del(seq)
	}
	s.resolveWatchLocked(seq, o)
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
	// Wake synch waiters; they re-check their condition.
	for _, w := range s.synchWaiters {
		close(w)
	}
	s.synchWaiters = nil
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
		note := s.breakLocked(exception.Unavailable("receiver lost stream state"), true)
		s.mu.Unlock()
		s.sendNote(note)
		return
	}
	acked := !s.ackRepliesOwedLocked()
	s.recvEpoch = b.Epoch
	// Hearing anything valid from the receiver is progress: the link and
	// the receiver are alive, so hold off probe-based breaking.
	now := s.peer.clk.Now()
	s.lastProgressAt = now
	s.lane.retries = 0
	advanced := s.lane.ack(b.AckRequestsThrough, now) // drops what the receiver holds
	// Admission credit only ever moves forward within an incarnation, so
	// taking the max makes reordered reply batches harmless.
	if b.Credit > s.grantThrough {
		s.grantThrough = b.Credit
		s.wakeFlowWaitersLocked()
	}
	if b.CompletedThrough > s.completedThrough {
		s.completedThrough = b.CompletedThrough
	}
	for _, r := range b.Replies {
		// The upper bound rejects replies for seqs we never assigned — a
		// corrupt datagram must not make the held-replies ring grow to
		// cover a garbage seq. A reply we already have was re-sent: the
		// receiver heard nothing from us for an RTO, so we owe it a word.
		if r.Seq < s.nextResolve || s.heldReplies.has(r.Seq) {
			s.reack = true
		} else if r.Seq < s.nextSeq {
			s.heldReplies.put(r.Seq, r.Outcome)
			s.gap.hold(r.Seq)
			// A ~pipe send's watch ends on its own reply, so no chain's
			// custody waits on another's.
			s.resolveWatchLocked(r.Seq, r.Outcome)
		}
	}
	s.drainResolvableLocked()
	s.gap.note(s.nextResolve-1, s.replyOwedLocked(), now)
	// The receiver reports a hole in the requests it holds: re-send it. So
	// does an ack that, after a timeout, stops short of what was sent
	// before the timeout's re-send.
	below, why := uint64(0), whyHole
	if b.Held != 0 && b.AckRequestsThrough == s.lane.acked {
		below = b.AckRequestsThrough + b.Held
	}
	if advanced && s.lane.recover != 0 && s.lane.recover+1 > below {
		below, why = s.lane.recover+1, whyPartial
	}
	var msg []byte
	if reqs := s.lane.mend(now, s.opts.MaxBatch, below); len(reqs) > 0 {
		msg = s.sendLocked(reqs, now, why)
	} else if reached(s.gap.due(s.lane.window()), now) {
		msg = s.sendLocked(nil, now, whyAck) // a hole of ours has aged: report it now
	}
	if msg == nil && acked && s.ackRepliesOwedLocked() {
		s.peer.arm(&s.due, now, now) // a pure ack, unless a batch carries it first
	} else if due := s.gap.due(s.lane.window()); !due.IsZero() {
		s.peer.arm(&s.due, due, now)
	}
	s.mu.Unlock()
	if msg != nil {
		s.peer.transmit(s.key.recvNode, msg)
	}
}

// replyOwedLocked reports whether the call at nextResolve owes its reply
// now: the receiver has completed it, and it is not a chain's origin,
// whose reply comes with the chain's resolution. Only then is a reply
// held past it a hole. Caller holds s.mu.
func (s *Stream) replyOwedLocked() bool {
	if s.nextResolve > s.completedThrough {
		return false
	}
	p, ok := s.pending.get(s.nextResolve)
	return !ok || !p.c.chain
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
		if (ok && p.c.mode == ModeSend || s.watches.has(seq)) && seq <= s.completedThrough {
			// Normal reply omitted on the wire: completion implies success.
			s.resolveOneLocked(seq, NormalOutcome(nil))
			continue
		}
		return
	}
}

// resolveWatchLocked hands the watch over send seq, if the stream keeps
// one, back to the scheduler with outcome o. Caller holds s.mu.
func (s *Stream) resolveWatchLocked(seq uint64, o Outcome) {
	if w, ok := s.watches.get(seq); ok {
		s.watches.del(seq)
		s.peer.sched.Load().end(w, o) // a watch exists only once the scheduler does
	}
}

// handleBreak integrates a break notification from the receiver side. It
// breaks the stream at once: a receiver gives notice only once we have
// acked every reply it owes us (or it gave up on reaching us), so what is
// still unresolved will have no reply.
func (s *Stream) handleBreak(b *breakMsg) {
	name := b.ExcName
	if name == "" {
		name = exception.NameUnavailable
	}
	s.mu.Lock()
	var note []byte
	if b.Incarnation == s.incarnation {
		note = s.breakLocked(exception.New(name, b.Reason), true)
	}
	s.mu.Unlock()
	s.sendNote(note)
}

// fire does the stream's timed work due at now: it retransmits
// unacknowledged requests, breaking the stream when retries are
// exhausted, and sends a pure ack or a liveness probe when the stream is
// otherwise quiet. It returns when the stream next owes any of these, or
// zero.
func (s *Stream) fire(now time.Time) time.Time {
	var toSend []byte
	s.mu.Lock()
	if s.broken {
		s.mu.Unlock()
		return time.Time{}
	}
	// The open batch's age flush is fireAge's. Retransmission is
	// go-back-N from the head: the first MaxBatch requests sent and not yet
	// acked, as one batch, once the timer runs out (rtoLocked).
	resendAt := s.lane.resendAt(s.rtoLocked())
	resend := reached(resendAt, now)
	// Nothing sent awaits its ack, the receiver holds a call it has not
	// answered, and it has been silent past the timeout: probe it. A live
	// receiver answers a probe with its progress; one that crashed after
	// acking our requests stays silent, and MaxRetries silent probes break
	// the stream. A call not yet sent, or not yet acked, is the age flush's
	// or the retransmission timer's to look after, not a probe's. Probes
	// are paced at Options.RTO: they ask after liveness, not after loss.
	probe := resendAt.IsZero() && !s.ackRepliesOwedLocked() &&
		s.nextResolve <= s.lane.acked && now.Sub(s.lastProgressAt) >= s.opts.RTO
	if sm := s.peer.sm; sm != nil && (resend || probe) {
		sm.rtoFires.Inc()
	}
	switch {
	case (resend || probe) && s.lane.retry(s.opts.MaxRetries):
		note := s.breakLocked(exception.Unavailable("cannot communicate"), true)
		s.mu.Unlock()
		s.sendNote(note)
		return time.Time{}
	case resend:
		toSend = s.sendLocked(s.lane.resend(now, s.opts.MaxBatch), now, whyRetransmit)
	case probe:
		s.lastProgressAt = now // pace probes one RTO apart
		toSend = s.sendLocked(nil, now, whyProbe)
	case s.ackRepliesOwedLocked(), reached(s.gap.due(s.lane.window()), now):
		// Pure ack so the receiver can release retained replies, or a
		// hole in the replies held that has aged unreported. The receiver
		// answers it only with the hole's re-send.
		toSend = s.sendLocked(nil, now, whyAck)
	}
	next := s.nextDueLocked(now)
	s.mu.Unlock()
	if toSend != nil {
		s.peer.transmit(s.key.recvNode, toSend)
	}
	return next
}

// nextDueLocked returns when fire next has work, as seen at now: now for
// an owed pure ack, else the earliest of the lane's retransmission, the
// report of a hole in the replies held and, with calls outstanding, a
// probe, which fire looks at again an RTO on once it held one back; zero
// for nothing. Caller holds s.mu.
func (s *Stream) nextDueLocked(now time.Time) time.Time {
	if s.ackRepliesOwedLocked() {
		return now
	}
	var probe time.Time
	if s.nextResolve < s.nextSeq {
		if probe = s.lastProgressAt.Add(s.opts.RTO); !probe.After(now) {
			probe = now.Add(s.opts.RTO)
		}
	}
	return earliest(earliest(probe, s.lane.resendAt(s.rtoLocked())), s.gap.due(s.lane.window()))
}

// rtoLocked returns the request lane's retransmission timeout: the
// estimate from its measured round trip, at least MaxBatchDelay and a tick
// (what a receiver may take to ack) and at most Options.RTO. Caller holds
// s.mu.
func (s *Stream) rtoLocked() time.Duration { return s.lane.rto(s.peer.rtoFloor, s.opts.RTO) }

// ackRepliesOwedLocked reports whether replies have resolved since the
// last ack we transmitted, i.e. the receiver is still retaining replies
// it could release if we told it, or the receiver re-sent a reply we
// already have (reack): whether fire owes a pure ack. Caller holds s.mu.
func (s *Stream) ackRepliesOwedLocked() bool {
	return s.nextResolve-1 > s.lastAckedReplies || s.reack
}
