package stream

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"promises/internal/exception"
	"promises/internal/trace"
)

// epochCounter issues unique boot epochs to receiving streams, so a
// sender can tell a recreated receiving end (crash + recovery) from the
// one it was talking to. The counter is seeded with per-process-boot
// entropy: with real transports the receiving end can be a SEPARATE OS
// process, and a deterministic start would hand a restarted process the
// same epochs as its predecessor, hiding the recreation from senders.
// (The top bits carry the entropy; low bits count, so epochs stay unique
// within a process too.)
var epochCounter atomic.Uint64

func init() {
	var b [8]byte
	if _, err := rand.Read(b[:]); err == nil {
		epochCounter.Store(binary.BigEndian.Uint64(b[:]) << 24)
	}
}

func nextEpoch() uint64 {
	e := epochCounter.Add(1)
	for e == 0 { // 0 means "epoch unknown" on the sender side
		e = epochCounter.Add(1)
	}
	return e
}

// Incoming describes one call request being executed at the receiver.
//
// The struct handed to a handler is a per-executor scratch that is
// recycled as soon as the handler returns: its fields are valid only for
// the duration of the handler. A handler that needs the call past its own
// return must take a Clone; retaining the original is a bug — the scratch
// is poisoned at retirement, so later reads see zero values and a later
// BreakStream panics instead of silently corrupting whichever call reuses
// the scratch.
type Incoming struct {
	From  string // sender node name
	Agent string
	Group string
	Port  string
	Seq   uint64
	Mode  Mode
	Args  []byte // encoded argument list

	// Trace is this call's own trace ID (trace.CallID as minted by the
	// sender); 0 when the sender predates tracing. Cause is the causal
	// context the sender propagated with the call — its root trace ID and
	// the trace ID of the call that caused it — or the zero Cause when
	// the call is a chain root (or from a legacy sender).
	Trace uint64
	Cause trace.Cause

	// Local belongs to the dispatch layer above. It is the one field that
	// survives retirement: whatever a handler leaves here is handed to
	// the next call that runs on the same executor, so a dispatcher can
	// keep its own per-call scratch beside the stream's (the guardian
	// parks its Call there). The stream layer never reads it.
	Local any

	breakReason *exception.Exception
	retired     bool // set when the handler returned; later use fails loudly
}

// BreakStream requests a synchronous break of the stream after this call's
// reply: this call and all earlier ones are unaffected, but later calls on
// the stream are discarded and will never have replies. The paper
// prescribes this when decoding of an argument fails at the receiver.
//
// It panics when invoked on a call whose handler has already returned
// (see the retention rules on Incoming).
func (c *Incoming) BreakStream(reason *exception.Exception) {
	if c.retired {
		panic("stream: Incoming used after its handler returned (Clone to retain)")
	}
	c.breakReason = reason
}

// Clone returns a heap copy of the call that stays valid after the
// handler returns — the supported way to retain call data. The argument
// bytes are copied out of the datagram they alias.
func (c *Incoming) Clone() *Incoming {
	if c.retired {
		panic("stream: Clone of an Incoming whose handler already returned")
	}
	cp := *c
	cp.breakReason = nil
	cp.Local = nil
	args := make([]byte, len(c.Args))
	copy(args, c.Args)
	cp.Args = args
	return &cp
}

// ChildCause is the causal context a handler passes to downstream calls
// it issues on this call's behalf (stream.CallCause, the promise
// Cause variants): the chain root is inherited from the incoming cause
// (or starts here when this call is the root), and the parent is this
// call itself. Valid only while the handler runs, like every other
// field.
func (c *Incoming) ChildCause() trace.Cause {
	if c.retired {
		panic("stream: Incoming used after its handler returned (Clone to retain)")
	}
	return trace.ChildOf(c.Cause, c.Trace)
}

// retire poisons the scratch between calls so a handler that kept the
// pointer reads zeroes (and panics on BreakStream/Clone) instead of
// silently observing — or corrupting — a later call.
func (c *Incoming) retire() { *c = Incoming{retired: true, Local: c.Local} }

// Handler executes one incoming call and produces its outcome. Handlers
// for calls on the same stream run strictly one at a time, in call order;
// handlers for calls on different streams run concurrently.
type Handler func(call *Incoming) Outcome

// Dispatcher finds the handler for a port name. Returning false yields a
// failure("handler does not exist") reply.
type Dispatcher func(port string) (Handler, bool)

// rstream is the receiving end of one stream.
type rstream struct {
	peer   *Peer
	key    streamKey
	keyStr string // key.String(), cached once
	opts   Options

	// The reply lane: completion tracking and reply retention, guarded by
	// replyMu except watermark, which is also read lock-free. The lock
	// order is mu before replyMu; the post-handler completion path takes
	// only replyMu, so a finishing handler never waits on request intake.
	replyMu sync.Mutex

	// Out-of-order completion tracking, for ports marked parallel: seqs
	// completed beyond the contiguous watermark, as a seq-indexed ring.
	completedSet seqRing[struct{}]
	// watermark is the smallest seq not yet completed.
	watermark atomic.Uint64

	// Reply retention. A normal flush transmits only the unsent suffix of
	// retained; the full retained set is re-sent only on evidence of loss
	// (duplicate requests) or an ack-progress stall (see tick), so reply
	// traffic stays proportional to new work, not to the retained window.
	retained          []reply // executed, not yet acked by the sender
	unsentReplies     int     // suffix of retained not yet transmitted at all
	unsentBytes       int     // approximate encoded size of that suffix (byte budget)
	oldestUnsentAt    time.Time
	sentCompleted     uint64    // CompletedThrough value last transmitted
	sentAcked         uint64    // AckRequestsThrough value last transmitted
	lastFullReplyAt   time.Time // when a batch covering all of retained last went out
	lastAckProgressAt time.Time // when the sender's reply ack last advanced (or retained was born)

	mu          sync.Mutex
	incarnation uint64
	epoch       uint64
	broken      bool

	// Atomic mirrors of mu-guarded state, for the post-handler completion
	// path, which deliberately avoids r.mu.
	incA      atomic.Uint64
	brokenA   atomic.Bool
	expectedA atomic.Uint64

	// Request ordering and exactly-once delivery. oo is keyed by dense
	// seqs within the in-flight window, so it is a seq-indexed ring.
	expected uint64 // next seq to hand to the executor
	oo       seqRing[request]

	// Execution queue (serial executor goroutine drains it).
	execCh chan request
	closed bool

	// outstanding counts in-flight parallel calls; the executor waits for
	// it to drain before running a serial call, so serial calls still
	// appear to happen in call order.
	outstanding sync.WaitGroup

	ackedThrough      uint64 // sender has resolved replies through this seq
	retries           int
	pendingRetransmit bool // duplicate requests seen: sender missed replies

	// pipeWait tracks pipelined calls whose reply is owed by the chain's
	// last guardian rather than by local execution: seq -> when the chain
	// left here. An entry is cleared when the chain's resolution arrives
	// (handleResolve) and converted into an unavailable reply if the chain
	// goes silent past the stall deadline (see tick). Guarded by r.mu.
	pipeWait map[uint64]time.Time
}

// maxSeqAhead bounds how far past the contiguous frontier a request seq
// may run and still be buffered. Legitimate senders stay well inside it
// (it allows a million calls in flight); a garbled seq far outside the
// window must not be admitted to the ring, where covering it would force
// unbounded growth. Dropped requests are redelivered by sender
// retransmission once the window slides forward.
const maxSeqAhead = 1 << 20

func newRStream(p *Peer, key streamKey, incarnation uint64, opts Options) *rstream {
	r := &rstream{
		peer:        p,
		key:         key,
		keyStr:      key.String(),
		opts:        opts,
		incarnation: incarnation,
		epoch:       nextEpoch(),
		expected:    1,
		execCh:      make(chan request, 1024),
	}
	r.incA.Store(incarnation)
	r.expectedA.Store(1)
	r.watermark.Store(1)
	p.wg.Add(1)
	go r.executor()
	return r
}

// completedThroughNow is the contiguous completed prefix. The watermark
// is atomic, so any caller (tick under r.mu, completions under replyMu)
// may read it.
func (r *rstream) completedThroughNow() uint64 { return r.watermark.Load() - 1 }

// handleRequestBatch integrates a request batch from the sender.
func (r *rstream) handleRequestBatch(b *requestBatch) {
	r.mu.Lock()
	if b.Incarnation < r.incarnation {
		r.mu.Unlock()
		return // stale
	}
	if b.Incarnation > r.incarnation {
		// The sender reincarnated the stream; adopt the new incarnation
		// with fresh state. (Old calls were already resolved at the
		// sender by the break.)
		r.resetLocked(b.Incarnation)
	}
	if r.broken {
		// Calls on a broken stream are discarded at the receiver.
		r.mu.Unlock()
		return
	}

	// The sender's ack lets us drop retained replies.
	if b.AckRepliesThrough > r.ackedThrough {
		r.ackedThrough = b.AckRepliesThrough
		r.retries = 0
		now := r.peer.clk.Now()
		r.replyMu.Lock()
		r.lastAckProgressAt = now
		r.pruneRetainedLocked()
		r.replyMu.Unlock()
	}

	sm := r.peer.sm
	for _, req := range b.Requests {
		switch {
		case req.Seq < r.expected:
			// Duplicate of an already-delivered request: our reply batch
			// was probably lost; retransmit retained replies soon.
			r.pendingRetransmit = true
			if sm != nil {
				sm.duplicateReqs.Inc()
			}
		case req.Seq >= r.expected+maxSeqAhead:
			// Implausibly far ahead (a garbled seq, or a sender pipelining
			// beyond the protocol window): drop; retransmission redelivers
			// it once the window slides.
		case r.oo.has(req.Seq):
			r.pendingRetransmit = true
			if sm != nil {
				sm.duplicateReqs.Inc()
			}
		default:
			r.oo.put(req.Seq, req)
			if r.peer.tracing() {
				r.peer.emitCause(trace.CallDelivered, r.keyStr, req.Seq, req.Trace,
					trace.Cause{Root: req.Root, Parent: req.Parent}, "")
			}
		}
	}
	r.drainLocked()
	// Duplicate requests are evidence the sender missed replies: only
	// then does a flush re-send the full retained set. An empty request
	// batch is the sender probing for liveness (or a pure ack); answer
	// with progress — and whatever suffix is pending — so the sender
	// knows this end is alive and which boot epoch it is talking to.
	var msg []byte
	if r.pendingRetransmit || len(b.Requests) == 0 {
		inc, completed := r.incarnation, r.completedThroughNow()
		r.replyMu.Lock()
		if r.pendingRetransmit && len(r.retained) > 0 {
			msg = r.buildReplyBatchLocked(true, inc, completed)
			r.pendingRetransmit = false
		} else if len(b.Requests) == 0 {
			msg = r.buildReplyBatchLocked(false, inc, completed)
		}
		r.replyMu.Unlock()
	}
	r.mu.Unlock()
	if msg != nil {
		r.peer.transmit(r.key.senderNode, msg)
	}
}

// pruneRetainedLocked drops the retained replies the sender has
// acknowledged. Caller holds replyMu (and, on the ack path, r.mu).
func (r *rstream) pruneRetainedLocked() {
	kept := r.retained[:0]
	for _, rep := range r.retained {
		if rep.Seq > r.ackedThrough {
			kept = append(kept, rep)
		}
	}
	// Unsent replies are always the newest; clamp in case pruning ate
	// into the unsent suffix (it cannot, but be safe).
	if r.unsentReplies > len(kept) {
		r.unsentReplies = len(kept)
		r.unsentBytes = 0 // approximate; only the can't-happen clamp path
	}
	r.retained = kept
}

// drainLocked moves contiguously-sequenced requests to the executor.
// Delivery to user code is therefore exactly-once and in call order.
func (r *rstream) drainLocked() {
	if r.closed {
		return
	}
	for {
		req, ok := r.oo.get(r.expected)
		if !ok {
			return
		}
		select {
		case r.execCh <- req:
			r.oo.del(r.expected)
			r.expected++
			r.expectedA.Store(r.expected)
		default:
			return // executor backlogged; retry on a later tick
		}
	}
}

// executor runs calls in seq order. "The Argus system will delay its
// execution until all earlier calls on its stream have completed" — with
// one explicit override, anticipated by §2.1: ports marked parallel (see
// Peer.SetParallelPorts) run concurrently with later calls on the same
// stream. A serial call still waits for every earlier call, parallel ones
// included, so ordering is preserved for everything not opted out.
func (r *rstream) executor() {
	defer r.peer.wg.Done()
	var scratch Incoming // serial calls reuse one Incoming; retired after each
	for {
		var req request
		var ok bool
		select {
		case req, ok = <-r.execCh:
			if !ok {
				r.outstanding.Wait()
				return
			}
		case <-r.peer.ctx.Done():
			// Peer shutdown: exit even if nobody closed this stream (a
			// stream created in a race with Close). Queued requests are
			// abandoned, as in a crash.
			r.outstanding.Wait()
			return
		}
		if r.peer.parallelPredicate()(req.Port) {
			// Parallel ports run on the peer's bounded worker pool rather
			// than a goroutine per request, so a flood of parallel calls
			// costs at most execWorkers stacks. When the pool and its queue
			// are saturated, submission blocks — backpressure instead of
			// unbounded spawn.
			r.outstanding.Add(1)
			if !r.peer.submitParallel(r, req) {
				r.outstanding.Done() // shutdown race: abandoned, as in a crash
			}
			continue
		}
		r.outstanding.Wait()
		r.executeOne(req, &scratch)
	}
}

// executeOne runs one call through its handler and records the
// completion. call is the executor's scratch Incoming: valid only during
// the handler, poisoned afterwards (see Incoming). The completion and
// reply bookkeeping takes only replyMu; r.mu is touched briefly before
// the handler and only the rare synchronous-break path takes it
// afterwards.
func (r *rstream) executeOne(req request, call *Incoming) {
	r.mu.Lock()
	if r.broken {
		r.mu.Unlock()
		return
	}
	inc := r.incarnation
	r.mu.Unlock()

	// A request carrying a continuation chain is pipelined: its result is
	// forwarded to the next stage's guardian (or, with no stages left, to
	// the promise reference) instead of being replied here. A garbled or
	// unknown-version blob degrades the call to plain caller-mediated
	// execution — the reply then carries stage one's value, unpiped, and
	// the caller drives the remaining stages itself.
	var (
		piped   bool
		pref    pipeRef
		pstages []PipeStage
	)
	if req.Cont != nil && req.Mode != ModeRPC && !r.opts.NoPipelining {
		if ref, stages, err := decodePipeCont(req.Cont); err == nil {
			piped, pref, pstages = true, ref, stages
		}
	}

	*call = Incoming{
		From:  r.key.senderNode,
		Agent: r.key.agent,
		Group: r.key.group,
		Port:  req.Port,
		Seq:   req.Seq,
		Mode:  req.Mode,
		Args:  req.Args,
		Trace: req.Trace,
		Cause: trace.Cause{Root: req.Root, Parent: req.Parent},
		Local: call.Local,
	}
	sm := r.peer.sm
	var execStart time.Time
	if sm != nil {
		execStart = r.peer.clk.Now()
	}
	var outcome Outcome
	if h, ok := r.peer.dispatcher()(req.Port); ok {
		outcome = h(call)
	} else {
		outcome = ExceptionOutcome(exception.Failure("handler does not exist"))
	}
	breakReason := call.breakReason
	call.retire()
	if sm != nil {
		sm.callsExecuted.Inc()
		sm.stageExec.ObserveDuration(r.peer.clk.Now().Sub(execStart))
	}
	r.peer.emitCause(trace.CallExecuted, r.keyStr, req.Seq, req.Trace,
		trace.Cause{Root: req.Root, Parent: req.Parent}, req.Port)

	if piped && req.Mode == ModeCall {
		// This call's reply is owed by the chain's last guardian; record
		// that we are waiting for it BEFORE the completion bookkeeping
		// (lock order is r.mu before replyMu), so a fast resolution can
		// never race ahead of the registration.
		r.notePipeOutstanding(req.Seq)
	}
	var msg []byte
	r.replyMu.Lock()
	if r.incA.Load() != inc || r.brokenA.Load() {
		r.replyMu.Unlock()
		return
	}
	// Completion may be out of order when parallel ports are in play; the
	// watermark advances over the contiguous prefix only.
	r.completedSet.put(req.Seq, struct{}{})
	w := r.watermark.Load()
	for r.completedSet.has(w) {
		r.completedSet.del(w)
		w++
	}
	r.watermark.Store(w)
	// Sends omit normal replies from the wire. Pipelined requests retain
	// nothing here at all — even exceptions: the epoch scheduler forwards
	// the outcome (exceptional outcomes ARE the chain's resolution), and
	// the reply materializes when the resolution comes back to pipeWait.
	if !piped && (req.Mode != ModeSend || !outcome.Normal) {
		r.retainLocked(req.Seq, outcome)
		if r.peer.tracing() {
			detail := "normal"
			if !outcome.Normal {
				detail = outcome.Exception
			}
			r.peer.emitCause(trace.CallReplied, r.keyStr, req.Seq, req.Trace,
				trace.Cause{Root: req.Root, Parent: req.Parent}, detail)
		}
	}
	completed := r.completedThroughNow()
	// Results big enough to ride alone close the reply batch, as a big
	// call's arguments close the request batch (see frame.go).
	flushNow := req.Mode == ModeRPC || r.unsentReplies >= r.opts.MaxBatch || breakReason != nil ||
		outcome.frame != nil ||
		(r.opts.MaxBatchBytes > 0 && r.unsentBytes >= r.opts.MaxBatchBytes)
	if flushNow && (r.unsentReplies > 0 || completed > r.sentCompleted) {
		msg = r.buildReplyBatchLocked(false, inc, completed)
	}
	r.replyMu.Unlock()

	var breakNote []byte
	if breakReason != nil {
		// Synchronous break requested by the handler (e.g. decode failure
		// at the receiver): this call and earlier ones are unaffected,
		// later calls on the stream are discarded.
		r.mu.Lock()
		if !r.broken && r.incarnation == inc {
			r.broken = true
			r.brokenA.Store(true)
			breakNote = encodeBreak(breakMsg{
				Agent:       r.key.agent,
				Group:       r.key.group,
				Incarnation: r.incarnation,
				Synchronous: true,
				BrokenAfter: req.Seq,
				ExcName:     breakReason.Name,
				Reason:      breakReason.StringArg(0),
			})
		}
		r.mu.Unlock()
	}

	if msg != nil {
		r.peer.transmit(r.key.senderNode, msg)
	}
	if breakNote != nil {
		r.peer.transmit(r.key.senderNode, breakNote)
	}
	if piped {
		// Hand the outcome to the epoch scheduler, which splices it into
		// the next stage's arguments and forwards (or, for an exhausted
		// chain or an exceptional outcome, resolves the promise
		// reference). May block when the continuation queue is full —
		// that backpressure is deliberate.
		r.peer.scheduler().submit(pipeWork{
			ref:     pref,
			stages:  pstages,
			outcome: outcome,
			cause:   trace.ChildOf(trace.Cause{Root: req.Root, Parent: req.Parent}, req.Trace),
		})
	}
}

// notePipeOutstanding records that seq's reply is owed by a continuation
// chain rather than local execution.
func (r *rstream) notePipeOutstanding(seq uint64) {
	r.mu.Lock()
	if r.pipeWait == nil {
		r.pipeWait = make(map[uint64]time.Time)
	}
	r.pipeWait[seq] = r.peer.clk.Now()
	r.mu.Unlock()
}

// handleResolve integrates a chain resolution addressed to this receiving
// stream: the outcome becomes the retained reply of the pipelined call
// that started the chain, and it is flushed to the sender immediately
// (the chain already cost its latency; no reason to add batch delay).
// Returns true when the forwarder should be acked — which is every case:
// stale, duplicate, and unknown resolutions are acked too, so a confused
// or lagging forwarder stops retransmitting.
func (r *rstream) handleResolve(m *resolveMsg) bool {
	r.mu.Lock()
	if m.Incarnation != r.incarnation || r.broken {
		r.mu.Unlock()
		return true
	}
	if _, ok := r.pipeWait[m.Seq]; !ok {
		r.mu.Unlock()
		return true // duplicate (already retained) or never pipelined here
	}
	delete(r.pipeWait, m.Seq)
	inc := r.incarnation
	completed := r.completedThroughNow()
	r.mu.Unlock()
	r.retainPipedReply(m.Seq, m.Outcome, inc, completed)
	return true
}

// retainPipedReply retains a chain resolution as seq's reply and flushes
// the reply batch at once.
func (r *rstream) retainPipedReply(seq uint64, o Outcome, inc, completed uint64) {
	r.replyMu.Lock()
	if r.incA.Load() != inc || r.brokenA.Load() {
		r.replyMu.Unlock()
		return
	}
	r.retainLocked(seq, o)
	msg := r.buildReplyBatchLocked(false, inc, completed)
	r.replyMu.Unlock()
	r.peer.transmit(r.key.senderNode, msg)
}

// retainLocked keeps seq's reply until the sender acknowledges it and
// queues it for the next reply batch. Caller holds replyMu.
func (r *rstream) retainLocked(seq uint64, o Outcome) {
	if len(r.retained) == 0 {
		// Retained becomes non-empty: start both retransmission clocks
		// from the reply's birth.
		now := r.peer.clk.Now()
		r.lastFullReplyAt = now
		r.lastAckProgressAt = now
	}
	if r.unsentReplies == 0 {
		r.oldestUnsentAt = r.peer.clk.Now()
	}
	r.retained = append(r.retained, reply{Seq: seq, Outcome: o})
	r.unsentReplies++
	r.unsentBytes += len(o.Exception) + len(o.Payload) + reqOverheadBytes
	if sm := r.peer.sm; sm != nil {
		sm.replies.Inc()
	}
}

// buildReplyBatchLocked encodes a reply batch carrying current progress
// and replies. A normal flush (retransmit=false) carries only the unsent
// suffix of the retained replies — already-transmitted replies ride again
// only when retransmit=true, i.e. on loss evidence (duplicate requests)
// or an ack-progress stall in tick. This keeps steady-state reply bytes
// proportional to new work instead of O(retained window) per flush. inc
// is the caller's incarnation snapshot and completed the completion
// prefix. Caller holds replyMu; the encoder reads the retained slice
// where it lies (and is done with it before the lock is released), so no
// reply struct is copied on either path. A lone unsent reply whose
// results fill a page does not have its bytes copied either: the message
// is built in the results' own buffer (frame.go), once — a
// retransmission always re-encodes.
func (r *rstream) buildReplyBatchLocked(retransmit bool, inc, completed uint64) []byte {
	reps := r.retained
	if !retransmit {
		reps = r.retained[len(r.retained)-r.unsentReplies:]
	}
	if len(reps) == len(r.retained) {
		// Everything retained is on the wire in this batch: restart the
		// full-retransmission pacing clock.
		r.lastFullReplyAt = r.peer.clk.Now()
	}
	if sm := r.peer.sm; sm != nil && r.unsentReplies > 0 {
		sm.stageReplyWait.ObserveDuration(r.peer.clk.Now().Sub(r.oldestUnsentAt))
	}
	r.unsentReplies = 0
	r.unsentBytes = 0
	r.sentCompleted = completed
	r.sentAcked = r.expectedA.Load() - 1
	if r.peer.tracing() {
		detail := trace.BatchDetail(len(reps))
		if retransmit {
			detail = fmt.Sprintf("n=%d retransmit", len(reps))
		}
		r.peer.emit(trace.ReplyBatchSent, r.keyStr, completed, 0, detail)
	}
	batch := replyBatch{
		Agent:              r.key.agent,
		Group:              r.key.group,
		Incarnation:        inc,
		Epoch:              r.epoch,
		AckRequestsThrough: r.sentAcked,
		CompletedThrough:   completed,
		Replies:            reps,
		// The admission grant: flow-controlled senders may run this far
		// ahead of our completed prefix. Monotone within an incarnation
		// because the completion prefix is.
		Credit: completed + recvWindow,
	}
	var msg []byte
	if !retransmit {
		msg = frameReplyBatch(batch)
	}
	if msg == nil {
		msg = encodeReplyBatch(batch)
	} else {
		reps[0].Outcome.frame = nil // spent: the buffer is the transport's now
	}
	if sm := r.peer.sm; sm != nil {
		sm.replyBatches.Inc()
		sm.replyBatchBytes.Observe(uint64(len(msg)))
		if retransmit {
			sm.replyResends.Inc()
		}
	}
	return msg
}

// handleBreak integrates a break notification from the sender: discard
// stream state; the sender has already resolved its promises.
func (r *rstream) handleBreak(b *breakMsg) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if b.Incarnation != r.incarnation {
		return
	}
	r.broken = true
	r.brokenA.Store(true)
	r.oo.reset()
	r.pipeWait = nil
	r.replyMu.Lock()
	r.retained = nil
	r.unsentReplies = 0
	r.unsentBytes = 0
	r.replyMu.Unlock()
}

// resetLocked adopts a new incarnation with fresh protocol state.
func (r *rstream) resetLocked(incarnation uint64) {
	r.incarnation = incarnation
	r.incA.Store(incarnation)
	r.broken = false
	r.brokenA.Store(false)
	r.expected = 1
	r.expectedA.Store(1)
	r.oo.reset()
	r.ackedThrough = 0
	r.retries = 0
	r.pendingRetransmit = false
	r.pipeWait = nil
	r.replyMu.Lock()
	r.retained = nil
	r.unsentReplies = 0
	r.unsentBytes = 0
	r.sentCompleted = 0
	r.sentAcked = 0
	r.completedSet.reset()
	r.watermark.Store(1)
	r.replyMu.Unlock()
	// Drain any stale queued requests from the old incarnation. The
	// executor may be mid-call; executeOne re-checks the incarnation.
	for {
		select {
		case <-r.execCh:
		default:
			return
		}
	}
}

// tick flushes aged reply batches, pushes progress for send-only
// workloads, and retransmits unacknowledged replies.
func (r *rstream) tick(now time.Time) {
	var (
		msg       []byte
		breakNote []byte
	)
	r.mu.Lock()
	if r.broken {
		r.mu.Unlock()
		return
	}
	r.drainLocked()
	inc := r.incarnation
	completed := r.completedThroughNow()
	// Pipelined calls whose chain has gone silent past the stall deadline
	// (forwarder retransmission is bounded by MaxRetries; this deadline
	// outlasts it) are converted into unavailable replies — the caller
	// gets a definite answer instead of waiting on a chain that died at
	// a crashed or legacy mid-chain guardian.
	var stalledPipes []uint64
	if len(r.pipeWait) > 0 {
		deadline := r.opts.RTO * time.Duration(r.opts.MaxRetries+2)
		if deadline < time.Second {
			deadline = time.Second
		}
		for seq, t0 := range r.pipeWait {
			if now.Sub(t0) >= deadline {
				stalledPipes = append(stalledPipes, seq)
				delete(r.pipeWait, seq)
			}
		}
	}
	r.replyMu.Lock()
	switch {
	case r.unsentReplies > 0 && now.Sub(r.oldestUnsentAt) >= r.opts.MaxBatchDelay:
		msg = r.buildReplyBatchLocked(false, inc, completed)
	case completed > r.sentCompleted:
		// Progress notification so sends resolve at the sender.
		msg = r.buildReplyBatchLocked(false, inc, completed)
	case r.unsentReplies == 0 && r.expected-1 > r.sentAcked:
		// Requests were accepted since we last said so, and no reply is
		// about to say it (their handlers are still running): acknowledge
		// receipt now. The sender stops retransmitting them, and it learns
		// our boot epoch — should we crash and recover before the first
		// reply, it can tell the newcomer's answers from ours and break the
		// stream, instead of adopting the newcomer and having the
		// unacknowledged calls executed a second time.
		msg = r.buildReplyBatchLocked(false, inc, completed)
	case len(r.retained) > 0 && now.Sub(r.lastAckProgressAt) >= r.opts.RTO &&
		now.Sub(r.lastFullReplyAt) >= r.opts.RTO:
		// The sender's reply ack has stalled a full RTO with replies
		// retained: some reply batch (which also carried our request ack)
		// was lost, or the sender cannot reach us. Re-send everything
		// retained, paced one RTO apart by lastFullReplyAt. This is the
		// only path — besides duplicate-request evidence — that re-sends
		// already-transmitted replies.
		r.retries++
		if sm := r.peer.sm; sm != nil {
			sm.recvRTOFires.Inc()
		}
		if r.retries > r.opts.MaxRetries {
			// We cannot get replies through; break the stream from the
			// receiving side. Further calls will be discarded.
			r.broken = true
			r.brokenA.Store(true)
			breakNote = encodeBreak(breakMsg{
				Agent:       r.key.agent,
				Group:       r.key.group,
				Incarnation: r.incarnation,
				Synchronous: false,
				ExcName:     exception.NameUnavailable,
				Reason:      "cannot communicate",
			})
		} else {
			msg = r.buildReplyBatchLocked(true, inc, completed)
		}
	}
	r.replyMu.Unlock()
	r.mu.Unlock()
	for _, seq := range stalledPipes {
		o := ExceptionOutcome(exception.Unavailable("pipeline stalled"))
		o.Piped = true // definite chain outcome; no caller-mediated retry
		r.retainPipedReply(seq, o, inc, completed)
	}
	if msg != nil {
		r.peer.transmit(r.key.senderNode, msg)
	}
	if breakNote != nil {
		r.peer.transmit(r.key.senderNode, breakNote)
	}
}

func (r *rstream) close() {
	r.mu.Lock()
	if !r.closed {
		r.closed = true
		close(r.execCh)
	}
	r.mu.Unlock()
}
