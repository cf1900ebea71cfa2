package stream

import (
	"crypto/rand"
	"encoding/binary"
	"math"
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
var epochCounter atomic.Uint64

func init() {
	var b [8]byte
	_, _ = rand.Read(b[:]) // on failure every boot draws the same epochs
	epochCounter.Store(epochSeed(binary.BigEndian.Uint64(b[:])))
}

// epochSeed places 31 bits of x above a 24-bit count, with bit 55 set:
// every epoch lies in [2^55, 2^56) and so encodes at one width (every
// reply batch carries one), and none is 0, which means "epoch unknown"
// on the sender side.
func epochSeed(x uint64) uint64 { return 1<<55 | x>>33<<24 }

func nextEpoch() uint64 { return epochCounter.Add(1) }

// Incoming describes one call request being executed at the receiver.
//
// The struct handed to a handler is a per-runner scratch that is
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

	// Trace is this call's own trace ID (trace.CallID, derived here as the
	// sender derives it). Cause is the causal context the sender
	// propagated with the call — its root trace ID and the trace ID of the
	// call that caused it — or the zero Cause when the call is a chain root.
	Trace uint64
	Cause trace.Cause

	// Local belongs to the dispatch layer above. It is the one field that
	// survives retirement: whatever a handler leaves here is handed to
	// the next call that runs on the same runner, so a dispatcher can
	// keep its own per-call scratch beside the stream's (the guardian
	// parks its Call there). The stream layer never reads it.
	Local any

	peer        *Peer // whose marshal arena Marshal carves from
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
// it issues on this call's behalf (Req.Cause, the promise Cause
// variants): the chain root is inherited from the incoming cause
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
	peer    *Peer
	key     streamKey
	keyStr  string // key.String(), cached once
	keyHash uint64 // trace.HashStream(keyStr), cached for trace-ID derivation
	opts    Options

	// due is the stream's place in its peer's deadline queue (see fire).
	due due

	// outstanding counts in-flight parallel calls; the runner waits for
	// it to drain before running a serial call, so serial calls still
	// appear to happen in call order. pooled says calls were handed to the
	// pool since the runner last waited. Owned by the runner.
	outstanding sync.WaitGroup
	pooled      bool

	// resolved holds the origin reply lanes this stream's runner has
	// retained chain resolutions in (a ~pipe stream's resolution sends):
	// they are flushed once nothing is left to run. Owned by the runner.
	resolved replyLanes

	// mu guards the rest: one lock per stream end, taken alike by request
	// intake, the runner, a finishing handler and the deadline queue.
	mu          sync.Mutex
	incarnation uint64
	epoch       uint64
	broken      bool

	// A handler broke the stream at call breakAt for breakReason
	// (BreakStream): nothing past it runs or replies, and the stream breaks
	// once the sender has acked every reply through it. note is the notice
	// of a break this end made, repeated to a sender that keeps talking.
	breakAt     uint64
	breakReason *exception.Exception
	note        []byte

	// Request ordering and exactly-once delivery. oo holds every received
	// request that has not run yet, in order or not: it is the execution
	// queue, a seq-indexed ring over the in-flight window. expected is the
	// contiguous receive frontier, which the ack reports; nextRun <=
	// expected is the next seq to run. running says a runner owns the
	// stream (see run).
	expected uint64
	nextRun  uint64
	oo       seqRing[request]
	running  bool
	closed   bool // the peer let go of the stream: it runs and sends nothing

	// Completion: watermark is the smallest seq not yet completed, and
	// completedSet holds the seqs completed beyond it (parallel ports,
	// custody), as a seq-indexed ring.
	watermark    uint64
	completedSet seqRing[struct{}]

	// pipeWait holds the pipelined calls whose reply is owed by their
	// chain's resolution. The first resolution clears its seq's entry, so
	// a duplicate or late one is dropped (resolvePiped).
	pipeWait seqRing[struct{}]

	// Reply retention (lane.go): the replies executed and not yet acked by
	// the sender. A normal flush transmits only the lane's unsent suffix,
	// a reported hole (Held, or a duplicate request) the run above the
	// ack, and an ack-progress stall (see fire) everything held, so reply
	// traffic stays proportional to new work, not to the retained window.
	lane          lane[reply, *reply]
	sentCompleted uint64 // CompletedThrough value last transmitted
	sentAcked     uint64 // AckRequestsThrough value last transmitted

	// replied is the reply lane's ackable bound: every call through it has
	// completed and owes no chain's resolution (pipeWait), so the sender
	// can ack its reply on arrival (ackableLocked).
	replied uint64

	// gap is what the stream holds of the request lane past its ack, for
	// its reply batches to report (lane.go).
	gap gap
}

// replyLanes collects the reply lanes chain resolutions were retained in,
// so each is flushed once per delivered batch or wave, not once per chain.
type replyLanes []*rstream

func (l *replyLanes) add(r *rstream) {
	for _, x := range *l {
		if x == r {
			return
		}
	}
	*l = append(*l, r)
}

func (l *replyLanes) flush() {
	for _, r := range *l {
		r.flushReplies()
	}
	clear(*l)
	*l = (*l)[:0]
}

// maxSeqAhead bounds how far past the next seq to run a request seq may
// be and still be buffered. Legitimate senders stay well inside it
// (it allows a million calls in flight); a garbled seq far outside the
// window must not be admitted to the ring, where covering it would force
// unbounded growth. Dropped requests are redelivered by sender
// retransmission once the window slides forward.
const maxSeqAhead = 1 << 20

func newRStream(p *Peer, key streamKey, incarnation uint64, opts Options) *rstream {
	keyStr := key.String()
	r := &rstream{
		peer:        p,
		key:         key,
		keyStr:      keyStr,
		keyHash:     trace.HashStream(keyStr),
		opts:        opts,
		incarnation: incarnation,
		epoch:       nextEpoch(),
		expected:    1,
		nextRun:     1,
		watermark:   1,
	}
	r.due.rank, r.due.fire = rankRecv, r.fire
	return r
}

// completedThroughNow is the contiguous completed prefix. Caller holds r.mu.
func (r *rstream) completedThroughNow() uint64 { return r.watermark - 1 }

// handleRequestBatch integrates a request batch from the sender.
func (r *rstream) handleRequestBatch(b *requestBatch) {
	r.mu.Lock()
	if b.Incarnation < r.incarnation || r.closed {
		// Stale, or a closed end, which answers nothing, not even a probe.
		r.mu.Unlock()
		return
	}
	if b.Incarnation > r.incarnation {
		// The sender reincarnated the stream; adopt the new incarnation
		// with fresh state. (Old calls were already resolved at the
		// sender by the break.)
		r.resetLocked(b.Incarnation)
	}
	if r.broken {
		// Calls on a broken stream are discarded at the receiver. A sender
		// still talking has not heard the notice of a break this end made.
		note := r.note
		r.mu.Unlock()
		if note != nil {
			r.peer.transmit(r.key.senderNode, note)
		}
		return
	}
	// The sender spoke, so no re-send of ours so far counts toward a break.
	r.lane.retries = 0
	now := r.peer.clk.Now()

	// The sender's ack lets us drop retained replies. Once it covers a
	// handler's break point, both ends know every reply through it.
	if b.AckRepliesThrough > r.lane.acked {
		r.lane.ack(b.AckRepliesThrough, now)
		if r.breakAt != 0 && r.lane.acked >= r.breakAt {
			note := r.breakLocked(r.breakReason)
			r.mu.Unlock()
			r.peer.transmit(r.key.senderNode, note)
			return
		}
	}

	sm := r.peer.sm
	expected, dup := r.expected, false
	for _, req := range b.Requests {
		switch {
		case req.Seq < r.expected, r.oo.has(req.Seq):
			// Duplicate of a request already received: the sender had not
			// seen our ack when it re-sent (see below).
			dup = true
			if sm != nil {
				sm.duplicateReqs.Inc()
			}
		case req.Seq >= r.nextRun+maxSeqAhead, r.breakAt != 0:
			// Implausibly far ahead (a garbled seq, or a sender pipelining
			// beyond the protocol window): drop; retransmission redelivers
			// it once the window slides. Or past a handler's break point.
		default:
			r.oo.put(req.Seq, req)
			r.gap.hold(req.Seq)
			if r.peer.tracing() {
				r.peer.emitCause(trace.CallDelivered, r.keyStr, req.Seq, trace.CallID(r.keyHash, r.incarnation, req.Seq),
					trace.Cause{Root: req.Root, Parent: req.Parent}, "")
			}
		}
	}
	for r.oo.has(r.expected) {
		r.expected++
	}
	r.gap.note(r.expected-1, true, now)
	hand := !r.running && r.nextRun < r.expected
	if hand {
		r.running = true
	}
	// A duplicate request is a hole report: we re-send the replies sent
	// from the sender's ack plus one, once per ack (lane.mend), and with
	// none to re-send we answer with the ack, since the sender re-sends
	// only the head of what it sent and would repeat the duplicate. A
	// probe is the sender asking after our liveness; answer with progress
	// — and whatever suffix is pending — so the sender knows this end is
	// alive and which boot epoch it is talking to. So are requests whose
	// batch acks a reply through a seq this end had not accepted: the
	// sender heard it from another end, so this one was recreated by a
	// crash, and the calls before the gap, acked by its predecessor, will
	// never come; only our epoch tells the sender so. A pure ack asks
	// nothing, unless it reports a hole in the replies the sender holds:
	// that is re-sent at once. And a hole in the requests this end holds
	// that has aged unreported is reported now (lane.go).
	var msg []byte
	recreated := len(b.Requests) > 0 && b.AckRepliesThrough >= expected
	if arrived := r.expected > expected; arrived || dup || recreated || b.Probe != 0 {
		var reps []reply
		if dup {
			reps = r.lane.mend(now, r.opts.MaxBatch, math.MaxUint64)
		}
		if len(reps) > 0 {
			msg = r.replyBatchLocked(reps, now, whyRetransmit)
		} else if dup || recreated || b.Probe != 0 {
			msg = r.buildReplyBatchLocked()
		}
		if r.noteOwedLocked() {
			r.peer.arm(&r.due, now, now)
		}
	}
	if msg == nil && b.Held != 0 && b.AckRepliesThrough == r.lane.acked {
		if reps := r.lane.mend(now, r.opts.MaxBatch, b.AckRepliesThrough+b.Held); len(reps) > 0 {
			msg = r.replyBatchLocked(reps, now, whyHole)
		}
	}
	if due := r.gap.due(r.lane.window()); msg == nil && reached(due, now) {
		msg = r.buildReplyBatchLocked()
	} else if !due.IsZero() {
		r.peer.arm(&r.due, due, now)
	}
	r.mu.Unlock()
	if hand {
		r.peer.handOff(r)
	}
	if msg != nil {
		r.peer.transmit(r.key.senderNode, msg)
	}
}

// run executes r's received calls in seq order until none is left, then
// gives the stream up; the caller is the runner that owns it (Peer.handOff).
// "The Argus system will delay its execution until all earlier calls on
// its stream have completed" — with one explicit override, anticipated by
// §2.1: ports marked parallel (see Peer.SetParallelPorts) run concurrently
// with later calls on the same stream. A serial call still waits for every
// earlier call, parallel ones included, so ordering is preserved for
// everything not opted out. A closed or broken stream abandons what it
// holds, as in a crash, and so does one a handler broke: a call is taken
// only while the stream runs, and one that then waits (for a worker, or
// for the parallel calls ahead of it) is checked again before it runs.
func (r *rstream) run(call *Incoming) {
	for {
		r.mu.Lock()
		if r.closed || r.broken || r.breakAt != 0 || r.nextRun == r.expected {
			if len(r.resolved) > 0 {
				r.mu.Unlock()
				r.resolved.flush()
				continue
			}
			r.running = false
			r.mu.Unlock()
			return
		}
		// The request and its incarnation are taken together, so a reset
		// cannot slip between them and run an old call as a new one.
		req, _ := r.oo.get(r.nextRun)
		r.oo.del(r.nextRun)
		r.nextRun++
		inc := r.incarnation
		r.mu.Unlock()
		if req.Port != pipeResolvePort && r.peer.isParallel(req.Port) {
			// Parallel ports run on the peer's bounded worker pool rather
			// than a goroutine per request, so a flood of parallel calls
			// costs at most execWorkers stacks. When the pool and its queue
			// are saturated, submission blocks — backpressure instead of
			// unbounded spawn.
			r.outstanding.Add(1)
			r.pooled = true
			if !r.peer.submitParallel(execTask{r: r, req: req, inc: inc}) {
				r.outstanding.Done() // shutdown race: abandoned, as in a crash
			}
			continue
		}
		if r.pooled {
			r.outstanding.Wait()
			r.pooled = false
			if !r.live(inc, req.Seq) {
				continue
			}
		}
		r.executeOne(req, inc, call)
	}
}

// live reports whether call seq of incarnation inc may still run.
func (r *rstream) live(inc, seq uint64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.liveLocked(inc, seq)
}

// liveLocked reports whether call seq of incarnation inc may still run and
// reply: the stream has not broken, closed or moved to a new incarnation,
// and no handler broke it at an earlier call. Caller holds r.mu.
func (r *rstream) liveLocked(inc, seq uint64) bool {
	return r.incarnation == inc && !r.broken && !r.closed && (r.breakAt == 0 || seq <= r.breakAt)
}

// executeOne runs one call of incarnation inc through its handler and
// records the completion (see complete). call is the runner's scratch
// Incoming: valid only during the handler, poisoned afterwards (see
// Incoming). Its caller has checked that incarnation inc still runs.
func (r *rstream) executeOne(req request, inc uint64, call *Incoming) {
	// A request carrying a continuation chain is pipelined: its result is
	// forwarded to the next stage's guardian (or, with no stages left, to
	// the promise reference) instead of being replied here. A garbled or
	// unknown-version blob fails the call without running it: replying
	// with stage one's value would hand the caller a value it takes for
	// the whole chain's. So does a chain starting here whose promise
	// reference is not this call: nothing would ever resolve it, or the
	// calls behind it. A ~pipe stream's call to the resolution port is a
	// chain's resolution: it is taken here, before dispatch.
	var (
		cont      pipeCont
		malformed bool
	)
	if req.Cont != nil {
		var err error
		cont, err = parsePipeCont(req.Cont)
		malformed = err != nil || !r.key.custodial() && !cont.names(pipeRef{r.key, inc, req.Seq})
	}
	resolution := req.Port == pipeResolvePort && r.key.custodial()
	piped := req.Cont != nil && !malformed && !resolution
	tid, cause := trace.CallID(r.keyHash, inc, req.Seq), trace.Cause{Root: req.Root, Parent: req.Parent}

	*call = Incoming{
		From:  r.key.senderNode,
		Agent: r.key.agent,
		Group: r.key.group,
		Port:  req.Port,
		Seq:   req.Seq,
		Mode:  req.Mode,
		Args:  req.Args,
		Trace: tid,
		Cause: cause,
		Local: call.Local,
		peer:  r.peer,
	}
	sm := r.peer.sm
	var execStart time.Time
	if sm != nil {
		execStart = r.peer.clk.Now()
	}
	var outcome Outcome
	if malformed {
		outcome = ExceptionOutcome(exception.Failure("malformed continuation"))
	} else if resolution {
		outcome = r.deliverResolution(&cont, req.Args)
	} else if h, ok := r.peer.handler(req.Port); ok {
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
	r.peer.emitCause(trace.CallExecuted, r.keyStr, req.Seq, tid, cause, req.Port)

	if breakReason != nil {
		// The handler broke the stream (e.g. its arguments did not decode):
		// this call and earlier ones are unaffected, later calls on the
		// stream are discarded.
		r.mu.Lock()
		if r.breakAt == 0 && r.liveLocked(inc, req.Seq) {
			r.breakAt, r.breakReason = req.Seq, breakReason
			r.oo.reset() // every call not yet taken lies past this one
		}
		r.mu.Unlock()
	}
	// A forward on a ~pipe stream stays in this hop's custody until the
	// chain is handed on, and the epoch scheduler completes it then, so the
	// hop upstream keeps its watch. Every other call completes now.
	if !(piped && r.key.custodial()) &&
		!r.complete(inc, req.Seq, req.Mode, cause, outcome, piped) {
		return
	}
	if piped {
		// Hand the outcome to the epoch scheduler, which splices it into
		// the next stage's arguments and forwards (or, for an exhausted
		// chain or an exceptional outcome, resolves the promise
		// reference). May block when the continuation queue is full —
		// that backpressure is deliberate.
		r.peer.scheduler().submit(pipeWork{cont: cont, outcome: outcome,
			in: custody{r: r, inc: inc, seq: req.Seq, cause: cause}})
	}
}

// complete records call seq's completion with outcome o in incarnation
// inc, retains its reply if the wire needs one, and flushes the lane if
// that cannot wait (the handler broke the stream at seq). It reports
// false, and sends nothing, once call seq may no longer reply (liveLocked).
func (r *rstream) complete(inc, seq uint64, mode Mode, cause trace.Cause, o Outcome, piped bool) bool {
	var msg []byte
	r.mu.Lock()
	if !r.liveLocked(inc, seq) {
		r.mu.Unlock()
		return false
	}
	owed := r.noteOwedLocked()
	if piped && mode != ModeSend {
		r.pipeWait.put(seq, struct{}{}) // before the scheduler sees the chain
	}
	// Completion may be out of order with parallel ports or custody; the
	// watermark advances over the contiguous prefix only. A ~pipe send
	// completing past it gets a reply of its own, so the watch upstream
	// never waits on another chain's custody.
	early := seq != r.watermark && r.key.custodial()
	r.completedSet.put(seq, struct{}{})
	for r.completedSet.has(r.watermark) {
		r.completedSet.del(r.watermark)
		r.watermark++
	}
	// Sends omit normal replies from the wire. A pipelined call retains
	// nothing here, not even an exception: the scheduler forwards the
	// outcome, and the reply comes back with the chain's resolution.
	if !piped && (mode != ModeSend || !o.Normal || early) {
		r.retainLocked(seq, o)
		if r.peer.tracing() {
			detail := "normal"
			if !o.Normal {
				detail = o.Exception
			}
			r.peer.emitCause(trace.CallReplied, r.keyStr, seq, trace.CallID(r.keyHash, inc, seq), cause, detail)
		}
	}
	completed := r.completedThroughNow()
	// Results big enough to ride alone close the reply batch, as a big
	// call's arguments close the request batch (see frame.go).
	flushNow := mode == ModeRPC || r.lane.unsent >= r.opts.MaxBatch || seq == r.breakAt || o.frame != nil
	if flushNow && (r.lane.unsent > 0 || completed > r.sentCompleted) {
		msg = r.buildReplyBatchLocked()
	} else if !owed && r.noteOwedLocked() {
		now := r.peer.clk.Now()
		r.peer.arm(&r.due, now, now)
	}
	r.mu.Unlock()
	if msg != nil {
		r.peer.transmit(r.key.senderNode, msg)
	}
	return true
}

// deliverResolution takes a chain's resolution off a resolution send and
// retains it at the origin stream the continuation names. The reply lane
// is flushed once this stream has nothing left to run (see run), or at
// once when it fills. A send with no continuation names
// no origin (the zero pipeCont's reference is empty) and fails.
func (r *rstream) deliverResolution(c *pipeCont, args []byte) Outcome {
	o, err := decodeOutcome(args)
	ref := c.ref()
	if err != nil || ref.recvNode != r.peer.name {
		return ExceptionOutcome(exception.Failure("malformed resolution"))
	}
	r.peer.resolvePipe(ref, o, &r.resolved)
	return NormalOutcome(nil)
}

// resolvePiped retains a chain's outcome as the reply of pipelined call
// seq, if that call still waits for its chain in incarnation inc, and
// reports whether the reply is left for the caller to flush (a full lane
// is flushed here). Any other resolution is dropped: first one wins.
func (r *rstream) resolvePiped(inc, seq uint64, o Outcome) bool {
	var msg []byte
	r.mu.Lock()
	if !r.liveLocked(inc, seq) || !r.pipeWait.has(seq) {
		r.mu.Unlock()
		return false
	}
	r.pipeWait.del(seq)
	r.retainLocked(seq, o)
	if r.lane.unsent >= r.opts.MaxBatch {
		msg = r.buildReplyBatchLocked()
	}
	r.mu.Unlock()
	if msg != nil {
		r.peer.transmit(r.key.senderNode, msg)
	}
	return msg == nil
}

// flushReplies transmits the reply lane's unsent replies now.
func (r *rstream) flushReplies() {
	var msg []byte
	r.mu.Lock()
	if !r.broken && !r.closed && r.lane.unsent > 0 {
		msg = r.buildReplyBatchLocked()
	}
	r.mu.Unlock()
	if msg != nil {
		r.peer.transmit(r.key.senderNode, msg)
	}
}

// retainLocked keeps seq's reply until the sender acknowledges it and
// queues it for the next reply batch. Caller holds r.mu.
func (r *rstream) retainLocked(seq uint64, o Outcome) {
	var now time.Time
	if r.lane.unsent == 0 {
		now = r.peer.clk.Now()
	}
	if r.lane.push(reply{Seq: seq, Outcome: o}, now) {
		// The first unsent reply: its age flush, and the retransmission
		// of what the lane holds, are fire's.
		r.peer.arm(&r.due, now, now)
	}
	if sm := r.peer.sm; sm != nil {
		sm.replies.Inc()
	}
}

// buildReplyBatchLocked encodes a reply batch carrying current progress
// and the unsent suffix of the retained replies. Replies already sent
// ride again only in a re-send: of a hole the sender reported, by a
// report or a duplicate request, or of everything held after an
// ack-progress stall (fire). This keeps steady-state reply bytes
// proportional to new work instead of O(retained window) per flush.
// Caller holds r.mu; the encoder reads the retained slice where it lies
// (and is done with it before the lock is released), so no reply struct
// is copied on either path. A lone unsent reply whose
// results fill a page does not have its bytes copied either: the message
// is built in the results' own buffer (frame.go), once — a
// retransmission always re-encodes.
func (r *rstream) buildReplyBatchLocked() []byte {
	now := r.peer.clk.Now()
	if sm := r.peer.sm; sm != nil && r.lane.unsent > 0 {
		sm.stageReplyWait.ObserveDuration(now.Sub(r.lane.opened))
	}
	return r.replyBatchLocked(r.lane.take(now, r.ackableLocked()), now, whyFlush)
}

// ackableLocked returns the highest seq whose reply the sender can ack on
// arrival: every call through it has completed, and none owes a chain's
// resolution. Caller holds r.mu.
func (r *rstream) ackableLocked() uint64 {
	for completed := r.completedThroughNow(); r.replied < completed && !r.pipeWait.has(r.replied+1); {
		r.replied++
	}
	return r.replied
}

// replyBatchLocked encodes a reply batch carrying reps, sent at now for
// why (a flush, a retransmit or a hole), counted and traced, with the
// current progress and the report of a hole in the requests held that is
// owed one. Caller holds r.mu.
func (r *rstream) replyBatchLocked(reps []reply, now time.Time, why sendWhy) []byte {
	completed := r.completedThroughNow()
	r.sentCompleted = completed
	r.sentAcked = r.expected - 1
	if r.peer.tracing() {
		r.peer.emit(trace.ReplyBatchSent, r.keyStr, completed, 0, whyDetail[why](len(reps)))
	}
	batch := replyBatch{
		Agent:              r.key.agent,
		Group:              r.key.group,
		Incarnation:        r.incarnation,
		Epoch:              r.epoch,
		AckRequestsThrough: r.sentAcked,
		Held:               r.gap.report(r.lane.window(), now),
		CompletedThrough:   completed,
		Replies:            reps,
		// The admission grant: the sender may run this far ahead of our
		// completed prefix. Monotone within an incarnation because the
		// completion prefix is.
		Credit: completed + recvWindow,
	}
	var msg []byte
	if why == whyFlush {
		msg = frameReplyBatch(batch)
	}
	if msg == nil {
		msg = encodeReplyBatch(batch, &r.peer.arena)
	} else {
		reps[0].Outcome.frame = nil // spent: the buffer is the transport's now
	}
	if sm := r.peer.sm; sm != nil {
		sm.replyBatches.Inc()
		sm.replyBatchBytes.Observe(uint64(len(msg)))
		if why != whyFlush {
			sm.replyResends.Inc()
		}
		if why == whyHole {
			sm.holeResends.Inc()
		}
	}
	return msg
}

// handleBreak integrates a break notification from the sender: discard
// stream state; the sender has already resolved its promises.
func (r *rstream) handleBreak(b *breakMsg) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if b.Incarnation == r.incarnation {
		r.breakLocked(nil)
	}
}

// breakLocked breaks the stream and drops what it holds. A break this end
// makes has a reason: its notice is kept, to answer a sender that keeps
// talking, and returned. Caller holds r.mu.
func (r *rstream) breakLocked(reason *exception.Exception) []byte {
	r.broken = true
	r.oo.reset()
	r.pipeWait.reset()
	r.lane.reset()
	if reason != nil {
		r.note = r.key.breakNote(r.incarnation, reason)
	}
	return r.note
}

// resetLocked adopts a new incarnation with fresh protocol state.
func (r *rstream) resetLocked(incarnation uint64) {
	r.incarnation = incarnation
	r.broken = false
	r.breakAt, r.breakReason, r.note = 0, nil, nil
	r.expected = 1
	r.nextRun = 1
	r.oo.reset()
	r.pipeWait.reset()
	r.lane.reset()
	r.sentCompleted = 0
	r.sentAcked = 0
	r.replied = 0
	r.gap = gap{}
	r.completedSet.reset()
	r.watermark = 1
}

// fire does the stream's timed work due at now: it flushes aged reply
// batches, pushes progress for send-only workloads, acknowledges receipt,
// and retransmits unacknowledged replies. It returns when the stream next
// owes any of these, or zero.
func (r *rstream) fire(now time.Time) time.Time {
	var (
		msg       []byte
		breakNote []byte
		next      time.Time
	)
	r.mu.Lock()
	if r.broken || r.closed {
		r.mu.Unlock()
		return time.Time{}
	}
	window := r.lane.window()
	switch {
	case reached(r.lane.flushAt(r.opts.MaxBatchDelay), now), r.noteOwedLocked(), reached(r.gap.due(window), now):
		// An aged batch, owed progress or receipt, or a hole in the
		// requests held that has aged unreported.
		msg = r.buildReplyBatchLocked()
	case reached(r.lane.resendAt(r.rtoLocked()), now):
		// The sender's reply ack has stalled a full RTO with replies
		// retained: some reply batch (which also carried our request ack)
		// was lost, or the sender cannot reach us. Re-send everything
		// retained, each re-send doubling the wait before the next. This is
		// the only path that re-sends everything held; a reported hole, or
		// a duplicate request, re-sends only the run above the sender's
		// ack. A live sender answers even when it cannot ack yet
		// (Stream.reack), so only re-sends met with silence add up to a
		// break.
		if sm := r.peer.sm; sm != nil {
			sm.recvRTOFires.Inc()
		}
		if r.lane.retry(r.opts.MaxRetries) {
			// We cannot get replies through; break the stream from the
			// receiving side. Further calls will be discarded.
			breakNote = r.breakLocked(exception.Unavailable("cannot communicate"))
		} else {
			if sm := r.peer.sm; sm != nil && r.lane.unsent > 0 { // the re-send carries the unsent suffix too
				sm.stageReplyWait.ObserveDuration(now.Sub(r.lane.opened))
			}
			msg = r.replyBatchLocked(r.lane.resend(now, 0), now, whyRetransmit)
		}
	}
	if breakNote == nil {
		next = now // owed progress or receipt
		if !r.noteOwedLocked() {
			next = earliest(r.lane.nextDue(r.opts.MaxBatchDelay, r.rtoLocked()), r.gap.due(window))
		}
	}
	r.mu.Unlock()
	if msg != nil {
		r.peer.transmit(r.key.senderNode, msg)
	}
	if breakNote != nil {
		r.peer.transmit(r.key.senderNode, breakNote)
	}
	return next
}

// noteOwedLocked reports whether fire owes the sender a reply batch that
// carries no reply: progress, so sends resolve at the sender, or receipt
// of requests accepted since we last said so while no reply is about to
// say it (their handlers are still running). Receipt stops the sender's
// retransmissions, and tells it our boot epoch — should we crash and
// recover before the first reply, it can tell the newcomer's answers from
// ours and break the stream, instead of adopting the newcomer and having
// the unacknowledged calls executed a second time. Caller holds r.mu.
func (r *rstream) noteOwedLocked() bool {
	return r.completedThroughNow() > r.sentCompleted ||
		r.lane.unsent == 0 && r.expected-1 > r.sentAcked
}

// rtoLocked returns the reply lane's retransmission timeout, bounded as
// the request lane's is (Stream.rtoLocked). Caller holds r.mu.
func (r *rstream) rtoLocked() time.Duration { return r.lane.rto(r.peer.rtoFloor, r.opts.RTO) }

func (r *rstream) close() {
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
}
