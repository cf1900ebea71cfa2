package stream

import (
	"context"
	"sync/atomic"

	"promises/internal/exception"
	"promises/internal/trace"
	"promises/internal/wire"
)

const (
	// pipeQueueCap is the continuation-work queue depth per peer;
	// executors block once it fills, which backpressures the stream's
	// admission machinery instead of growing without bound.
	pipeQueueCap = 4096
	// pipeWaveMax bounds one admission wave: the scheduler drains up to
	// this many queued continuations, issues all their forwards, and only
	// then flushes the touched streams — one batch per downstream guardian
	// per wave, however many chains progressed.
	pipeWaveMax = 512
)

// pipeWork is one completed stage of a continuation chain, queued for the
// epoch scheduler: the outcome to splice forward and the continuation it
// rode with, parsed as far as the next stage.
type pipeWork struct {
	cont    pipeCont
	outcome Outcome
	cause   trace.Cause // causal context for the next stage (child of this one)
}

// pipeWatch tracks one send the scheduler issued on a ~pipe stream. The
// pending resolves normally once the next guardian has run it, or
// exceptionally if the stream breaks. For a mid-chain forward, cont is
// the continuation it carries, and an exception is the chain's
// resolution. For a resolution send cont is nil: if it is lost, the
// origin's stall deadline answers the caller.
type pipeWatch struct {
	p    Pending
	cont []byte
}

// pipeScheduler admits continuation work in waves, felis EpochClient
// style: the per-peer loop sleeps until work arrives, drains a wave from
// the queue, issues every send in it, then flushes each downstream
// stream exactly once — so a wave of N chain completions headed for the
// same guardian costs one batch, not N. It also keeps the watch list that
// turns a broken forwarding stream into the chain's exceptional
// resolution. Everything but the queue and the nudge belongs to the loop
// goroutine.
type pipeScheduler struct {
	p     *Peer
	queue chan pipeWork
	// nudge wakes the loop to sweep its watches between waves; watching
	// says whether there are any to sweep.
	nudge    chan struct{}
	watching atomic.Bool

	watches []pipeWatch
	wave    []pipeWork
	touched map[*Stream]struct{}
	lanes   replyLanes // origin reply lanes resolved locally this wave
	arena   waveArena  // the continuation blobs and resolution arguments the loop builds
}

// waveChunk is the size of one waveArena chunk: a few dozen continuation
// blobs of a typical chain.
const waveChunk = 4 << 10

// waveArena is where the scheduler loop builds the bytes it sends per
// chain — advance's and resolution's cut continuation blobs, and
// encodeOutcome's resolution arguments — so that a wave costs an
// allocation per chunk rather than one per blob. It belongs to the loop
// goroutine, the only caller of those three.
//
// The lifetime rule: bytes once handed out are never written again. A
// blob outlives the wave that cut it — it rides in its ~pipe stream's
// unacked requests, which other goroutines re-encode on retransmission,
// and in the watch list until the send resolves — so the arena only
// appends: each take is carved after the last, and when the current chunk
// cannot hold the next buffer a fresh chunk replaces it. The garbage
// collector reclaims a chunk once the last blob in it is acked and swept.
type waveArena struct{ chunk []byte }

// take returns an empty buffer with room for exactly n bytes. Its capacity
// ends where its room does, so an append past n moves to a buffer of its
// own instead of writing into the next take's bytes. A buffer larger than a
// chunk is allocated on its own.
func (a *waveArena) take(n int) []byte {
	if n > waveChunk {
		return make([]byte, 0, n)
	}
	if cap(a.chunk)-len(a.chunk) < n {
		a.chunk = make([]byte, 0, waveChunk)
	}
	at := len(a.chunk)
	a.chunk = a.chunk[:at+n]
	return a.chunk[at : at : at+n]
}

func newPipeScheduler(p *Peer) *pipeScheduler {
	return &pipeScheduler{
		p:       p,
		queue:   make(chan pipeWork, pipeQueueCap),
		nudge:   make(chan struct{}, 1),
		touched: make(map[*Stream]struct{}),
	}
}

// submit queues one completed stage for the next wave. Blocks only when
// the queue is full (backpressure) or returns once the peer shuts down.
// A queue with room takes the work without the select.
func (ps *pipeScheduler) submit(w pipeWork) {
	select {
	case ps.queue <- w:
		return
	default:
	}
	select {
	case ps.queue <- w:
	case <-ps.p.ctx.Done():
	}
}

// tick is driven by the peer tick loop: it has the loop sweep the watch
// list, so exceptions propagate even when no new wave is admitted.
func (ps *pipeScheduler) tick() {
	if ps.watching.Load() {
		select {
		case ps.nudge <- struct{}{}:
		default:
		}
	}
}

func (ps *pipeScheduler) loop() {
	defer ps.p.wg.Done()
	for {
		wave := ps.wave[:0]
		select {
		case <-ps.p.ctx.Done():
			return
		case w := <-ps.queue:
			wave = append(wave, w)
		case <-ps.nudge:
		}
	drain:
		for len(wave) < pipeWaveMax {
			select {
			case w := <-ps.queue:
				wave = append(wave, w)
			default:
				break drain
			}
		}
		ps.admit(wave)
		clear(wave) // release payload references
		ps.wave = wave
	}
}

// admit runs one wave: process every item, sweep the watch list, then
// flush each stream and reply lane the wave touched exactly once.
func (ps *pipeScheduler) admit(wave []pipeWork) {
	for i := range wave {
		ps.processOne(&wave[i])
	}
	ps.sweepWatches()
	for s := range ps.touched {
		s.Flush()
		delete(ps.touched, s)
	}
	ps.lanes.flush()
	ps.watching.Store(len(ps.watches) > 0)
	if sm := ps.p.sm; sm != nil && len(wave) > 0 {
		sm.epochs.Inc()
		sm.epochWave.Observe(uint64(len(wave)))
	}
}

// processOne advances one chain by a stage: an exceptional outcome or an
// exhausted stage list is the chain's resolution and goes to the promise
// reference; otherwise the outcome is spliced into the next stage's
// arguments and sent to its guardian on a ~pipe stream.
func (ps *pipeScheduler) processOne(w *pipeWork) {
	c := &w.cont
	if !w.outcome.Normal || c.n == 0 {
		ps.forwardResolution(c, w.outcome, w.cause)
		return
	}
	st := c.next
	// With no extra arguments the forward's Args are the outcome's payload
	// itself, not a copy: a pipelined call retains nothing at its receiver,
	// and nothing on the send path writes into a request's Args.
	args, err := wire.SpliceArgs(w.outcome.Payload, st.Extra)
	if err != nil {
		ps.forwardResolution(c, ExceptionOutcome(exception.Failure("bad pipeline arguments")), w.cause)
		return
	}
	s := ps.p.Agent(pipeAgentName).Stream(st.Node, st.Group)
	cont := c.advance(&ps.arena)
	pend, err := s.enqueue(context.Background(), Req{Mode: ModeSend, Port: st.Port,
		Args: plain(args), Cause: w.cause}, cont)
	if err != nil {
		// The forwarding stream is broken: that IS the chain's resolution.
		o := ExceptionOutcome(exception.Unavailable("pipeline stage unreachable"))
		if ex, ok := err.(*exception.Exception); ok {
			o = ExceptionOutcome(ex)
		}
		ps.forwardResolution(c, o, w.cause)
		return
	}
	ps.watches = append(ps.watches, pipeWatch{p: pend, cont: cont})
	ps.touched[s] = struct{}{}
	if sm := ps.p.sm; sm != nil {
		sm.pipeStages.Inc()
	}
	if ps.p.tracing() {
		ps.p.emitCause(trace.ContForwarded, s.keyStr, pend.Seq, 0, w.cause,
			st.Node+"/"+st.Group+":"+st.Port)
	}
}

// forwardResolution delivers a chain's final outcome to the origin
// guardian, which owes the caller the pipelined call's reply. It goes as
// a send to the reserved resolution port on the ~pipe stream to the
// origin, batched with the wave's other sends, carrying the outcome in
// its arguments and the promise reference in a zero-stage continuation;
// the stream retransmits it and delivers it exactly once. A chain that
// ended where it began is retained at the origin directly.
func (ps *pipeScheduler) forwardResolution(c *pipeCont, o Outcome, cause trace.Cause) {
	ref := c.ref()
	if sm := ps.p.sm; sm != nil {
		sm.pipeForwards.Inc()
	}
	if ps.p.tracing() {
		detail := "normal"
		if !o.Normal {
			detail = o.Exception
		}
		ps.p.emit(trace.ResolveForwarded, ref.key().String(), ref.seq, 0, detail)
	}
	if ref.recvNode == ps.p.name {
		ps.p.resolvePipe(ref, o, &ps.lanes)
		return
	}
	s := ps.p.Agent(pipeAgentName).Stream(ref.recvNode, ref.group)
	pend, err := s.enqueue(context.Background(), Req{Mode: ModeSend, Port: pipeResolvePort,
		Args: plain(encodeOutcome(o, &ps.arena)), Cause: cause}, c.resolution(&ps.arena))
	if err != nil {
		return // the stream is broken: the origin's stall deadline answers
	}
	ps.watches = append(ps.watches, pipeWatch{p: pend})
	ps.touched[s] = struct{}{}
}

// sweepWatches reaps issued sends whose pendings have resolved. A normal
// resolution means the next guardian ran the send: for a forward, the
// chain continues there. An exceptional one on a forward (the forwarding
// stream broke, or the hop failed before it could take over the chain) is
// the chain's resolution.
func (ps *pipeScheduler) sweepWatches() {
	type failure struct {
		cont []byte
		o    Outcome
	}
	var failed []failure
	kept := ps.watches[:0]
	for _, w := range ps.watches {
		if !w.p.Ready() {
			kept = append(kept, w)
			continue
		}
		o := w.p.Get()
		w.p.Release()
		if !o.Normal && w.cont != nil {
			failed = append(failed, failure{cont: w.cont, o: o})
		}
	}
	clear(ps.watches[len(kept):])
	ps.watches = kept
	for _, f := range failed {
		if c, err := parsePipeCont(f.cont); err == nil { // built by advance: always well formed
			ps.forwardResolution(&c, f.o, trace.Cause{})
		}
	}
}
