package stream

import (
	"context"
	"sync"

	"promises/internal/exception"
	"promises/internal/trace"
	"promises/internal/wire"
)

const (
	// pipeQueueCap is the continuation-work queue depth per peer;
	// runners block once it fills, which backpressures the stream's
	// admission machinery instead of growing without bound.
	pipeQueueCap = 4096
	// pipeWaveMax bounds one admission wave: the scheduler drains up to
	// this many queued continuations, issues all their forwards, and only
	// then flushes the touched streams — one batch per downstream guardian
	// per wave, however many chains progressed.
	pipeWaveMax = 512
)

// pipeWork is one completed stage of a continuation chain, queued for the
// epoch scheduler: the outcome to splice forward, the continuation it
// rode with, parsed as far as the next stage, and the call it ran as.
type pipeWork struct {
	cont    pipeCont
	outcome Outcome
	in      custody
}

// custody is the call a chain's stage ran as, on stream r. A ~pipe
// forward is left incomplete while this hop holds the chain (DESIGN.md
// §13); a first stage came on its caller's stream, never held back.
type custody struct {
	r        *rstream
	inc, seq uint64
	cause    trace.Cause // the call's causal context
}

// child is the causal context of the sends the call's chain makes next.
func (c *custody) child() trace.Cause {
	return trace.ChildOf(c.cause, trace.CallID(c.r.keyHash, c.inc, c.seq))
}

// end completes a ~pipe forward with o, ending the watch upstream:
// normally once this hop handed the chain on, else so that hop takes over.
func (c *custody) end(o Outcome) {
	if c.r.key.custodial() {
		c.r.complete(c.inc, c.seq, ModeSend, c.cause, o, false)
	}
}

// pipeWatch is the custody record of one send the scheduler issued on a
// ~pipe stream for the chain in custody in, kept by that stream under the
// send's seq. The send resolves once the next guardian has handed the
// chain on in turn, so a watch lives until the chain ends, or until the
// stream breaks or that guardian could not hand it on. cont is the
// continuation the send carries, naming the promise it resolves.
type pipeWatch struct {
	cont []byte
	in   custody
}

// endedWatch is a watch whose send resolved with outcome o.
type endedWatch struct {
	w pipeWatch
	o Outcome
}

// pipeScheduler admits continuation work in waves, felis EpochClient
// style: the per-peer loop sleeps until work arrives, drains a wave from
// the queue, issues every send in it, then flushes each downstream
// stream exactly once — so a wave of N chain completions headed for the
// same guardian costs one batch, not N. A wave also ends the custody of
// the watches streams handed back as their sends resolved. Everything but
// the queue, the nudge and the ended list belongs to the loop goroutine.
type pipeScheduler struct {
	p     *Peer
	queue chan pipeWork
	// Streams append to ended under their own locks (endMu is a leaf),
	// then nudge the loop.
	nudge chan struct{}
	endMu sync.Mutex
	ended []endedWatch

	ending  []endedWatch // the list the loop took last, reused for the next
	wave    []pipeWork
	touched map[*Stream]struct{}
	lanes   replyLanes // origin reply lanes resolved locally this wave
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

// end hands the loop watch w, whose send resolved with o. It never blocks:
// the caller holds w's stream's lock.
func (ps *pipeScheduler) end(w pipeWatch, o Outcome) {
	ps.endMu.Lock()
	ps.ended = append(ps.ended, endedWatch{w, o})
	ps.endMu.Unlock()
	select {
	case ps.nudge <- struct{}{}:
	default:
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

// admit runs one wave: process every item, end the custody of every
// watch handed back, then flush each stream and reply lane it touched once.
func (ps *pipeScheduler) admit(wave []pipeWork) {
	for i := range wave {
		ps.processOne(&wave[i])
	}
	ps.endWatches()
	for s := range ps.touched {
		s.Flush()
		delete(ps.touched, s)
	}
	ps.lanes.flush()
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
		ps.forwardResolution(c, w.outcome, w.in)
		return
	}
	st := c.next
	// With no extra arguments the forward's Args are the outcome's payload
	// itself, not a copy: a pipelined call retains nothing at its receiver,
	// and nothing on the send path writes into a request's Args.
	args, err := wire.SpliceArgs(w.outcome.Payload, st.Extra)
	if err != nil {
		ps.forwardResolution(c, ExceptionOutcome(exception.Failure("bad pipeline arguments")), w.in)
		return
	}
	s := ps.p.Agent(pipeAgentName).Stream(st.Node, st.Group)
	cause := w.in.child()
	pend, err := s.enqueue(context.Background(), Req{Mode: ModeSend, Port: st.Port,
		Args: plain(args), Cause: cause}, nil, &pipeWatch{cont: c.advance(&ps.p.arena), in: w.in})
	if err != nil {
		// The forwarding stream is broken: that IS the chain's resolution.
		// (With no context to end, enqueue refuses only with an exception.)
		ps.forwardResolution(c, ExceptionOutcome(err.(*exception.Exception)), w.in)
		return
	}
	ps.touched[s] = struct{}{}
	if sm := ps.p.sm; sm != nil {
		sm.pipeStages.Inc()
	}
	if ps.p.tracing() {
		ps.p.emitCause(trace.ContForwarded, s.keyStr, pend.Seq, 0, cause,
			st.Node+"/"+st.Group+":"+st.Port)
	}
}

// forwardResolution delivers a chain's final outcome to the origin
// guardian, which owes the caller the pipelined call's reply: a send to
// the reserved resolution port on the ~pipe stream to the origin, with
// the outcome as its arguments and the promise reference as a zero-stage
// continuation, delivered exactly once. A chain that ended where it began
// is retained at the origin directly. Custody in ends once the origin has
// the outcome, or with the failure to send it.
func (ps *pipeScheduler) forwardResolution(c *pipeCont, o Outcome, in custody) {
	ref := c.ref()
	if sm := ps.p.sm; sm != nil {
		sm.pipeForwards.Inc()
	}
	if ps.p.tracing() {
		detail := "normal"
		if !o.Normal {
			detail = o.Exception
		}
		ps.p.emit(trace.ResolveForwarded, ref.streamKey.String(), ref.seq, 0, detail)
	}
	if ref.recvNode == ps.p.name {
		ps.p.resolvePipe(ref, o, &ps.lanes)
		in.end(NormalOutcome(nil))
		return
	}
	s := ps.p.Agent(pipeAgentName).Stream(ref.recvNode, ref.group)
	_, err := s.enqueue(context.Background(), Req{Mode: ModeSend, Port: pipeResolvePort,
		Args: plain(encodeOutcome(o, &ps.p.arena)), Cause: in.child()},
		nil, &pipeWatch{cont: c.resolution(&ps.p.arena), in: in})
	if err != nil {
		in.end(ExceptionOutcome(err.(*exception.Exception)))
		return
	}
	ps.touched[s] = struct{}{}
}

// endWatches moves custody upstream: a hop ends its custody with its ended
// watch's outcome. An exception (the stream broke, or the next hop could
// not hand the chain on) climbs to the chain's first hop, where it
// resolves the chain; a resolution's watch never climbs, as the first hop
// retains its chain's outcome itself (forwardResolution).
func (ps *pipeScheduler) endWatches() {
	ps.endMu.Lock()
	ps.ended, ps.ending = ps.ending[:0], ps.ended
	ps.endMu.Unlock()
	for _, e := range ps.ending {
		if e.o.Normal || e.w.in.r.key.custodial() {
			e.w.in.end(e.o)
		} else if c, err := parsePipeCont(e.w.cont); err == nil { // built by advance: always well formed
			ps.forwardResolution(&c, e.o, e.w.in)
		}
	}
	clear(ps.ending)
}
