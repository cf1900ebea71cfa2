package stream

import (
	"context"
	"sync/atomic"
	"time"

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

// end completes a ~pipe forward with o, releasing the upstream hop's
// watch: normally once this hop handed the chain on, else so that hop
// takes over.
func (c *custody) end(o Outcome) {
	if c.r.key.custodial() {
		c.r.complete(c.inc, c.seq, ModeSend, c.cause, o, false)
	}
}

// pipeWatch tracks one send the scheduler issued on a ~pipe stream for
// the chain in custody in. Its pending resolves once the next guardian has
// handed the chain on in turn, so a watch lives until the chain ends, or
// exceptionally if the stream breaks or that guardian could not hand it
// on. cont is a forward's continuation, naming the promise it resolves.
type pipeWatch struct {
	p    Pending
	cont []byte
	in   custody
}

// pipeScheduler admits continuation work in waves, felis EpochClient
// style: the per-peer loop sleeps until work arrives, drains a wave from
// the queue, issues every send in it, then flushes each downstream
// stream exactly once — so a wave of N chain completions headed for the
// same guardian costs one batch, not N. It also keeps the watch list
// through which the chains it handed on stay in its custody. Everything
// but the queue and the nudge belongs to the loop goroutine.
type pipeScheduler struct {
	p     *Peer
	queue chan pipeWork
	// nudge wakes the loop to sweep its watches between waves; watching
	// says whether there are any to sweep, and while there are, due fires
	// the nudge on every tick (see fire).
	nudge    chan struct{}
	watching atomic.Bool
	due      due

	watches []pipeWatch
	wave    []pipeWork
	touched map[*Stream]struct{}
	lanes   replyLanes // origin reply lanes resolved locally this wave
}

func newPipeScheduler(p *Peer) *pipeScheduler {
	ps := &pipeScheduler{
		p:       p,
		queue:   make(chan pipeWork, pipeQueueCap),
		nudge:   make(chan struct{}, 1),
		touched: make(map[*Stream]struct{}),
	}
	ps.due.rank, ps.due.fire = rankSched, ps.fire
	return ps
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

// fire has the loop sweep the watch list, so exceptions propagate even
// when no new wave is admitted, and returns now — the next tick — for as
// long as there are watches to sweep.
func (ps *pipeScheduler) fire(now time.Time) time.Time {
	if !ps.watching.Load() {
		return time.Time{}
	}
	select {
	case ps.nudge <- struct{}{}:
	default:
	}
	return now
}

func (ps *pipeScheduler) loop() {
	defer ps.p.wg.Done()
	for {
		wave, all := ps.wave[:0], false
		select {
		case <-ps.p.ctx.Done():
			return
		case w := <-ps.queue:
			wave = append(wave, w)
		case <-ps.nudge:
			all = true
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
		ps.admit(wave, all)
		clear(wave) // release payload references
		ps.wave = wave
	}
}

// admit runs one wave: process every item, sweep the watch list (all of
// it on a nudge), then flush each stream and reply lane it touched once.
func (ps *pipeScheduler) admit(wave []pipeWork, all bool) {
	for i := range wave {
		ps.processOne(&wave[i])
	}
	ps.sweepWatches(all)
	for s := range ps.touched {
		s.Flush()
		delete(ps.touched, s)
	}
	ps.lanes.flush()
	if len(ps.watches) == 0 {
		ps.watching.Store(false)
	} else if !ps.watching.Swap(true) {
		now := ps.p.clk.Now()
		ps.p.arm(&ps.due, now, now)
	}
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
	cont, cause := c.advance(&ps.p.arena), w.in.child()
	pend, err := s.enqueue(context.Background(), Req{Mode: ModeSend, Port: st.Port,
		Args: plain(args), Cause: cause}, nil, cont)
	if err != nil {
		// The forwarding stream is broken: that IS the chain's resolution.
		// (With no context to end, enqueue refuses only with an exception.)
		ps.forwardResolution(c, ExceptionOutcome(err.(*exception.Exception)), w.in)
		return
	}
	ps.watches = append(ps.watches, pipeWatch{p: pend, cont: cont, in: w.in})
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
	pend, err := s.enqueue(context.Background(), Req{Mode: ModeSend, Port: pipeResolvePort,
		Args: plain(encodeOutcome(o, &ps.p.arena)), Cause: in.child()},
		nil, c.resolution(&ps.p.arena))
	if err != nil {
		in.end(ExceptionOutcome(err.(*exception.Exception)))
		return
	}
	ps.watches = append(ps.watches, pipeWatch{p: pend, in: in})
	ps.touched[s] = struct{}{}
}

// sweepWatches reaps issued sends whose pendings have resolved, and so
// moves custody upstream: a hop ends its custody with its watch's outcome.
// An exception (the stream broke, or the next hop could not hand the chain
// on) climbs to the chain's first hop, where it resolves the chain. Chains
// mostly end in the order they were handed on, so a wave's sweep stops at
// the first watch still pending; a nudge's sweeps the whole list.
func (ps *pipeScheduler) sweepWatches(all bool) {
	kept := ps.watches[:0]
	for i, w := range ps.watches {
		if !w.p.Ready() {
			if !all {
				kept = append(kept, ps.watches[i:]...)
				break
			}
			kept = append(kept, w)
			continue
		}
		o := w.p.Get()
		w.p.Release()
		if o.Normal || w.in.r.key.custodial() {
			w.in.end(o)
		} else if c, err := parsePipeCont(w.cont); err == nil { // built by advance: always well formed
			ps.forwardResolution(&c, o, w.in)
		}
	}
	clear(ps.watches[len(kept):])
	ps.watches = kept
}
