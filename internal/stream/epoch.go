package stream

import (
	"context"
	"sync"
	"time"

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
// epoch scheduler: the outcome to splice forward, the stages that remain,
// and the promise reference the chain ultimately resolves.
type pipeWork struct {
	ref     pipeRef
	stages  []PipeStage
	outcome Outcome
	cause   trace.Cause // causal context for the next stage (child of this one)
}

// pipeWatch tracks one issued mid-chain forward. The downstream pending
// resolves normally once the next guardian accepts the hop (completion
// covers it) — or exceptionally if the forwarding stream breaks, in which
// case the exception is the chain's resolution and must reach the caller.
type pipeWatch struct {
	p   Pending
	ref pipeRef
}

// fwdKey identifies one in-flight resolution forward: the promise
// reference plus the destination node it was addressed to.
type fwdKey struct {
	ref  pipeRef
	dest string
}

type fwdEntry struct {
	msg   []byte
	due   time.Time
	tries int
}

// pipeScheduler admits continuation work in waves, felis EpochClient
// style: the per-peer loop sleeps until work arrives, drains a wave from
// the queue, issues every forward in it, then flushes each downstream
// stream exactly once — so a wave of N chain completions headed for the
// same guardian costs one batch, not N. It also owns resolution-forward
// reliability (retransmit until acked) and the watch list that turns a
// broken forwarding stream into the chain's exceptional resolution.
type pipeScheduler struct {
	p     *Peer
	queue chan pipeWork

	mu      sync.Mutex
	watches []pipeWatch
	fwd     map[fwdKey]*fwdEntry

	// Reusable wave state; the loop goroutine owns both.
	wave    []pipeWork
	touched map[*Stream]struct{}
}

func newPipeScheduler(p *Peer) *pipeScheduler {
	return &pipeScheduler{
		p:       p,
		queue:   make(chan pipeWork, pipeQueueCap),
		fwd:     make(map[fwdKey]*fwdEntry),
		touched: make(map[*Stream]struct{}),
	}
}

// submit queues one completed stage for the next wave. Blocks only when
// the queue is full (backpressure) or returns once the peer shuts down.
func (ps *pipeScheduler) submit(w pipeWork) {
	select {
	case ps.queue <- w:
	case <-ps.p.ctx.Done():
	}
}

func (ps *pipeScheduler) loop() {
	defer ps.p.wg.Done()
	for {
		var w pipeWork
		select {
		case <-ps.p.ctx.Done():
			return
		case w = <-ps.queue:
		}
		wave := append(ps.wave[:0], w)
	drain:
		for len(wave) < pipeWaveMax {
			select {
			case w2 := <-ps.queue:
				wave = append(wave, w2)
			default:
				break drain
			}
		}
		ps.admit(wave)
		for i := range wave {
			wave[i] = pipeWork{} // release payload references
		}
		ps.wave = wave
	}
}

// admit runs one wave: process every item, then flush each stream the
// wave touched exactly once, then sweep the watch list.
func (ps *pipeScheduler) admit(wave []pipeWork) {
	for _, w := range wave {
		ps.processOne(w)
	}
	for s := range ps.touched {
		s.Flush()
		delete(ps.touched, s)
	}
	ps.sweepWatches()
	if sm := ps.p.sm; sm != nil {
		sm.epochs.Inc()
		sm.epochWave.Observe(uint64(len(wave)))
	}
}

// processOne advances one chain by a stage: an exceptional outcome or an
// exhausted stage list is the chain's resolution and is forwarded to the
// promise reference; otherwise the outcome is spliced into the next
// stage's arguments and sent to its guardian on a ~pipe stream.
func (ps *pipeScheduler) processOne(w pipeWork) {
	if !w.outcome.Normal || len(w.stages) == 0 {
		ps.forwardResolution(w.ref, w.outcome)
		return
	}
	st := w.stages[0]
	args, err := wire.SpliceArgs(w.outcome.Payload, st.Extra)
	if err != nil {
		ps.forwardResolution(w.ref,
			ExceptionOutcome(exception.Failure("bad pipeline arguments")))
		return
	}
	s := ps.p.Agent(pipeAgentName).Stream(st.Node, st.Group)
	pend, err := s.enqueue(context.Background(), Req{Mode: ModeSend, Port: st.Port,
		Args: plain(args), Cause: w.cause, Stages: w.stages[1:]}, &w.ref)
	if err != nil {
		// The forwarding stream is broken: that IS the chain's resolution.
		o := ExceptionOutcome(exception.Unavailable("pipeline stage unreachable"))
		if ex, ok := err.(*exception.Exception); ok {
			o = ExceptionOutcome(ex)
		}
		ps.forwardResolution(w.ref, o)
		return
	}
	ps.mu.Lock()
	ps.watches = append(ps.watches, pipeWatch{p: pend, ref: w.ref})
	ps.mu.Unlock()
	ps.touched[s] = struct{}{}
	if sm := ps.p.sm; sm != nil {
		sm.pipeStages.Inc()
	}
	if ps.p.tracing() {
		ps.p.emitCause(trace.ContForwarded, s.keyStr, pend.Seq, 0, w.cause,
			st.Node+"/"+st.Group+":"+st.Port)
	}
}

// forwardResolution delivers a chain's final outcome to the promise's
// subscribers. The origin guardian gets it first — retained there, the
// outcome rides normal reply batches with full stream reliability. The
// caller additionally gets a direct copy when it lives on a third node,
// skipping the extra hop. Local subscribers are integrated in-process.
func (ps *pipeScheduler) forwardResolution(ref pipeRef, o Outcome) {
	m := resolveMsg{
		Agent:       ref.agent,
		Group:       ref.group,
		Incarnation: ref.incarnation,
		SenderNode:  ref.senderNode,
		RecvNode:    ref.recvNode,
		Seq:         ref.seq,
		Outcome:     o,
	}
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
		// We are the origin guardian (a chain that ended where it began):
		// retain the outcome as the call's reply directly.
		ps.p.integrateResolve(&m)
		return
	}
	var msg []byte
	now := ps.p.clk.Now()
	send := func(dest string) {
		if dest == ps.p.name {
			ps.p.integrateResolve(&m)
			return
		}
		if msg == nil {
			msg = encodeResolve(m, false)
		}
		ps.mu.Lock()
		ps.fwd[fwdKey{ref: ref, dest: dest}] = &fwdEntry{
			msg: msg, due: now.Add(ps.p.opts.RTO),
		}
		ps.mu.Unlock()
		ps.p.transmit(dest, msg)
	}
	send(ref.recvNode)
	if ref.senderNode != ref.recvNode {
		send(ref.senderNode)
	}
}

// ack stops retransmission of one resolution forward.
func (ps *pipeScheduler) ack(ref pipeRef, dest string) {
	ps.mu.Lock()
	delete(ps.fwd, fwdKey{ref: ref, dest: dest})
	ps.mu.Unlock()
}

// sweepWatches reaps issued forwards whose pendings have resolved: a
// normal resolution means the next guardian accepted the hop and the
// chain continues there; an exceptional one (the forwarding stream broke,
// or the hop's handler failed before it could take over the chain) is the
// chain's resolution and propagates to the caller.
func (ps *pipeScheduler) sweepWatches() {
	type failure struct {
		ref pipeRef
		o   Outcome
	}
	var failed []failure
	ps.mu.Lock()
	kept := ps.watches[:0]
	for _, w := range ps.watches {
		if !w.p.Ready() {
			kept = append(kept, w)
			continue
		}
		o := w.p.Get()
		w.p.Release()
		if !o.Normal {
			failed = append(failed, failure{ref: w.ref, o: o})
		}
	}
	ps.watches = kept
	ps.mu.Unlock()
	for _, f := range failed {
		ps.forwardResolution(f.ref, f.o)
	}
}

// tickSweep is driven by the peer tick loop: it retransmits unacked
// resolution forwards (dropping them after MaxRetries — the origin
// guardian's stall deadline then converts silence into an unavailable
// reply) and sweeps the watch list so exceptions propagate even when no
// new wave is admitted.
func (ps *pipeScheduler) tickSweep(now time.Time) {
	type resend struct {
		dest string
		msg  []byte
	}
	var out []resend
	ps.mu.Lock()
	for k, e := range ps.fwd {
		if now.Before(e.due) {
			continue
		}
		e.tries++
		if e.tries > ps.p.opts.MaxRetries {
			delete(ps.fwd, k)
			continue
		}
		e.due = now.Add(ps.p.opts.RTO)
		out = append(out, resend{dest: k.dest, msg: e.msg})
	}
	ps.mu.Unlock()
	for _, r := range out {
		if sm := ps.p.sm; sm != nil {
			sm.pipeForwardResends.Inc()
		}
		ps.p.transmit(r.dest, r.msg)
	}
	ps.sweepWatches()
}
