package stream

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"promises/internal/simnet"
)

// refLane is the reference a lane is checked against: each direction's
// batching, retention and recovery written out on its own, as Stream and
// rstream kept them before they shared a type, over plain slices of
// seqs. A request lane times what it sent from its last send of anything,
// and re-sends the head of it; a reply lane times everything it holds
// from the latest of its last full send, its ack's last advance, its last
// mend and the take that first sent a reply the other side can ack, and
// waits the ceiling while it has sent none. A hole is re-sent once per
// value of the ack. The round-trip estimate is RFC 6298's, in floating
// point.
type refLane struct {
	goBackN      bool
	sent, unsent []uint64
	opened       time.Time // first unsent item's push
	lastSend     time.Time // any transmission (requests)
	lastFull     time.Time // transmission of everything held (replies)
	lastAck      time.Time // ack advance (replies)
	lastStart    time.Time // first send of a reply the other side can ack (replies)
	lastMend     time.Time // a hole's re-send (replies)
	acked        uint64
	ackable      uint64 // the highest seq the other side can ack, as of the last take
	retries      int

	timing       bool // a batch is timed: its highest seq and when it went
	timedSeq     uint64
	timedAt      time.Time
	sampled      bool
	srtt, rttvar float64 // ns
	minRTT       time.Duration
	backoff      int

	holeResent bool   // the hole above holeAck was re-sent
	holeAck    uint64 //
	recovering bool   // after a go-back-N timeout, until an ack reaches recoverTo
	recoverTo  uint64
}

// refHead is how many requests a reference go-back-N re-send carries.
const refHead = 4

func (r *refLane) held() []uint64 { return append(slices.Clone(r.sent), r.unsent...) }

// waits reports whether a sent seq is one the other side can ack.
func (r *refLane) waits() bool {
	return slices.ContainsFunc(r.sent, func(q uint64) bool { return q <= r.ackable })
}

func (r *refLane) push(seq uint64, now time.Time) {
	if len(r.unsent) == 0 {
		r.opened = now
	}
	r.unsent = append(r.unsent, seq)
}

func (r *refLane) take(now time.Time, ackable uint64) []uint64 {
	batch, waited := r.unsent, r.waits()
	if len(r.sent) == 0 {
		r.lastFull = now
	}
	r.lastSend = now
	r.sent, r.unsent = append(r.sent, batch...), nil
	r.ackable = max(r.ackable, ackable)
	if !waited && r.waits() {
		r.lastStart = now
	}
	if top := slices.Max(batch); !r.timing && top <= ackable {
		r.timing, r.timedSeq, r.timedAt = true, top, now
	}
	return batch
}

func (r *refLane) resend(now time.Time) []uint64 {
	r.backoff++ // each firing doubles the timeout
	r.lastSend = now
	r.timing = false // Karn: a re-sent batch gives no sample
	r.holeResent, r.holeAck = true, r.acked
	if r.goBackN {
		if len(r.sent) > 0 {
			r.recovering, r.recoverTo = true, r.sent[len(r.sent)-1]
		}
		return slices.Clone(r.sent[:min(refHead, len(r.sent))])
	}
	r.lastFull = now
	r.sent, r.unsent = r.held(), nil
	return slices.Clone(r.sent)
}

// mend re-sends the hole above the ack, below seq below: the head of the
// sent requests, or the run of sent replies from the ack plus one.
func (r *refLane) mend(now time.Time, below uint64) []uint64 {
	if r.holeResent && r.holeAck == r.acked {
		return nil
	}
	from := 0
	if !r.goBackN {
		if from = slices.Index(r.sent, r.acked+1); from < 0 {
			return nil
		}
	}
	var run []uint64
	for _, q := range r.sent[from:] {
		if q >= below || len(run) == refHead {
			break
		}
		run = append(run, q)
	}
	if len(run) == 0 {
		return nil
	}
	r.lastSend, r.lastMend = now, now
	r.timing = false
	r.holeResent, r.holeAck = true, r.acked
	return run
}

func (r *refLane) ack(through uint64, now time.Time) {
	if through <= r.acked {
		return
	}
	r.acked, r.lastAck = through, now
	if r.timing && through >= r.timedSeq {
		d := max(now.Sub(r.timedAt), time.Nanosecond)
		m := float64(d)
		if r.sampled {
			r.rttvar = 0.75*r.rttvar + 0.25*math.Abs(r.srtt-m)
			r.srtt = 0.875*r.srtt + 0.125*m
			r.minRTT = min(r.minRTT, d)
		} else {
			r.srtt, r.rttvar, r.minRTT, r.sampled = m, m/2, d, true
		}
		r.timing, r.backoff = false, 0
	}
	if r.recovering && through >= r.recoverTo {
		r.recovering = false
	}
	above := func(s []uint64) []uint64 {
		var kept []uint64
		for _, q := range s {
			if q > through {
				kept = append(kept, q)
			}
		}
		return kept
	}
	r.sent, r.unsent = above(r.sent), above(r.unsent)
}

func (r *refLane) flushAt(delay time.Duration) time.Time {
	if len(r.unsent) == 0 {
		return time.Time{}
	}
	return r.opened.Add(delay)
}

func (r *refLane) resendAt(rto time.Duration) time.Time {
	switch {
	case len(r.sent) == 0:
		return time.Time{}
	case r.goBackN:
		return r.lastSend.Add(rto)
	}
	stall := r.lastAck
	for _, t := range []time.Time{r.lastFull, r.lastStart, r.lastMend} {
		if t.After(stall) {
			stall = t
		}
	}
	return stall.Add(rto)
}

func (r *refLane) rto(floor, ceil time.Duration) time.Duration {
	d := float64(ceil)
	if r.sampled && (len(r.sent) == 0 || r.waits()) {
		d = math.Min(math.Max(r.srtt+4*r.rttvar, float64(floor)), float64(ceil))
	}
	return time.Duration(math.Min(d*math.Pow(2, float64(r.backoff)), float64(ceil)))
}

func (r *refLane) window() time.Duration {
	if !r.sampled {
		return noWindow
	}
	return r.minRTT / 4
}

func seqsOf[T any, P seqItem[T]](items []T) []uint64 {
	seqs := make([]uint64, len(items))
	for i := range items {
		seqs[i] = P(&items[i]).seq()
	}
	return seqs
}

// laneBytes reads a model program; past its end it reads zeros.
type laneBytes struct {
	prog []byte
	i    int
}

func (b *laneBytes) more() bool { return b.i < len(b.prog) }

func (b *laneBytes) next() byte {
	if b.i >= len(b.prog) {
		return 0
	}
	b.i++
	return b.prog[b.i-1]
}

// runLaneModel drives a lane and a refLane with the same steps, read from
// prog: pushes (a reply lane's seqs have gaps, and now and then two come
// in swapped, as parallel calls complete), flushes, the passing of time,
// deadlines served as the stream layer serves them, lossy delivery, the
// other side's acks (fresh and stale), its reports of the hole below what
// it holds, the partial acks that follow a go-back-N timeout, and resets.
// After every step it compares what the two hold, sent and unsent, what
// they transmit, their deadlines, reorder windows and recovery state, and
// when they hit the retry limit, and it checks that the lane's backing
// array keeps nothing past its length.
func runLaneModel[T any, P seqItem[T]](t testing.TB, goBackN bool, prog []byte, mk func(seq uint64) T) {
	const (
		delay = 3 * time.Millisecond
		floor = 2 * time.Millisecond
		ceil  = 10 * time.Millisecond
		limit = 3
	)
	prog = prog[:min(len(prog), 1024)] // each step costs up to the window held
	var (
		l         = lane[T, P]{goBackN: goBackN}
		ref       = refLane{goBackN: goBackN}
		now       = time.Unix(1000, 0)
		nextSeq   = uint64(1)
		pushed    []uint64 // the seqs pushed and not yet acked, ascending
		delivered = map[uint64]bool{}
		in        = &laneBytes{prog: prog}
		// The other side's report of the hole below what it holds (a gap),
		// and its reference: when a hole above each ack was first seen,
		// and whether it was reported.
		g         gap
		holeSince = map[uint64]time.Time{}
		told      = map[uint64]bool{}
	)
	const window = time.Millisecond // the other side's reorder window
	restart := func() {
		l.reset()
		ref = refLane{goBackN: goBackN}
		nextSeq, pushed = 1, nil
		clear(delivered)
		g = gap{}
		clear(holeSince)
		clear(told)
	}
	transmit := func(step string, got []T, want []uint64) {
		t.Helper()
		if g := seqsOf[T, P](got); !slices.Equal(g, want) {
			t.Fatalf("step %d %s: lane sent %v, reference %v", in.i, step, g, want)
		}
		if len(want) == 0 {
			return
		}
		loss := in.next()
		for i, q := range want {
			if (int(loss)+7*i)%4 != 0 { // loses about one in four
				delivered[q] = true
			}
		}
	}
	// held returns the other side's cumulative ack of what it got in
	// order, and the highest seq it got.
	held := func() (through, top uint64) {
		through, inOrder := ref.acked, true
		for _, q := range pushed {
			if !delivered[q] {
				inOrder = false
				continue
			}
			if inOrder {
				through = q
			}
			top = q
		}
		return through, max(through, top)
	}
	// ack applies the other side's ack to both lanes.
	ack := func(through uint64) {
		t.Helper()
		if advanced := l.ack(through, now); advanced != (through > ref.acked) {
			t.Fatalf("step %d: ack %d advanced=%v over %d", in.i, through, advanced, ref.acked)
		}
		ref.ack(through, now)
		pushed = slices.DeleteFunc(pushed, func(q uint64) bool { return q <= through })
		l.retries, ref.retries = 0, 0
	}
	for in.more() {
		op := in.next()
		switch op % 8 {
		case 0, 1: // push; a reply lane may skip seqs or push two swapped
			seqs := []uint64{nextSeq}
			if !goBackN {
				seqs[0] += uint64(op>>3) % 3
				if op>>5 == 7 {
					seqs = []uint64{seqs[0] + 1, seqs[0]}
				}
			}
			for _, q := range seqs {
				var at time.Time
				if l.unsent == 0 {
					at = now
				}
				if opened := l.push(mk(q), at); opened != (len(ref.unsent) == 0) {
					t.Fatalf("step %d: push reported opened=%v with %d unsent", in.i, opened, len(ref.unsent))
				}
				ref.push(q, now)
				pushed = append(pushed, q)
				nextSeq = max(nextSeq, q+1)
			}
			slices.Sort(pushed)
		case 2: // a flush the owner asks for: batch full, an RPC, Flush
			// A reply batch may hold a seq the other side cannot ack yet.
			ackable := uint64(math.MaxUint64)
			if !goBackN {
				ackable = nextSeq - 1 - uint64(op>>3)%2
			}
			if l.unsent > 0 {
				transmit("take", l.take(now, ackable), ref.take(now, ackable))
			}
		case 3: // time passes
			now = now.Add(time.Duration(op>>3) * time.Millisecond / 2)
		case 4: // the owner's deadline duty: an age flush, else a retransmission
			switch flush, resend := ref.flushAt(delay), ref.resendAt(l.rto(floor, ceil)); {
			case !flush.IsZero() && !flush.After(now):
				transmit("aged take", l.take(now, math.MaxUint64), ref.take(now, math.MaxUint64))
			case !resend.IsZero() && !resend.After(now):
				// Both directions count every retransmission; the owner
				// resets the count whenever the other side speaks (5, 6).
				broke := l.retry(limit)
				ref.retries++
				if want := ref.retries > limit; broke != want {
					t.Fatalf("step %d: lane broke=%v at %d retries, reference %v", in.i, broke, l.retries, want)
				}
				if broke { // the stream breaks and is reincarnated
					restart()
					continue
				}
				transmit("resend", l.resend(now, refHead), ref.resend(now))
			}
		case 5: // the other side's cumulative ack of what it got in order
			through, _ := held()
			advanced := through > ref.acked
			ack(through)
			// An ack that stops short after a go-back-N timeout re-sends
			// the next head at once (the owner's partial-ack rule).
			if advanced && ref.recovering {
				transmit("partial ack", l.mend(now, refHead, l.recover+1), ref.mend(now, ref.recoverTo+1))
			}
		case 6: // a stale or duplicate ack: the other side spoke all the same
			if l.ack(ref.acked-min(ref.acked, uint64(op>>3)), now) {
				t.Fatalf("step %d: a stale ack advanced the lane", in.i)
			}
			l.retries, ref.retries = 0, 0
		case 7:
			if op>>3 == 31 { // a break the owner saw elsewhere
				restart()
				break
			}
			// The other side sends its ack, and reports how far past it it
			// holds once the hole has stood its reorder window, once per
			// hole: re-send the hole, once per hole.
			through, top := held()
			g.hold(top)
			g.note(through, true, now)
			var want uint64
			if top > through {
				if _, ok := holeSince[through]; !ok {
					holeSince[through] = now
				}
				if now.Sub(holeSince[through]) >= window && !told[through] {
					want, told[through] = top-through, true
				}
			}
			if got := g.report(window, now); got != want {
				t.Fatalf("step %d: the other side reported %d past ack %d, reference %d", in.i, got, through, want)
			}
			ack(through)
			if want != 0 {
				transmit("mend", l.mend(now, refHead, through+want), ref.mend(now, through+want))
			}
		}
		if got, want := seqsOf[T, P](l.items), ref.held(); !slices.Equal(got, want) {
			t.Fatalf("step %d: lane holds %v, reference %v", in.i, got, want)
		}
		if l.unsent != len(ref.unsent) || l.retries != ref.retries || l.acked != ref.acked {
			t.Fatalf("step %d: lane unsent/retries/acked %d/%d/%d, reference %d/%d/%d", in.i,
				l.unsent, l.retries, l.acked, len(ref.unsent), ref.retries, ref.acked)
		}
		if recovering := l.recover != 0; recovering != ref.recovering || recovering && l.recover != ref.recoverTo {
			t.Fatalf("step %d: lane recovers to %d, reference %v to %d", in.i, l.recover, ref.recovering, ref.recoverTo)
		}
		if w := l.window(); w != ref.window() {
			t.Fatalf("step %d: lane reorder window %v, reference %v", in.i, w, ref.window())
		}
		// Integer smoothing truncates where the reference rounds: a few
		// nanoseconds a sample, which the smoothing itself keeps bounded.
		rto := l.rto(floor, ceil)
		if d := rto - ref.rto(floor, ceil); d.Abs() > 100*time.Nanosecond {
			t.Fatalf("step %d: lane rto %v, reference %v", in.i, rto, ref.rto(floor, ceil))
		}
		if rto < min(floor, ceil) || rto > ceil {
			t.Fatalf("step %d: lane rto %v outside [%v, %v]", in.i, rto, floor, ceil)
		}
		for _, c := range []struct {
			name      string
			got, want time.Time
		}{
			{"flushAt", l.flushAt(delay), ref.flushAt(delay)},
			{"resendAt", l.resendAt(rto), ref.resendAt(rto)},
			{"nextDue", l.nextDue(delay, rto), earliest(ref.flushAt(delay), ref.resendAt(rto))},
		} {
			if !c.got.Equal(c.want) {
				t.Fatalf("step %d: lane %s %v, reference %v", in.i, c.name, c.got, c.want)
			}
		}
		for i, spare := len(l.items), l.items[:cap(l.items)]; i < len(spare); i++ {
			if !reflect.ValueOf(&spare[i]).Elem().IsZero() {
				t.Fatalf("step %d: slot %d past the lane's length %d still holds seq %d", in.i, i, len(l.items), P(&spare[i]).seq())
			}
		}
	}
}

func laneRequest(seq uint64) request {
	return request{Seq: seq, Port: "p", Args: []byte(fmt.Sprint(seq))}
}

func laneReply(seq uint64) reply {
	return reply{Seq: seq, Outcome: NormalOutcome([]byte(fmt.Sprint(seq)))}
}

// TestLaneModel: on random programs, both policies' lanes do step for
// step what the reference does.
func TestLaneModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	prog := make([]byte, 600)
	for run := 0; run < 300; run++ {
		rng.Read(prog)
		runLaneModel(t, true, prog, laneRequest)
		runLaneModel(t, false, prog, laneReply)
	}
}

// FuzzLaneModel is TestLaneModel's driver on fuzzed programs.
func FuzzLaneModel(f *testing.F) {
	// Two calls, one of them lost and re-sent; then a third lost until the
	// request lane breaks. A byte after each transmission picks its losses,
	// and 163 is 10 ms of time passing.
	f.Add(true, []byte{0, 0, 2, 1, 163, 4, 0, 5, 0, 2, 0, 163, 4, 0, 163, 4, 0, 163, 4, 0, 163, 4, 0, 6})
	// Two replies, the second lost until the reply lane breaks; then two
	// replies pushed swapped.
	f.Add(false, []byte{0, 0, 2, 1, 5, 163, 4, 0, 163, 4, 0, 163, 4, 0, 163, 4, 232, 2, 0, 6})
	f.Fuzz(func(t *testing.T, goBackN bool, prog []byte) {
		if goBackN {
			runLaneModel(t, true, prog, laneRequest)
		} else {
			runLaneModel(t, false, prog, laneReply)
		}
	})
}

// TestAckedItemsAreNotKeptReachable: once the other side acks a batch,
// neither lane's backing array still points at the acked calls'
// arguments or results, so a burst followed by quiet pins nothing.
func TestAckedItemsAreNotKeptReachable(t *testing.T) {
	f := newFixture(t, simnet.Config{}, fastOpts())
	f.handle("echo", echoHandler)
	s := f.client.Agent("a").Stream("server", "g")
	var ps []Pending
	for i := 0; i < 6; i++ {
		p, err := s.Call("echo", make([]byte, 1024))
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
	}
	s.Flush()
	for _, p := range ps {
		claim(t, p)
	}
	f.server.mu.Lock()
	r := f.server.recvs[s.key]
	f.server.mu.Unlock()
	waitFor(t, "the lanes were never acked empty", func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		r.mu.Lock()
		defer r.mu.Unlock()
		return len(s.lane.items) == 0 && len(r.lane.items) == 0
	})
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, req := range s.lane.items[:cap(s.lane.items)] {
		if req.Args != nil {
			t.Errorf("request slot %d still holds call %d's arguments", i, req.Seq)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, rep := range r.lane.items[:cap(r.lane.items)] {
		if rep.Outcome.Payload != nil {
			t.Errorf("reply slot %d still holds call %d's results", i, rep.Seq)
		}
	}
}

// TestLaneKarnRule: a batch re-sent before its ack gives no sample, so the
// timeout stays at its first estimate; the next batch, sent once, does.
func TestLaneKarnRule(t *testing.T) {
	const floor, ceil = time.Millisecond, 25 * time.Millisecond
	l := lane[request, *request]{goBackN: true}
	t0 := time.Unix(1000, 0)
	l.push(laneRequest(1), t0)
	l.take(t0, math.MaxUint64)
	l.resend(t0.Add(ceil), 16)
	l.ack(1, t0.Add(ceil+time.Millisecond))
	if l.srtt != 0 {
		t.Fatalf("the re-sent batch's ack gave a sample: srtt %v", l.srtt)
	}
	if got := l.rto(floor, ceil); got != ceil {
		t.Fatalf("rto %v with no sample, want the first estimate %v", got, ceil)
	}
	t1 := t0.Add(time.Second)
	l.push(laneRequest(2), t1)
	l.take(t1, math.MaxUint64)
	l.ack(2, t1.Add(2*time.Millisecond))
	if l.srtt != 2*time.Millisecond || l.rttvar != time.Millisecond {
		t.Fatalf("srtt/rttvar %v/%v after a 2ms sample, want 2ms/1ms", l.srtt, l.rttvar)
	}
	if got, want := l.rto(floor, ceil), 6*time.Millisecond; got != want {
		t.Fatalf("rto %v, want srtt + 4·rttvar = %v", got, want)
	}
	if l.backoff != 0 {
		t.Fatalf("the fresh sample left %d back-offs", l.backoff)
	}
}

// TestLaneRTOClamp: the estimate is held to [floor, ceil], a reply batch
// that holds a seq the other side cannot ack yet is not timed, and a
// go-back-N re-send carries only the head of what was sent.
func TestLaneRTOClamp(t *testing.T) {
	const floor, ceil = 3 * time.Millisecond, 25 * time.Millisecond
	t0 := time.Unix(1000, 0)
	for _, c := range []struct {
		rtt  time.Duration
		want time.Duration
	}{
		{10 * time.Microsecond, floor},
		{2 * time.Millisecond, 6 * time.Millisecond},
		{time.Second, ceil},
	} {
		l := lane[reply, *reply]{}
		l.push(laneReply(1), t0)
		l.take(t0, 1)
		l.ack(1, t0.Add(c.rtt))
		if got := l.rto(floor, ceil); got != c.want {
			t.Errorf("rtt %v: rto %v, want %v", c.rtt, got, c.want)
		}
	}

	l := lane[reply, *reply]{}
	l.push(laneReply(2), t0)
	l.take(t0, 1) // call 1 has not completed: the ack of 2 waits on it
	l.ack(2, t0.Add(time.Second))
	if l.srtt != 0 {
		t.Errorf("a batch past the ackable seq gave a sample: srtt %v", l.srtt)
	}

	g := lane[request, *request]{goBackN: true}
	for seq := uint64(1); seq <= 20; seq++ {
		g.push(laneRequest(seq), t0)
	}
	g.take(t0, math.MaxUint64)
	if got := seqsOf[request, *request](g.resend(t0.Add(ceil), 8)); !slices.Equal(got, []uint64{1, 2, 3, 4, 5, 6, 7, 8}) {
		t.Errorf("go-back-N re-send carried %v, want the head, seqs 1-8", got)
	}
}

// TestLaneBackOffPersistsUntilSample: each firing doubles the timeout, up
// to the ceiling, and it stays doubled while the other side speaks
// without acking anything new; only a fresh sample ends it.
func TestLaneBackOffPersistsUntilSample(t *testing.T) {
	const floor, ceil = time.Millisecond, 25 * time.Millisecond
	t0 := time.Unix(1000, 0)
	l := lane[request, *request]{goBackN: true}
	l.push(laneRequest(1), t0)
	l.take(t0, math.MaxUint64)
	l.ack(1, t0.Add(time.Millisecond)) // srtt 1ms, rttvar 0.5ms: rto 3ms
	l.push(laneRequest(2), t0)
	l.take(t0, math.MaxUint64)
	for i, want := range []time.Duration{6, 12, 24, 25, 25} {
		l.resend(t0, 16)
		l.ack(1, t0) // the other side speaks, with nothing new to ack
		l.retries = 0
		if got := l.rto(floor, ceil); got != want*time.Millisecond {
			t.Fatalf("after %d firings rto %v, want %vms", i+1, got, want)
		}
	}
	l.ack(2, t0) // acks the re-sent batch: Karn's rule, no sample
	if got := l.rto(floor, ceil); got != ceil {
		t.Fatalf("rto %v after an ack of a re-sent batch, want it still backed off to %v", got, ceil)
	}
	l.push(laneRequest(3), t0)
	l.take(t0, math.MaxUint64)
	l.ack(3, t0.Add(time.Millisecond)) // rttvar 0.375ms
	if got, want := l.rto(floor, ceil), 2500*time.Microsecond; got != want {
		t.Fatalf("rto %v after a fresh sample, want the estimate %v", got, want)
	}
}

// lossAfterWarmUp runs echo calls one at a time on a zero-cost virtual
// network, so both lanes measure their round trip, then loses the first
// message lose picks and times a call through the loss. The ceiling (RTO)
// is 200 ms, and a round trip here takes at most a tick, so the call
// should come back within a few floors (MaxBatchDelay and a tick, 1.5 ms).
func lossAfterWarmUp(t *testing.T, lose func(int64, *requestBatch, *replyBatch) bool, client bool) time.Duration {
	t.Helper()
	opts := Options{MaxBatch: 8, MaxBatchDelay: time.Millisecond, RTO: 200 * time.Millisecond, MaxRetries: 4}
	var armed atomic.Bool
	tap := firstOnly(func(kind int64, rb *requestBatch, pb *replyBatch) bool {
		return armed.Load() && lose(kind, rb, pb)
	})
	clientTap, serverTap := passAll, tap
	if client {
		clientTap, serverTap = tap, passAll
	}
	clk := autoClock(t)
	f := newTappedFixture(t, clk, opts, opts, clientTap, serverTap)
	f.handle("echo", echoHandler)
	s := f.client.Agent("a1").Stream("server", "g1")
	call := func() Outcome {
		p, err := s.Call("echo", []byte("x"))
		if err != nil {
			t.Fatal(err)
		}
		s.Flush()
		return claim(t, p)
	}
	for i := 0; i < 8; i++ {
		call()
		clk.Sleep(5 * time.Millisecond) // the pure ack goes out
	}
	armed.Store(true)
	start := clk.Now()
	if o := call(); !o.Normal || string(o.Payload) != "x" {
		t.Fatalf("call through the loss = %+v, want its echo", o)
	}
	return clk.Now().Sub(start)
}

// TestLostRequestBatchResentWithinRoundTrips: a lost request batch is
// re-sent when the measured round trip says it is overdue, not after the
// 200 ms ceiling.
func TestLostRequestBatchResentWithinRoundTrips(t *testing.T) {
	took := lossAfterWarmUp(t, func(_ int64, rb *requestBatch, _ *replyBatch) bool {
		return rb != nil && len(rb.Requests) > 0
	}, true)
	t.Logf("the call took %v through its lost request batch", took)
	if took > 20*time.Millisecond {
		t.Errorf("the call took %v through its lost request batch, want a few round trips (< 20ms)", took)
	}
}

// TestLostReplyBatchResentWithinRoundTrips is its twin for a lost reply
// batch, which also carried the ack of the request.
func TestLostReplyBatchResentWithinRoundTrips(t *testing.T) {
	took := lossAfterWarmUp(t, func(_ int64, _ *requestBatch, pb *replyBatch) bool {
		return pb != nil && len(pb.Replies) > 0
	}, false)
	t.Logf("the call took %v through its lost reply batch", took)
	if took > 20*time.Millisecond {
		t.Errorf("the call took %v through its lost reply batch, want a few round trips (< 20ms)", took)
	}
}

// TestGapReportsOnlyAgedHoles: a hole is reported only once what lies past
// it has been held a reorder window, so two batches the network swapped
// are not taken for a loss; a hole that fills within the window is never
// reported, and a reply that is not owed yet is no hole.
func TestGapReportsOnlyAgedHoles(t *testing.T) {
	const window = 100 * time.Microsecond
	t0 := time.Unix(1000, 0)
	var g gap
	g.hold(20) // 17-20 arrived, 1-16 did not
	g.note(0, true, t0)
	if got := g.report(window, t0.Add(window-1)); got != 0 {
		t.Fatalf("reported %d inside the reorder window", got)
	}
	if due := g.due(window); !due.Equal(t0.Add(window)) {
		t.Fatalf("due %v, want the window's end %v", due, t0.Add(window))
	}
	g.hold(16)
	g.note(20, true, t0.Add(window/2)) // the swapped batch came: no hole
	if got, due := g.report(window, t0.Add(window)), g.due(window); got != 0 || !due.IsZero() {
		t.Fatalf("a filled hole reported %d, due %v", got, due)
	}

	g = gap{}
	g.hold(36)
	g.note(20, false, t0) // seq 21's reply is not owed: its call still runs
	if got, due := g.report(window, t0.Add(time.Second)), g.due(window); got != 0 || !due.IsZero() {
		t.Fatalf("a reply not owed yet was reported as a hole: %d, due %v", got, due)
	}
	g.note(20, true, t0.Add(time.Second)) // it completed: the window starts now
	if got := g.report(window, t0.Add(time.Second+window)); got != 16 {
		t.Fatalf("reported %d past ack 20, want 16", got)
	}
}

// TestGapReportsEachHoleOnce: a hole is owed one report per value of the
// ack; when the ack moves onto a second hole, that one is owed its own
// report a reorder window later.
func TestGapReportsEachHoleOnce(t *testing.T) {
	const window = 100 * time.Microsecond
	t0 := time.Unix(1000, 0)
	var g gap
	g.hold(48) // 1-16 and 33-48 arrived; 17-32 are lost
	g.note(16, true, t0)
	if got := g.report(window, t0.Add(window)); got != 32 {
		t.Fatalf("first report %d, want 48-16", got)
	}
	for _, at := range []time.Duration{window, 2 * window, time.Second} {
		g.hold(64)
		g.note(16, true, t0.Add(at))
		if got := g.report(window, t0.Add(at)); got != 0 {
			t.Fatalf("the hole above 16 was reported again at +%v: %d", at, got)
		}
	}
	t1 := t0.Add(2 * time.Second)
	g.note(24, true, t1) // 17-24 came back; 25-32 are still missing
	if got := g.report(window, t1); got != 0 {
		t.Fatalf("the hole above 24 was reported before its window: %d", got)
	}
	if got := g.report(window, t1.Add(window)); got != 40 {
		t.Fatalf("the hole above 24 reported %d, want 64-24", got)
	}
}

// TestLaneReorderWindow: the reorder window is a quarter of the least
// round trip sampled, not of the smoothed one, and there is none before
// the first sample, so no hole comes of age.
func TestLaneReorderWindow(t *testing.T) {
	t0 := time.Unix(1000, 0)
	l := lane[request, *request]{goBackN: true}
	if w := l.window(); w != noWindow {
		t.Fatalf("window %v before any sample, want none", w)
	}
	g := gap{top: 9, since: t0}
	if due := g.due(l.window()); !due.IsZero() {
		t.Fatalf("a hole came of age at %v with no window", due)
	}
	for i, rtt := range []time.Duration{4 * time.Millisecond, time.Millisecond, 3 * time.Millisecond} {
		seq := uint64(i + 1)
		l.push(laneRequest(seq), t0)
		l.take(t0, math.MaxUint64)
		l.ack(seq, t0.Add(rtt))
	}
	if w, want := l.window(), 250*time.Microsecond; w != want {
		t.Fatalf("window %v with srtt %v, want a quarter of the least sample, %v", w, l.srtt, want)
	}
}
