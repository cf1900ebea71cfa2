package stream

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"promises/internal/simnet"
)

// refLane is the reference a lane is checked against: each direction's
// batching and retention written out on its own, as Stream and rstream
// kept them before they shared a type, over plain slices of seqs. A
// request lane times what it sent from its last send of anything; a reply
// lane times everything it holds from the later of its last full send and
// its ack's last advance (or its birth).
type refLane struct {
	goBackN      bool
	sent, unsent []uint64
	opened       time.Time // first unsent item's push
	lastSend     time.Time // any transmission (requests)
	lastFull     time.Time // transmission of everything held, or birth (replies)
	lastAck      time.Time // ack advance, or birth (replies)
	acked        uint64
	retries      int
}

func (r *refLane) held() []uint64 { return append(slices.Clone(r.sent), r.unsent...) }

func (r *refLane) push(seq uint64, now time.Time) {
	if len(r.sent)+len(r.unsent) == 0 {
		r.lastFull, r.lastAck = now, now
	}
	if len(r.unsent) == 0 {
		r.opened = now
	}
	r.unsent = append(r.unsent, seq)
}

func (r *refLane) take(now time.Time) []uint64 {
	batch := r.unsent
	if len(r.sent) == 0 {
		r.lastFull = now
	}
	r.lastSend = now
	r.sent, r.unsent = append(r.sent, batch...), nil
	return batch
}

func (r *refLane) resend(now time.Time) []uint64 {
	r.lastSend = now
	if r.goBackN {
		return slices.Clone(r.sent)
	}
	r.lastFull = now
	r.sent, r.unsent = r.held(), nil
	return slices.Clone(r.sent)
}

func (r *refLane) ack(through uint64, now time.Time) {
	if through <= r.acked {
		return
	}
	r.acked, r.lastAck = through, now
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
	case r.goBackN && len(r.sent) > 0:
		return r.lastSend.Add(rto)
	case !r.goBackN && len(r.sent)+len(r.unsent) > 0:
		stall := r.lastAck
		if r.lastFull.After(stall) {
			stall = r.lastFull
		}
		return stall.Add(rto)
	}
	return time.Time{}
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
// other side's acks (fresh and stale) and resets. After every step it
// compares what the two hold, sent and unsent, what they transmit, their
// deadlines, and when they hit the retry limit, and it checks that the
// lane's backing array keeps nothing past its length.
func runLaneModel[T any, P seqItem[T]](t testing.TB, goBackN bool, prog []byte, mk func(seq uint64) T) {
	const (
		delay = 3 * time.Millisecond
		rto   = 10 * time.Millisecond
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
	)
	transmit := func(step string, got []T, want []uint64) {
		t.Helper()
		if g := seqsOf[T, P](got); !slices.Equal(g, want) {
			t.Fatalf("step %d %s: lane sent %v, reference %v", in.i, step, g, want)
		}
		loss := in.next()
		for i, q := range want {
			if (int(loss)+7*i)%4 != 0 { // loses about one in four
				delivered[q] = true
			}
		}
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
			if l.unsent > 0 {
				transmit("take", l.take(now), ref.take(now))
			}
		case 3: // time passes
			now = now.Add(time.Duration(op>>3) * time.Millisecond / 2)
		case 4: // the owner's deadline duty: an age flush, else a retransmission
			switch flush, resend := ref.flushAt(delay), ref.resendAt(rto); {
			case !flush.IsZero() && !flush.After(now):
				transmit("aged take", l.take(now), ref.take(now))
			case !resend.IsZero() && !resend.After(now):
				// Both directions count every retransmission; the owner
				// resets the count whenever the other side speaks (5, 6).
				broke := l.retry(limit)
				ref.retries++
				if want := ref.retries > limit; broke != want {
					t.Fatalf("step %d: lane broke=%v at %d retries, reference %v", in.i, broke, l.retries, want)
				}
				if broke { // the stream breaks and is reincarnated
					l.reset()
					ref = refLane{goBackN: goBackN}
					nextSeq, pushed = 1, nil
					clear(delivered)
					continue
				}
				transmit("resend", l.resend(now), ref.resend(now))
			}
		case 5: // the other side's cumulative ack of what it got in order
			var through uint64
			for _, q := range pushed {
				if !delivered[q] {
					break
				}
				through = q
			}
			if advanced := l.ack(through, now); advanced != (through > ref.acked) {
				t.Fatalf("step %d: ack %d advanced=%v over %d", in.i, through, advanced, ref.acked)
			}
			ref.ack(through, now)
			pushed = slices.DeleteFunc(pushed, func(q uint64) bool { return q <= through })
			l.retries, ref.retries = 0, 0
		case 6: // a stale or duplicate ack: the other side spoke all the same
			if l.ack(ref.acked-min(ref.acked, uint64(op>>3)), now) {
				t.Fatalf("step %d: a stale ack advanced the lane", in.i)
			}
			l.retries, ref.retries = 0, 0
		case 7:
			if op>>3 == 31 { // a break the owner saw elsewhere
				l.reset()
				ref = refLane{goBackN: goBackN}
				nextSeq, pushed = 1, nil
				clear(delivered)
			}
		}
		if got, want := seqsOf[T, P](l.items), ref.held(); !slices.Equal(got, want) {
			t.Fatalf("step %d: lane holds %v, reference %v", in.i, got, want)
		}
		if l.unsent != len(ref.unsent) || l.retries != ref.retries || l.acked != ref.acked {
			t.Fatalf("step %d: lane unsent/retries/acked %d/%d/%d, reference %d/%d/%d", in.i,
				l.unsent, l.retries, l.acked, len(ref.unsent), ref.retries, ref.acked)
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
