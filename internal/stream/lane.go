package stream

import (
	"slices"
	"time"
)

// lane is one direction of a stream: the requests a Stream sends, or the
// replies an rstream returns. Both batch alike. An item waits in the
// unsent suffix until a flush (take) sends it, then in the sent prefix
// until the other side's cumulative ack covers its seq. A lane is a plain
// value: its owner's lock guards it, every method that stamps an instant
// takes now, and in steady state it reuses one array.
//
// A sent item goes out again in one of three ways. The other side
// reports a hole (mend): a batch of its says how far past its ack it
// holds, so what lies below that was lost, and the head of it is re-sent
// at once, once per hole (RACK, RFC 8985). A duplicate request is such a
// report too: the sender had not seen the ack when it re-sent, so the
// reply lane re-sends the hole above that ack the same way. After a
// timeout, an ack that covers the re-sent head but stops short of what
// was sent before the timeout shows the next hole, which is re-sent at
// once too (NewReno's partial ack, RFC 6582 §3.2; the owner calls mend up
// to recover). And the retransmission timer runs out (resend), which is
// left to tail losses, lost re-sends and a silent other side.
//
// The directions differ in goBackN. A go-back-N lane (requests) re-sends
// the head of its sent prefix on a timeout, and its timer restarts at
// every transmission. The other (replies) re-sends all it holds, since
// replies complete out of order and the one missing may sit behind those
// already sent; its timer restarts when it sends all it holds, when its
// ack advances and when it first sends a reply the other side can ack
// (one at or below the ackable bound its owner passes to take). Whether a
// retransmission counts toward a break is the owner's call; a re-send by
// mend never does.
//
// The timer runs for rto, which follows the measured round trip (RFC
// 6298): one batch at a time is timed from the take that sends it to the
// ack that covers it, and by Karn's rule a batch re-sent before its ack
// gives no sample. Each firing doubles the timeout (resend), and it stays
// doubled until a fresh sample arrives, however often the other side
// speaks meanwhile. A reply lane whose sent replies the other side cannot
// ack yet (an earlier call still runs, or its chain is still in custody)
// waits the ceiling instead: its re-sends ask after a silent sender, not
// after loss.
type lane[T any, P seqItem[T]] struct {
	goBackN bool

	items   []T       // the sent prefix, then the unsent suffix
	unsent  int       // length of the unsent suffix
	opened  time.Time // when the unsent suffix's first item was pushed
	timer   time.Time // when the retransmission timer last restarted
	acked   uint64    // the other side's cumulative ack
	retries int       // retransmissions since the other side last spoke

	// low is the least seq of the sent prefix (while it is not empty), and
	// ackable the highest seq the other side can ack as of the last take:
	// the timer runs on the estimate only while low <= ackable. A
	// go-back-N lane's ackable is the widest seq.
	low, ackable uint64

	// The round-trip estimator. srtt is zero until the first sample;
	// minRTT is the least sample, whose quarter is the reorder window;
	// timed is the highest seq of the batch being timed, sent at timedAt,
	// or zero while none is; backoff counts the firings since the last
	// sample.
	srtt, rttvar, minRTT time.Duration
	timed                uint64
	timedAt              time.Time
	backoff              int

	// mended is the ack, plus one, at which the hole above it was last
	// re-sent (by mend or a timeout), so each hole is re-sent once; zero
	// for none. recover is, after a go-back-N timeout, the highest seq
	// sent before its re-send, until an ack reaches it; zero otherwise.
	mended, recover uint64
}

// seqItem is what a lane holds, a request or a reply, known by its seq.
// The seq is read through a pointer, so reading it copies nothing.
type seqItem[T any] interface {
	*T
	seq() uint64
}

func (r *request) seq() uint64 { return r.Seq }
func (r *reply) seq() uint64   { return r.Seq }

// push appends item to the unsent suffix and reports whether it opened a
// batch. now is read only then, so a caller may pass the zero time when
// the suffix is not empty.
func (l *lane[T, P]) push(item T, now time.Time) bool {
	opened := l.unsent == 0
	if opened {
		l.opened = now
	}
	l.items = append(l.items, item)
	l.unsent++
	return opened
}

// take moves the unsent suffix into the sent prefix for a normal flush
// and returns it. ackable is the highest seq the other side can ack as
// soon as the batch arrives; it only grows. The batch is timed if none
// is, unless it holds a seq past ackable: its ack would wait on more
// than the round trip. The slice aliases the lane: it is valid while the
// owner's lock is held.
func (l *lane[T, P]) take(now time.Time, ackable uint64) []T {
	waited := l.waits()
	batch := l.items[len(l.items)-l.unsent:]
	var last uint64
	for i := range batch {
		q := P(&batch[i]).seq()
		last = max(last, q)
		if i == 0 && len(batch) == len(l.items) || q < l.low {
			l.low = q
		}
	}
	l.unsent = 0
	l.ackable = max(l.ackable, ackable)
	if l.goBackN || len(batch) == len(l.items) || !waited && l.waits() {
		l.timer = now
	}
	if l.timed == 0 && len(batch) > 0 && last <= ackable {
		l.timed, l.timedAt = last, now
	}
	return batch
}

// waits reports whether the sent prefix holds an item the other side can
// ack: the timer runs on the estimate.
func (l *lane[T, P]) waits() bool { return len(l.items) > l.unsent && l.low <= l.ackable }

// resend returns what a timeout's retransmission carries: the first head
// items of a go-back-N lane's sent prefix, else everything held, which is
// then all sent (a reply lane ignores head). That re-sends the hole above
// the ack, and a go-back-N lane notes the highest seq it had sent for the
// partial ack. The timeout doubles, and whatever was being timed gives no
// sample now (Karn's rule). Like take's, the slice aliases the lane.
func (l *lane[T, P]) resend(now time.Time, head int) []T {
	l.backoff++
	l.timer = now
	l.timed = 0
	l.mended = l.acked + 1
	if l.goBackN {
		sent := len(l.items) - l.unsent
		if sent > 0 {
			l.recover = P(&l.items[sent-1]).seq()
		}
		return l.items[:min(head, sent)]
	}
	l.unsent = 0
	for i := range l.items {
		if q := P(&l.items[i]).seq(); i == 0 || q < l.low {
			l.low = q
		}
	}
	return l.items
}

// mend returns what a re-send of the hole above the ack carries, at most
// head items of the sent prefix below seq below, or nothing if that hole
// was re-sent already. A go-back-N lane re-sends the head of its sent
// prefix. A reply lane re-sends the run of its sent prefix that starts
// with the reply at the ack plus one, or nothing when that reply was not
// sent: a reply still in custody, or not yet made, is no hole. A mend
// restarts the timer, which recovers it if it is lost, and ends the
// timing (Karn's rule); it neither backs off nor counts toward a break.
// Like take's, the slice aliases the lane.
func (l *lane[T, P]) mend(now time.Time, head int, below uint64) []T {
	if l.mended == l.acked+1 || below <= l.acked+1 {
		return nil
	}
	sent := len(l.items) - l.unsent
	i := 0
	if !l.goBackN {
		for i < sent && P(&l.items[i]).seq() != l.acked+1 {
			i++
		}
	}
	j := i
	for j < sent && j-i < head && P(&l.items[j]).seq() < below {
		j++
	}
	if j == i {
		return nil
	}
	l.timer = now
	l.timed = 0
	l.mended = l.acked + 1
	return l.items[i:j]
}

// ack applies the other side's cumulative ack and reports whether it
// advanced. An advance drops the items whose seqs it covers, zeroing their
// slots so that the backing array keeps nothing acked reachable, and ends
// a timeout's recovery once it reaches recover. The retry count is the
// owner's: it resets it on anything the other side sends.
func (l *lane[T, P]) ack(through uint64, now time.Time) bool {
	if through <= l.acked {
		return false
	}
	l.acked = through
	if !l.goBackN {
		l.timer = now
	}
	if l.timed != 0 && through >= l.timed {
		l.sample(now.Sub(l.timedAt))
	}
	if through >= l.recover {
		l.recover = 0
	}
	// What the ack covers is a prefix, but for replies completed out of
	// order: cut the prefix with one copy, and filter the rest only if it
	// holds a covered item too.
	n := 0
	for n < len(l.items) && P(&l.items[n]).seq() <= through {
		n++
	}
	kept := l.items[:copy(l.items, l.items[n:])]
	for i := range kept {
		if P(&kept[i]).seq() <= through {
			kept = slices.DeleteFunc(kept, func(it T) bool { return P(&it).seq() <= through })
			break
		}
	}
	clear(l.items[len(kept):])
	l.items = kept
	// Unsent items are the newest, and the other side cannot ack what it
	// never got, so the suffix survives; clamp in case a garbled ack ate
	// into it.
	l.unsent = min(l.unsent, len(kept))
	if sent := len(kept) - l.unsent; sent > 0 {
		l.low = P(&kept[0]).seq()
		for i := 1; i < sent && !l.goBackN; i++ {
			l.low = min(l.low, P(&kept[i]).seq())
		}
	}
	return true
}

// retry counts one retransmission toward a break and reports whether the
// count is now past limit.
func (l *lane[T, P]) retry(limit int) bool {
	l.retries++
	return l.retries > limit
}

// sample folds one round-trip measurement into the estimate (RFC 6298
// §2) and ends the back-off. A zero sample (a virtual clock that did not
// move) counts as a nanosecond, since a zero srtt means no sample yet.
func (l *lane[T, P]) sample(r time.Duration) {
	r = max(r, time.Nanosecond)
	if l.srtt == 0 {
		l.srtt, l.rttvar, l.minRTT = r, r/2, r
	} else {
		l.rttvar = (3*l.rttvar + (l.srtt - r).Abs()) / 4
		l.srtt = (7*l.srtt + r) / 8
		l.minRTT = min(l.minRTT, r)
	}
	l.timed, l.backoff = 0, 0
}

// rto returns the retransmission timeout: SRTT + 4·RTTVAR clamped to
// [floor, ceil], or ceil before the first sample or while the sent prefix
// holds nothing the other side can ack, doubled per back-off and never
// past ceil.
func (l *lane[T, P]) rto(floor, ceil time.Duration) time.Duration {
	d := ceil
	if l.srtt != 0 && (l.waits() || len(l.items) == l.unsent) {
		d = min(max(l.srtt+4*l.rttvar, floor), ceil)
	}
	for i := 0; i < l.backoff && d < ceil; i++ {
		d *= 2
	}
	return min(d, ceil)
}

// window returns the reorder window, a quarter of the least round trip
// sampled (RACK's min_RTT/4): how long a hole in what the other side
// sends must stand before this end reports it. Before the first sample it
// is noWindow, and holes are left to the other side's timer.
func (l *lane[T, P]) window() time.Duration {
	if l.minRTT == 0 {
		return noWindow
	}
	return l.minRTT / 4
}

// noWindow is the reorder window of a lane with no round-trip sample.
const noWindow = time.Duration(-1)

// flushAt returns when the open batch is delay old, or zero if none is
// open.
func (l *lane[T, P]) flushAt(delay time.Duration) time.Time {
	if l.unsent == 0 {
		return time.Time{}
	}
	return l.opened.Add(delay)
}

// resendAt returns when the retransmission timer runs out, or zero while
// a retransmission would carry nothing sent.
func (l *lane[T, P]) resendAt(rto time.Duration) time.Time {
	if len(l.items) == l.unsent {
		return time.Time{}
	}
	return l.timer.Add(rto)
}

// nextDue returns the earlier of flushAt and resendAt, zero for neither.
func (l *lane[T, P]) nextDue(delay, rto time.Duration) time.Time {
	return earliest(l.flushAt(delay), l.resendAt(rto))
}

// reset empties the lane and forgets its ack, its timer, its retries and
// its round-trip estimate.
func (l *lane[T, P]) reset() { *l = lane[T, P]{goBackN: l.goBackN} }

// gap is the other half of recovery by report: what this end holds of
// the other side's lane past its own cumulative ack. A batch of this
// end's says how far past the ack it holds (Held on the wire), nonzero
// only once the hole below has stood a reorder window (the window of
// this end's own lane), so that the network's reordering of adjacent
// batches is not reported as loss; and once per hole, since a hole is
// owed one report for each value of the ack. A hole no batch carried by
// then is reported by the owner on its own (due). Its owner's lock
// guards it.
type gap struct {
	top   uint64    // the highest seq held
	ack   uint64    // the cumulative ack the hole lies above
	since time.Time // when the hole above ack opened; zero for no hole
	told  bool      // the hole above ack has been reported
}

// hold notes that seq is held.
func (g *gap) hold(seq uint64) { g.top = max(g.top, seq) }

// note records the ack after an arrival and whether the seq above it is a
// hole at all (for replies, whether that call's reply is owed yet). A
// hole that opens, or moves with the ack, starts its reorder window now.
func (g *gap) note(ack uint64, owed bool, now time.Time) {
	switch {
	case !owed || g.top <= ack:
		g.since, g.told = time.Time{}, false
	case g.since.IsZero() || ack != g.ack:
		g.since, g.told = now, false
	}
	g.ack = ack
}

// report returns what a batch sent at now says past its ack: how far past
// it this end holds, once the hole has stood window and was not reported
// yet, which it now is; else 0.
func (g *gap) report(window time.Duration, now time.Time) uint64 {
	if !reached(g.due(window), now) {
		return 0
	}
	g.told = true
	return g.top - g.ack
}

// due returns when the hole comes of age unreported, or zero for none.
func (g *gap) due(window time.Duration) time.Time {
	if g.told || g.since.IsZero() || window < 0 {
		return time.Time{}
	}
	return g.since.Add(window)
}

// reached reports whether an instant from flushAt, resendAt or nextDue
// has come by now; the zero instant never comes.
func reached(at, now time.Time) bool { return !at.IsZero() && !at.After(now) }

// earliest returns the earlier of two instants, zero meaning none.
func earliest(a, b time.Time) time.Time {
	if a.IsZero() || !b.IsZero() && b.Before(a) {
		return b
	}
	return a
}
