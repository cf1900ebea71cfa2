package stream

import (
	"slices"
	"time"
)

// lane is one direction of a stream: the requests a Stream sends, or the
// replies an rstream returns. Both batch alike. An item waits in the
// unsent suffix until a flush (take) sends it, then in the sent prefix
// until the other side's cumulative ack covers its seq; it is re-sent
// (resend) when the retransmission timer runs out or the owner sees loss.
// A lane is a plain value: its owner's lock guards it, every method that
// stamps an instant takes now, and in steady state it reuses one array.
//
// The directions differ in goBackN. A go-back-N lane (requests) re-sends
// the head of its sent prefix, and its timer restarts at every
// transmission. The other (replies) re-sends all it holds, since replies
// complete out of order and the one missing may sit behind those already
// sent; its timer restarts when it sends all it holds, when its ack
// advances and when it fills from empty. Whether a retransmission counts
// toward a break is the owner's call.
//
// The timer runs for rto, which follows the measured round trip (RFC
// 6298): one batch at a time is timed from the take that sends it to the
// ack that covers it, and by Karn's rule a batch re-sent before its ack
// gives no sample. Each firing doubles the timeout (backOff), and it stays
// doubled until a fresh sample arrives, however often the other side
// speaks meanwhile.
type lane[T any, P seqItem[T]] struct {
	goBackN bool

	items   []T       // the sent prefix, then the unsent suffix
	unsent  int       // length of the unsent suffix
	opened  time.Time // when the unsent suffix's first item was pushed
	timer   time.Time // when the retransmission timer last restarted
	acked   uint64    // the other side's cumulative ack
	retries int       // retransmissions since the other side last spoke

	// The round-trip estimator. srtt is zero until the first sample;
	// timed is the highest seq of the batch being timed, sent at timedAt,
	// or zero while none is; backoff counts the firings since the last
	// sample.
	srtt, rttvar time.Duration
	timed        uint64
	timedAt      time.Time
	backoff      int

	// lost is the owner's: the other side showed that it missed a
	// transmission, so everything held goes out again at the next chance.
	lost bool
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
	if len(l.items) == 0 {
		l.timer = now
	}
	opened := l.unsent == 0
	if opened {
		l.opened = now
	}
	l.items = append(l.items, item)
	l.unsent++
	return opened
}

// take moves the unsent suffix into the sent prefix for a normal flush
// and returns it. The batch is timed if none is, unless it holds a seq
// past ackable, the highest the other side can ack as soon as the batch
// arrives: its ack would wait on more than the round trip. The slice
// aliases the lane: it is valid while the owner's lock is held.
func (l *lane[T, P]) take(now time.Time, ackable uint64) []T {
	batch := l.items[len(l.items)-l.unsent:]
	if l.goBackN || len(batch) == len(l.items) {
		l.timer = now
	}
	l.unsent = 0
	if l.timed == 0 && len(batch) > 0 {
		var last uint64
		for i := range batch {
			last = max(last, P(&batch[i]).seq())
		}
		if last <= ackable {
			l.timed, l.timedAt = last, now
		}
	}
	return batch
}

// resend returns what a retransmission carries: the first head items of a
// go-back-N lane's sent prefix, else everything held, which is then all
// sent (a reply lane ignores head). Whatever was being timed gives no sample now (Karn's rule). Like
// take's, the slice aliases the lane.
func (l *lane[T, P]) resend(now time.Time, head int) []T {
	l.timer = now
	l.timed = 0
	if l.goBackN {
		return l.items[:min(head, len(l.items)-l.unsent)]
	}
	l.unsent = 0
	return l.items
}

// ack applies the other side's cumulative ack and reports whether it
// advanced. An advance drops the items whose seqs it covers, zeroing their
// slots so that the backing array keeps nothing acked reachable. The retry
// count is the owner's: it resets it on anything the other side sends.
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
		l.srtt, l.rttvar = r, r/2
	} else {
		l.rttvar = (3*l.rttvar + (l.srtt - r).Abs()) / 4
		l.srtt = (7*l.srtt + r) / 8
	}
	l.timed, l.backoff = 0, 0
}

// backOff doubles the timeout after a firing of the retransmission timer.
func (l *lane[T, P]) backOff() { l.backoff++ }

// rto returns the retransmission timeout: SRTT + 4·RTTVAR clamped to
// [floor, ceil], or ceil before the first sample, doubled per back-off
// and never past ceil.
func (l *lane[T, P]) rto(floor, ceil time.Duration) time.Duration {
	d := ceil
	if l.srtt != 0 {
		d = min(max(l.srtt+4*l.rttvar, floor), ceil)
	}
	for i := 0; i < l.backoff && d < ceil; i++ {
		d *= 2
	}
	return min(d, ceil)
}

// flushAt returns when the open batch is delay old, or zero if none is
// open.
func (l *lane[T, P]) flushAt(delay time.Duration) time.Time {
	if l.unsent == 0 {
		return time.Time{}
	}
	return l.opened.Add(delay)
}

// resendAt returns when the retransmission timer runs out, or zero while
// a retransmission would carry nothing.
func (l *lane[T, P]) resendAt(rto time.Duration) time.Time {
	n := len(l.items)
	if l.goBackN {
		n -= l.unsent
	}
	if n == 0 {
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
