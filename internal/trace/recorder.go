package trace

import (
	"strings"
	"sync"
	"time"
)

// AnomalySnapshot is one auto-flushed copy of the flight recorder's
// window, captured the moment an anomaly (stream break, retransmit,
// RTO-stall probe) was recorded. Reason names the trigger; Events is
// the recorder's window at capture time, oldest first, including the
// triggering event.
type AnomalySnapshot struct {
	At     time.Time
	Reason string
	Events []Event
}

// Recorder is the always-on flight recorder behind the ops plane's
// /trace endpoint: a bounded ring of recent protocol events plus a
// bounded list of anomaly snapshots. Normal recording is exactly a
// Ring record (allocation-free); only the rare anomaly path copies the
// window out. Recorder implements Tracer and NowSetter, so installing
// it on a Peer wires the peer's clock in automatically.
type Recorder struct {
	ring *Ring

	mu        sync.Mutex
	snaps     []AnomalySnapshot
	maxSnaps  int
	minGap    time.Duration // event-time gap below which repeat anomalies coalesce
	lastFlush time.Time
	anomalies uint64 // total anomaly events seen (snapshots may coalesce)
}

// NewRecorder creates a flight recorder holding up to capacity events
// (default 4096) and up to maxSnapshots anomaly snapshots (default 8,
// oldest evicted first). Repeat anomalies within 250ms of event time
// coalesce into the prior snapshot so a retransmit storm cannot churn
// the snapshot list.
func NewRecorder(capacity, maxSnapshots int) *Recorder {
	if maxSnapshots <= 0 {
		maxSnapshots = 8
	}
	return &Recorder{
		ring:     NewRing(capacity),
		maxSnaps: maxSnapshots,
		minGap:   250 * time.Millisecond,
	}
}

// SetNow forwards the time source to the underlying ring (NowSetter).
func (r *Recorder) SetNow(now func() time.Time) { r.ring.SetNow(now) }

// Record stores the event and, when it is anomaly evidence, flushes a
// snapshot of the current window. The common path adds nothing beyond
// the ring's own bookkeeping.
func (r *Recorder) Record(e Event) {
	r.ring.Record(e)
	if reason := anomalyReason(e); reason != "" {
		r.flush(e.At, reason)
	}
}

// anomalyReason classifies an event as anomaly evidence: a broken
// stream, a request or reply batch sent again (on a timeout, a hole
// report or a partial ack), or an RTO-stall probe. Returns "" for normal
// traffic. Allocation-free.
func anomalyReason(e Event) string {
	switch e.Kind {
	case StreamBroken:
		return "stream-broken"
	case BatchSent, ReplyBatchSent:
		if strings.HasSuffix(e.Detail, retransmitSuffix) || strings.HasSuffix(e.Detail, holeSuffix) ||
			strings.HasSuffix(e.Detail, partialSuffix) {
			return "retransmit"
		}
		if e.Detail == "probe" {
			return "rto-stall"
		}
	}
	return ""
}

func (r *Recorder) flush(at time.Time, reason string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.anomalies++
	if at.IsZero() {
		at = time.Now()
	}
	if !r.lastFlush.IsZero() && at.Sub(r.lastFlush) < r.minGap && len(r.snaps) > 0 {
		// Coalesce: extend the live snapshot's window rather than
		// stacking near-identical copies during a burst.
		r.snaps[len(r.snaps)-1].Events = r.ring.Events()
		r.lastFlush = at
		return
	}
	r.lastFlush = at
	r.snaps = append(r.snaps, AnomalySnapshot{At: at, Reason: reason, Events: r.ring.Events()})
	if len(r.snaps) > r.maxSnaps {
		copy(r.snaps, r.snaps[len(r.snaps)-r.maxSnaps:])
		r.snaps = r.snaps[:r.maxSnaps]
	}
}

// Events returns the recorder's current window, oldest first.
func (r *Recorder) Events() []Event { return r.ring.Events() }

// Count returns how many recorded events in the window have the kind.
func (r *Recorder) Count(k Kind) int { return r.ring.Count(k) }

// Snapshots returns a copy of the retained anomaly snapshots, oldest
// first.
func (r *Recorder) Snapshots() []AnomalySnapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]AnomalySnapshot, len(r.snaps))
	copy(out, r.snaps)
	return out
}

// Anomalies returns the total number of anomaly events observed,
// including ones whose snapshots coalesced or were evicted.
func (r *Recorder) Anomalies() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.anomalies
}

// Reset discards the window, the snapshots, and the anomaly count.
func (r *Recorder) Reset() {
	r.ring.Reset()
	r.mu.Lock()
	r.snaps = nil
	r.lastFlush = time.Time{}
	r.anomalies = 0
	r.mu.Unlock()
}
