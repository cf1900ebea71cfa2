package trace

import (
	"sort"
	"strings"
	"time"
)

// Stage is one step in a call's lifecycle, in causal order. A Timeline
// holds one timestamp per stage; stages the trace never observed stay
// zero (e.g. a call whose reply was lost has no StageResolved, and a
// call traced only at the sender has no receiver-side stages).
type Stage int

// Call lifecycle stages.
const (
	// StageEnqueued: accepted into the sending stream's buffer.
	StageEnqueued Stage = iota
	// StageSent: first transmitted in a request batch.
	StageSent
	// StageDelivered: admitted into the receiver's order buffer.
	StageDelivered
	// StageExecuted: handler completed at the receiver.
	StageExecuted
	// StageReplied: reply entered the receiver's retained buffer.
	StageReplied
	// StageResolved: promise resolved at the sender.
	StageResolved

	// NumStages bounds the Stage enum.
	NumStages
)

var stageNames = [NumStages]string{
	"enqueued", "sent", "delivered", "executed", "replied", "resolved",
}

func (s Stage) String() string {
	if s >= 0 && s < NumStages {
		return stageNames[s]
	}
	return "stage(?)"
}

// Timeline is the correlated lifecycle of one call, joined across the
// sender's and receiver's trace rings.
type Timeline struct {
	TraceID uint64
	Root    uint64 // root of the causal chain; equals TraceID for roots
	Parent  uint64 // trace ID of the causing call; 0 for chain roots
	Depth   int    // hops from the chain root (set by GroupByRoot)
	Stream  string
	Seq     uint64
	Mode    string               // call mode, from CallEnqueued's detail
	Port    string               // target port, from CallExecuted's detail
	Outcome string               // from PromiseResolved's detail
	Stamps  [NumStages]time.Time // zero = stage not observed
}

// Stamp returns the time the call reached a stage (zero if unobserved).
func (t *Timeline) Stamp(s Stage) time.Time { return t.Stamps[s] }

// Dur returns the duration between two observed stages, or 0 if either
// is unobserved.
func (t *Timeline) Dur(from, to Stage) time.Duration {
	a, b := t.Stamps[from], t.Stamps[to]
	if a.IsZero() || b.IsZero() {
		return 0
	}
	return b.Sub(a)
}

// First returns the earliest observed stamp (zero if none).
func (t *Timeline) First() time.Time {
	for _, ts := range t.Stamps {
		if !ts.IsZero() {
			return ts
		}
	}
	return time.Time{}
}

// Last returns the latest observed stamp (zero if none).
func (t *Timeline) Last() time.Time {
	for i := NumStages - 1; i >= 0; i-- {
		if !t.Stamps[i].IsZero() {
			return t.Stamps[i]
		}
	}
	return time.Time{}
}

// Total is the span from the first observed stage to the last.
func (t *Timeline) Total() time.Duration {
	f, l := t.First(), t.Last()
	if f.IsZero() || l.IsZero() {
		return 0
	}
	return l.Sub(f)
}

// Correlate joins trace events — typically the concatenation of every
// node's ring — into per-call timelines.
//
// The per-call events (CallEnqueued, CallDelivered, CallExecuted,
// CallReplied, PromiseResolved) join on their TraceID directly; each end
// derives it from (stream, incarnation, seq), so sender-side and
// receiver-side events for one call agree.
// BatchSent events are batch-scoped, not call-scoped: each carries the
// batch's first seq and a "n=<count>" detail, so the correlator walks
// events in time order, tracks the live seq->call map per stream
// (segmented at StreamRestarted, since a new incarnation restarts seq
// numbering), and attributes the earliest covering batch transmission
// to each call's StageSent. Ack-only and probe batches cover no calls.
//
// The input is not mutated. Output order is deterministic: by first
// stamp, then stream, then seq.
func Correlate(events []Event) []*Timeline {
	evs := make([]Event, len(events))
	copy(evs, events)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At.Before(evs[j].At) })

	byID := make(map[uint64]*Timeline)
	// live maps seq -> timeline for the *current* incarnation of each
	// sending stream, for attributing batch-scoped BatchSent events.
	live := make(map[string]map[uint64]*Timeline)
	var out []*Timeline

	get := func(e Event) *Timeline {
		tl := byID[e.TraceID]
		if tl == nil {
			tl = &Timeline{TraceID: e.TraceID, Stream: e.Stream, Seq: e.Seq}
			byID[e.TraceID] = tl
			out = append(out, tl)
		}
		// Causal context rides the per-call events; the first event that
		// carries it wins (sender and receiver agree — the wire carries
		// the same values both saw).
		if tl.Root == 0 && e.Root != 0 {
			tl.Root = e.Root
		}
		if tl.Parent == 0 && e.Parent != 0 {
			tl.Parent = e.Parent
		}
		return tl
	}
	mark := func(tl *Timeline, s Stage, at time.Time) {
		if tl.Stamps[s].IsZero() {
			tl.Stamps[s] = at
		}
	}

	for _, e := range evs {
		switch e.Kind {
		case CallEnqueued:
			tl := get(e)
			mark(tl, StageEnqueued, e.At)
			if tl.Mode == "" {
				tl.Mode = e.Detail
			}
			m := live[e.Stream]
			if m == nil {
				m = make(map[uint64]*Timeline)
				live[e.Stream] = m
			}
			m[e.Seq] = tl
		case BatchSent:
			n, ok := batchCount(e.Detail)
			if !ok {
				continue // ack or probe: carries no calls
			}
			m := live[e.Stream]
			for seq := e.Seq; seq < e.Seq+n; seq++ {
				if tl := m[seq]; tl != nil {
					mark(tl, StageSent, e.At)
				}
			}
		case CallDelivered:
			mark(get(e), StageDelivered, e.At)
		case CallExecuted:
			tl := get(e)
			mark(tl, StageExecuted, e.At)
			if tl.Port == "" {
				tl.Port = e.Detail
			}
		case CallReplied:
			mark(get(e), StageReplied, e.At)
		case PromiseResolved:
			tl := get(e)
			mark(tl, StageResolved, e.At)
			if tl.Outcome == "" {
				tl.Outcome = e.Detail
			}
		case StreamRestarted:
			// New incarnation: seq numbering restarts at 1, so the old
			// seq->call map must not capture the new incarnation's sends.
			delete(live, e.Stream)
		}
	}

	// Chain roots carry no root (the zero Cause): each roots its own
	// chain.
	for _, tl := range out {
		if tl.Root == 0 {
			tl.Root = tl.TraceID
		}
	}

	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		af, bf := a.First(), b.First()
		if !af.Equal(bf) {
			return af.Before(bf)
		}
		if a.Stream != b.Stream {
			return a.Stream < b.Stream
		}
		return a.Seq < b.Seq
	})
	return out
}

// TraceGroup is the cross-guardian view of one causal chain: every
// correlated call sharing a root trace ID, ordered parents-first so a
// renderer can indent by Depth and read the chain as a waterfall.
type TraceGroup struct {
	Root  uint64
	Calls []*Timeline
}

// GroupByRoot groups correlated timelines into causal chains and
// computes each call's Depth (hops from the chain root). Within a
// group the order is a depth-first walk — each parent immediately
// followed by its children, siblings by first stamp — so chains that
// fan out across guardians still render as one contiguous waterfall.
// Groups keep the input's order of first appearance. A call whose
// parent was not traced (e.g. the parent ran on a process whose ring
// was not drained) is kept at depth 1 under its root. The input slice
// is not reordered; Depth is set in place.
func GroupByRoot(tls []*Timeline) []*TraceGroup {
	byRoot := make(map[uint64]*TraceGroup)
	children := make(map[uint64][]*Timeline)
	traced := make(map[uint64]*Timeline, len(tls))
	var groups []*TraceGroup
	for _, tl := range tls {
		traced[tl.TraceID] = tl
	}
	for _, tl := range tls {
		g := byRoot[tl.Root]
		if g == nil {
			g = &TraceGroup{Root: tl.Root}
			byRoot[tl.Root] = g
			groups = append(groups, g)
		}
		if tl.Parent != 0 && traced[tl.Parent] != nil && tl.Parent != tl.TraceID {
			children[tl.Parent] = append(children[tl.Parent], tl)
		} else {
			// Chain root, or an orphan whose parent wasn't traced:
			// both anchor directly under the group.
			children[tl.Root] = append(children[tl.Root], tl)
		}
	}
	for _, g := range groups {
		seen := make(map[uint64]bool)
		var walk func(tl *Timeline, depth int)
		walk = func(tl *Timeline, depth int) {
			if seen[tl.TraceID] {
				return // cycle guard: corrupt parent links can't loop us
			}
			seen[tl.TraceID] = true
			tl.Depth = depth
			g.Calls = append(g.Calls, tl)
			for _, c := range children[tl.TraceID] {
				if c != tl {
					walk(c, depth+1)
				}
			}
		}
		if root := traced[g.Root]; root != nil {
			walk(root, 0)
		}
		// Anchored orphans (parent untraced, or the root itself was
		// never traced): attach at depth >= 1, input order.
		for _, c := range children[g.Root] {
			if !seen[c.TraceID] {
				walk(c, 1)
			}
		}
	}
	return groups
}

// batchCount parses a BatchSent detail ("n=12", "n=3 aged",
// "n=5 retransmit") into the number of calls the batch carried.
// Ack-only ("ack") and probe ("probe") batches return ok=false.
func batchCount(detail string) (n uint64, ok bool) {
	if !strings.HasPrefix(detail, "n=") {
		return 0, false
	}
	s := detail[2:]
	if i := strings.IndexByte(s, ' '); i >= 0 {
		s = s[:i]
	}
	for _, c := range s {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + uint64(c-'0')
	}
	return n, n > 0
}
