package trace

import "fmt"

// Cause is the propagated causal context of one call: the root trace ID
// of the chain it belongs to and the trace ID of the call that caused
// it. The zero Cause means "no upstream cause" — such a call roots a
// new chain and its own trace ID becomes the Root its descendants
// carry. Both values ride the request batch, in its list of (root,
// parent) pairs.
type Cause struct {
	Root   uint64 // root trace ID of the causal chain; 0 = none
	Parent uint64 // trace ID of the immediate causing call; 0 = none
}

// ChildOf returns the cause that calls issued *from* the call with
// trace ID tid should carry: the same chain root (or tid itself when
// the call roots the chain) with tid as the parent.
func ChildOf(c Cause, tid uint64) Cause {
	root := c.Root
	if root == 0 {
		root = tid
	}
	return Cause{Root: root, Parent: tid}
}

// RootCause mints the causal context for a new top-level activity: a
// deterministic root ID derived from the activity's name and a
// per-activity run number. Every call the activity issues (and every
// downstream call those cause) groups under this one root in the
// cross-guardian waterfall. Deterministic so seeded runs produce
// byte-identical traces.
func RootCause(activity string, run uint64) Cause {
	id := CallID(HashStream(activity), 0, run)
	return Cause{Root: id, Parent: id}
}

// batchDetails precomputes the canonical "n=<count>" detail strings so
// batch-scoped events can be emitted without allocating while a tracer
// is installed — the flight recorder is always on in live deployments,
// and the stream hot path must stay 0 allocs/op with it enabled.
var batchDetails = func() [257]string {
	var a [257]string
	for i := range a {
		a[i] = fmt.Sprintf("n=%d", i)
	}
	return a
}()

// BatchDetail returns the "n=<count>" detail string for a batch-scoped
// event. Allocation-free for batch sizes up to 256, sixteen times the
// stream layer's default batch size; a bigger batch formats its string.
func BatchDetail(n int) string {
	if n >= 0 && n < len(batchDetails) {
		return batchDetails[n]
	}
	return fmt.Sprintf("n=%d", n)
}

// RetransmitDetail returns the "n=<count> retransmit" detail string for a
// request or reply batch sent again: the flight recorder takes it for
// anomaly evidence, and the timeline reads the count before the space.
func RetransmitDetail(n int) string { return fmt.Sprintf("n=%d"+retransmitSuffix, n) }

// HoleDetail returns the "n=<count> hole" detail string for a request or
// reply batch re-sent because the other end reported the hole it fills.
func HoleDetail(n int) string { return fmt.Sprintf("n=%d"+holeSuffix, n) }

// PartialDetail returns the "n=<count> partial" detail string for a
// request batch re-sent because, after a timeout, an ack stopped short of
// what had been sent before the timeout's re-send.
func PartialDetail(n int) string { return fmt.Sprintf("n=%d"+partialSuffix, n) }

const (
	retransmitSuffix = " retransmit"
	holeSuffix       = " hole"
	partialSuffix    = " partial"
)
