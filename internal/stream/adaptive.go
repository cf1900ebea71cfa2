package stream

import (
	"time"

	"promises/internal/transport"
)

// The adaptive batch controller. The paper fixes the buffering tradeoff
// ("several calls in one message") at a constant, but the optimum moves
// with payload size and load, so with Options.AdaptiveBatch the sender
// tunes the limit online instead. Two mechanisms compose:
//
//   - A byte budget closes a batch once its encoded size reaches
//     MaxBatchBytes, seeded from the network cost model: past the point
//     where the per-message kernel overhead is a small fraction of the
//     transmission cost, growing the batch buys nothing and only adds
//     latency. The same budget closes reply batches at the receiver.
//   - A hill-climbing controller adjusts the call-count limit between
//     batches: each epoch (a fixed number of resolutions) measures
//     goodput. While every epoch improves on the last, the controller is
//     in a slow-start phase and doubles the limit; the first epoch that
//     fails to improve ends slow start, and from then on improvements
//     probe upward one proportional step at a time. Two consecutive
//     regressions undo one probe step, and retransmission evidence
//     during the epoch cuts the limit multiplicatively instead (the AIMD
//     element — loss or overload means back off, not probe). Because a
//     flat goodput response says nothing about the next limit up, two
//     consecutive dead-zone epochs trigger a probe anyway — without this
//     restlessness a steady workload would pin the limit wherever the
//     ramp happened to leave it. Age-timer flushes feed back immediately:
//     a batch the delay timer closed at well under the limit proves the
//     arrival process cannot fill the limit within one delay, so the
//     limit clamps to twice the realized size rather than letting every
//     batch eat the full delay. The asymmetries are deliberate
//     noise-proofing: a single bad epoch on a real clock is usually
//     measurement jitter, so only a sustained regression steps down, and
//     the down step is the multiplicative inverse of the up step (×4/5
//     after ×5/4) so that noise-driven up/down pairs return to the
//     starting limit instead of ratcheting it. Epochs where the sender
//     spent time blocked on receiver credit never step upward: the
//     receiver, not the batch size, is the bottleneck there. (Blocking
//     on the local MaxInFlight window does not count — that only means
//     the caller is fast, which is exactly when larger batches pay off.)
//
// Everything the controller reads — the peer clock, resolution counts,
// retransmit flags — is deterministic under the virtual clock, so seeded
// simtest runs with adaptation enabled stay digest-stable.

const (
	// adaptEpochResolutions is the epoch length: the controller
	// re-evaluates the limit after this many resolved calls.
	adaptEpochResolutions = 64
	// adaptMinLimit / adaptMaxLimit clamp the adapted call-count limit.
	adaptMinLimit = 1
	adaptMaxLimit = 1024
	// adaptDeadZone is the relative goodput change treated as noise: the
	// limit holds unless an epoch moves goodput by more than this.
	adaptDeadZone = 0.02
	// reqOverheadBytes approximates the wire framing per buffered request
	// (seq, mode, trace ID, list headers) for byte-budget accounting.
	reqOverheadBytes = 16
	// defaultByteBudgetMultiple sizes the derived byte budget: the batch
	// may grow until one kernel call costs 1/multiple of the bytes' own
	// transmission time, past which amortization has flattened out.
	defaultByteBudgetMultiple = 16
	// minDerivedBudget / maxDerivedBudget clamp the derived byte budget.
	minDerivedBudget = 1 << 10
	maxDerivedBudget = 256 << 10
	// idleFlushKernelMultiple sizes the quiescence-flush delay as a
	// multiple of the per-message kernel overhead: once arrivals pause
	// longer than the overhead a flush would amortize, holding the batch
	// open costs more than it can save.
	idleFlushKernelMultiple = 1
	// defaultIdleFlush is the quiescence delay when the cost model has no
	// kernel overhead to derive from; minIdleFlush is the floor.
	defaultIdleFlush = 50 * time.Microsecond
	minIdleFlush     = 10 * time.Microsecond
)

// adaptiveState is the per-stream controller state, embedded in Stream
// and guarded by Stream.mu. The zero value is a disabled controller.
type adaptiveState struct {
	enabled   bool
	limit     int  // current call-count closure limit
	slowStart bool // doubling phase: ends at the first non-improving epoch

	epochStart    time.Time
	epochResolved int
	epochRetrans  bool // a retransmission fired during this epoch
	epochBlocked  bool // an enqueue blocked on receiver credit this epoch
	regressEpochs int  // consecutive goodput-regression epochs
	holdEpochs    int  // consecutive dead-zone epochs
	lastRate      float64
}

// initAdaptive seeds the controller from the options; start is the
// stream's birth (or reincarnation) instant.
func (a *adaptiveState) initAdaptive(opts Options, start time.Time) {
	a.enabled = opts.AdaptiveBatch
	if !a.enabled {
		return
	}
	a.limit = opts.MaxBatch
	if a.limit < adaptMinLimit {
		a.limit = adaptMinLimit
	}
	if a.limit > adaptMaxLimit {
		a.limit = adaptMaxLimit
	}
	a.slowStart = true
	a.epochStart = start
	a.epochResolved = 0
	a.epochRetrans = false
	a.epochBlocked = false
	a.regressEpochs = 0
	a.holdEpochs = 0
	a.lastRate = 0
}

// batchLimitLocked is the effective call-count closure limit. Caller
// holds s.mu.
func (s *Stream) batchLimitLocked() int {
	if s.adapt.enabled {
		return s.adapt.limit
	}
	return s.opts.MaxBatch
}

// adaptMaybeAdjustLocked runs the controller at epoch boundaries; now is
// the peer clock reading the caller already took. Caller holds s.mu.
func (s *Stream) adaptMaybeAdjustLocked(now time.Time) {
	a := &s.adapt
	if !a.enabled || a.epochResolved < adaptEpochResolutions {
		return
	}
	elapsed := now.Sub(a.epochStart)
	if elapsed <= 0 {
		// All resolutions landed in one instant (possible under a virtual
		// clock with zero-cost links): no rate to measure, restart.
		a.epochResolved = 0
		a.epochStart = now
		return
	}
	rate := float64(a.epochResolved) / elapsed.Seconds()
	sm := s.peer.sm
	switch {
	case a.epochRetrans:
		// Loss or overload evidence: multiplicative decrease, then probe
		// upward again once conditions recover.
		a.limit /= 2
		a.slowStart = false
		a.regressEpochs = 0
		a.holdEpochs = 0
		if sm != nil {
			sm.adaptCuts.Inc()
		}
	case a.lastRate == 0:
		// First measured epoch: baseline only, no step.
	case rate >= a.lastRate*(1+adaptDeadZone):
		// Goodput is improving: probe a larger batch — doubling while
		// slow start lasts, one proportional step after — unless the
		// epoch was credit-blocked, in which case the receiver is the
		// bottleneck and larger batches cannot help.
		a.regressEpochs = 0
		a.holdEpochs = 0
		if !a.epochBlocked {
			if a.slowStart {
				a.limit *= 2
			} else {
				a.limit += adaptStepUp(a.limit)
			}
			if sm != nil {
				sm.adaptRaises.Inc()
			}
		}
	case rate <= a.lastRate*(1-adaptDeadZone):
		// Goodput regressed. One bad epoch is usually clock or scheduler
		// jitter, so only the second consecutive regression steps down —
		// genuine overshoot keeps regressing, noise recovers.
		a.slowStart = false
		a.holdEpochs = 0
		a.regressEpochs++
		if a.regressEpochs >= 2 {
			a.limit -= adaptStepDown(a.limit)
			a.regressEpochs = 0
			if sm != nil {
				sm.adaptCuts.Inc()
			}
		}
	default:
		// Within the dead zone. A flat response says nothing about the
		// next limit up, so after two flat epochs probe upward anyway —
		// otherwise a steady workload pins the limit wherever the ramp
		// left it.
		a.slowStart = false
		a.regressEpochs = 0
		a.holdEpochs++
		if a.holdEpochs >= 2 && !a.epochBlocked {
			a.limit += adaptStepUp(a.limit)
			a.holdEpochs = 0
			if sm != nil {
				sm.adaptRaises.Inc()
			}
		}
	}
	if a.limit < adaptMinLimit {
		a.limit = adaptMinLimit
	}
	if a.limit > adaptMaxLimit {
		a.limit = adaptMaxLimit
	}
	a.lastRate = rate
	a.epochStart = now
	a.epochResolved = 0
	a.epochRetrans = false
	a.epochBlocked = false
	if sm != nil {
		sm.adaptEpochs.Inc()
		sm.adaptLimit.Set(int64(a.limit))
	}
}

// adaptNoteTimerFlushLocked records that a timer — the quiescence pause
// or the MaxBatchDelay bound, not the count or byte budget — closed a
// batch of n calls. That means the arrival process could not fill the
// limit before pausing, so probing higher only converts count closure
// into timer closure and adds the pause to every batch. The limit clamps
// to the realized size: count closure fires pause-free at the next burst
// of the same size, and the epoch probes (with slow start restored, since
// the clamp is a fresh measurement of what the workload delivers) supply
// the upward pressure. Explicit Flush/Synch/RPC flushes are deliberate
// and carry no such evidence. Caller holds s.mu.
func (s *Stream) adaptNoteTimerFlushLocked(n int) {
	a := &s.adapt
	if !a.enabled || n <= 0 || n >= a.limit {
		return
	}
	a.limit = n
	if a.limit < adaptMinLimit {
		a.limit = adaptMinLimit
	}
	a.slowStart = true
	a.holdEpochs = 0
	if sm := s.peer.sm; sm != nil {
		sm.adaptCuts.Inc()
		sm.adaptLimit.Set(int64(a.limit))
	}
}

// adaptStepUp and adaptStepDown are the probe step sizes: up a quarter of
// the current limit, down a fifth, each at least 1. The pair are
// multiplicative inverses (×5/4 then ×4/5), so an up probe undone by a
// regression returns exactly to the starting limit — noise cannot ratchet
// the limit in either direction — while staying proportional near large
// optima and fine-grained near small ones.
func adaptStepUp(limit int) int {
	if s := limit / 4; s > 1 {
		return s
	}
	return 1
}

func adaptStepDown(limit int) int {
	if s := limit / 5; s > 1 {
		return s
	}
	return 1
}

// resolveBatchBytes fills in Options.MaxBatchBytes from the network cost
// model when the caller left it 0 and enabled adaptation: the budget is
// the byte count whose transmission time is defaultByteBudgetMultiple
// kernel overheads, clamped. A cost-free model (tests, simtest) falls
// back to the max clamp, which never binds for realistic batches. The
// sentinel results: >0 budget in force, <0 disabled.
func resolveBatchBytes(opts Options, cfg transport.CostModel) int {
	if opts.MaxBatchBytes != 0 {
		return opts.MaxBatchBytes
	}
	if !opts.AdaptiveBatch {
		return -1 // legacy behavior: count and age close batches, bytes never do
	}
	if cfg.KernelOverhead <= 0 || cfg.PerByte <= 0 {
		return maxDerivedBudget
	}
	budget := defaultByteBudgetMultiple * int(cfg.KernelOverhead/cfg.PerByte)
	if budget < minDerivedBudget {
		budget = minDerivedBudget
	}
	if budget > maxDerivedBudget {
		budget = maxDerivedBudget
	}
	return budget
}

// resolveIdleFlush derives the adaptive quiescence-flush delay. With
// adaptation on, a partial batch goes out once arrivals pause this long:
// MaxBatchDelay still bounds the worst case, but a batch never waits many
// kernel overheads for stragglers that are not coming — which is what
// makes controller overshoot cheap (an unfillable limit costs one short
// pause per batch, not the full delay). 0 disables the mechanism, which
// keeps the legacy fixed-batch timing exactly.
func resolveIdleFlush(opts Options, cfg transport.CostModel) time.Duration {
	if !opts.AdaptiveBatch {
		return 0
	}
	d := idleFlushKernelMultiple * cfg.KernelOverhead
	if d <= 0 {
		d = defaultIdleFlush
	}
	if d < minIdleFlush {
		d = minIdleFlush
	}
	if d > opts.MaxBatchDelay {
		d = opts.MaxBatchDelay
	}
	return d
}

// reqWireSize approximates one buffered request's contribution to the
// encoded batch size, for byte-budget closure.
func reqWireSize(port string, args []byte) int {
	return len(port) + len(args) + reqOverheadBytes
}
