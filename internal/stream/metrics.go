package stream

import (
	"promises/internal/metrics"
)

// streamMetrics bundles every metric handle the stream layer updates,
// resolved once per peer at construction (the registry lookup takes a
// lock; updates never do). A nil *streamMetrics means metrics are
// disabled — update sites guard with one nil check, mirroring how
// tracing guards with Peer.tracing().
//
// Naming follows the scheme in DESIGN.md "Observability":
// <layer>_<noun>_<unit>, counters suffixed _total, histograms named by
// what one observation measures.
type streamMetrics struct {
	// Sender side.
	callsEnqueued *metrics.Counter   // stream calls accepted into buffers
	batchesSent   *metrics.Counter   // request batches transmitted (incl. acks/probes)
	batchCalls    *metrics.Histogram // calls carried per request batch
	batchBytes    *metrics.Histogram // encoded request-batch size
	windowCalls   *metrics.Histogram // unresolved calls outstanding, sampled per flush
	retransmits   *metrics.Counter   // request batches re-sent (timeout, hole report, partial ack)
	holeResends   *metrics.Counter   // request or reply batches re-sent on a hole report
	probes        *metrics.Counter   // empty liveness probes sent
	acks          *metrics.Counter   // pure reply-acks sent
	rtoFires      *metrics.Counter   // sender RTO expiries (retransmit or probe)
	breaks        *metrics.Counter   // streams broken
	restarts      *metrics.Counter   // stream reincarnations
	claims        *metrics.Counter   // promise claims (Wait/Get)
	claimsBlocked *metrics.Counter   // claims that had to wait for the outcome
	claimWait     *metrics.Histogram // ns blocked per claim that had to wait
	flowBlocked   *metrics.Counter   // enqueues that blocked on receiver credit
	flowWait      *metrics.Histogram // ns blocked per credit-blocked enqueue

	// Per-stage latency histograms, the tail-accounting substrate: each
	// observation is one call's (or batch's) dwell time in one stage of
	// the lifecycle, all measured against a single process's clock so no
	// cross-process clock sync is assumed. Quantiles (p50/p99/p999) are
	// derived from the buckets at read time (metrics.HistogramValue.
	// Quantile) by /metrics and streamscope.
	stageBatchWait *metrics.Histogram // ns from first buffered call to batch transmit
	stageResolve   *metrics.Histogram // ns from enqueue to promise resolution (sender RTT)
	stageExec      *metrics.Histogram // ns a handler ran at the receiver
	stageReplyWait *metrics.Histogram // ns from oldest unsent reply to reply-batch transmit

	// Receiver side.
	callsExecuted   *metrics.Counter   // handler executions completed
	duplicateReqs   *metrics.Counter   // duplicate requests received (loss evidence)
	replies         *metrics.Counter   // replies entered into the retained buffer
	replyBatches    *metrics.Counter   // reply batches transmitted
	replyBatchBytes *metrics.Histogram // encoded reply-batch size
	replyResends    *metrics.Counter   // reply batches re-sent (timeout, hole report, a duplicate request's hole)
	recvRTOFires    *metrics.Counter   // receiver ack-progress stalls past RTO

	// Pipelining (epoch scheduler).
	epochs       *metrics.Counter   // scheduler waves admitted
	epochWave    *metrics.Histogram // continuations admitted per wave
	pipeStages   *metrics.Counter   // continuation stages forwarded to a next guardian
	pipeForwards *metrics.Counter   // chain resolutions sent to (or retained at) the origin guardian

	// reg backs the one series registered lazily (see noteRejected).
	reg *metrics.Registry
}

// noteRejected counts a datagram no decoder accepts: garbled, or in a
// layout this package does not write. That is rare and off every call
// path, so the counter is looked up each time — allocation-free once it
// exists — and registered by the first one: a peer that never rejects
// anything exports no such series.
func (sm *streamMetrics) noteRejected() {
	if sm != nil {
		sm.reg.Counter("stream_datagrams_rejected_total").Inc()
	}
}

var (
	// sizeBuckets covers encoded batch sizes: 64 B .. 1 MiB by powers of 4.
	sizeBuckets = metrics.PowersOf(4, 64, 8)
	// countBuckets covers per-batch call counts and window occupancy:
	// 1 .. 4096 by powers of 4.
	countBuckets = metrics.PowersOf(4, 1, 7)
	// latencyBuckets covers waits in nanoseconds: 1µs .. ~17s by powers
	// of 4.
	latencyBuckets = metrics.PowersOf(4, 1000, 13)
)

// newStreamMetrics resolves the stream layer's handles from reg, or
// returns nil (metrics disabled) when reg is nil.
func newStreamMetrics(reg *metrics.Registry) *streamMetrics {
	if reg == nil {
		return nil
	}
	return &streamMetrics{
		callsEnqueued: reg.Counter("stream_calls_enqueued_total"),
		batchesSent:   reg.Counter("stream_batches_sent_total"),
		batchCalls:    reg.Histogram("stream_batch_calls", countBuckets),
		batchBytes:    reg.Histogram("stream_batch_bytes", sizeBuckets),
		windowCalls:   reg.Histogram("stream_window_calls", countBuckets),
		retransmits:   reg.Counter("stream_retransmits_total"),
		holeResends:   reg.Counter("stream_hole_resends_total"),
		probes:        reg.Counter("stream_probes_total"),
		acks:          reg.Counter("stream_acks_total"),
		rtoFires:      reg.Counter("stream_rto_fires_total"),
		breaks:        reg.Counter("stream_breaks_total"),
		restarts:      reg.Counter("stream_restarts_total"),
		claims:        reg.Counter("stream_claims_total"),
		claimsBlocked: reg.Counter("stream_claims_blocked_total"),
		claimWait:     reg.Histogram("stream_claim_wait_ns", latencyBuckets),
		flowBlocked:   reg.Counter("stream_flow_blocked_total"),
		flowWait:      reg.Histogram("stream_flow_wait_ns", latencyBuckets),

		stageBatchWait: reg.Histogram("stream_stage_batch_wait_ns", latencyBuckets),
		stageResolve:   reg.Histogram("stream_stage_resolve_ns", latencyBuckets),
		stageExec:      reg.Histogram("stream_stage_exec_ns", latencyBuckets),
		stageReplyWait: reg.Histogram("stream_stage_reply_wait_ns", latencyBuckets),

		callsExecuted:   reg.Counter("stream_calls_executed_total"),
		duplicateReqs:   reg.Counter("stream_duplicate_requests_total"),
		replies:         reg.Counter("stream_replies_total"),
		replyBatches:    reg.Counter("stream_reply_batches_sent_total"),
		replyBatchBytes: reg.Histogram("stream_reply_batch_bytes", sizeBuckets),
		replyResends:    reg.Counter("stream_reply_retransmits_total"),
		recvRTOFires:    reg.Counter("stream_recv_rto_fires_total"),

		epochs:       reg.Counter("stream_epochs_total"),
		epochWave:    reg.Histogram("stream_epoch_wave_conts", countBuckets),
		pipeStages:   reg.Counter("stream_pipe_stages_total"),
		pipeForwards: reg.Counter("stream_pipe_forwards_total"),

		reg: reg,
	}
}
