package main

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"promises/internal/metrics"
)

// plan is the shape of one run. Every workload runs the same plan; a
// tighter time cap shrinks it for all of them alike.
type plan struct {
	seed      int64
	setupReps int           // worlds built and torn down for setup_s
	warm      time.Duration // discarded, before the measured slices
	slice     time.Duration // one untraced slice
	slices    int           // untraced slices; a rate or latency is the best decile over them
	refSlices int           // traced run: untraced reference slices, for the overhead
	refSlice  time.Duration
	traced    time.Duration // traced run: the traced slice
	rung      time.Duration // traced run: one ladder rung
	control   time.Duration // traced run: chain_k4's caller-mediated control
}

// planFor spends seconds of measurement on each pass: the untraced pass in
// quarter-second slices, the traced pass as 20% reference, 30% traced, 10%
// per ladder rung and 10% control. The slices are short and many because
// the machines this runs on lose a varying share of their CPU to their
// neighbours from one half second to the next, and bestDecile needs enough
// slices for a tenth of them to be more than one or two.
func planFor(seed int64, seconds int) plan {
	s := time.Duration(seconds) * time.Second
	return plan{
		seed: seed, setupReps: 41, warm: time.Second,
		slice: time.Second / 4, slices: 4 * seconds,
		refSlices: 4, refSlice: s / 20,
		traced: 3 * s / 10, rung: s / 10, control: s / 10,
	}
}

// result is one pass of one workload.
type result struct {
	Workload  string               `json:"workload"`
	Traced    bool                 `json:"traced"`
	Attempted uint64               `json:"attempted"`
	Failed    uint64               `json:"failed"`
	Samples   uint64               `json:"latency_samples"` // per slice, median
	Metrics   map[string]float64   `json:"metrics"`
	Slices    map[string][]float64 `json:"slices,omitempty"` // raw per-slice values behind each reported one
}

// session is a world with its lanes, kept for the length of a pass.
type session struct {
	w     *world
	lanes []*lane
	rng   *rand.Rand // the open loop's schedule generator
}

// open builds the world and resolves one op on it, which is what setup_s
// times: listen, dial, hello, guardians, handlers, first round trip.
func open(sp spec, pl plan, obs *observer, slots int) (*session, error) {
	w, err := buildWorld(sp, pl.seed, obs)
	if err != nil {
		return nil, err
	}
	s := &session{w: w, lanes: newLanes(w, pl.seed, slots), rng: rand.New(rand.NewSource(pl.seed))}
	// The first op is one stream call, flushed and claimed, on every
	// workload: worlds of the same shape then have the same set-up time.
	l := s.lanes[0]
	l.round(1)
	if l.failed != 0 {
		w.close()
		return nil, fmt.Errorf("%s: the first op failed", sp.name)
	}
	return s, nil
}

// finish closes the world and returns what the server side of the
// correctness gate saw go wrong: handler executions that do not match the
// ops issued (exactly once, or once per chain stage), echo calls out of
// order, and frames the transport dropped although no workload should
// make it. stream_lossy drops by design; its losses are not failures.
func (s *session) finish() uint64 {
	var issued uint64
	for _, l := range s.lanes {
		issued += l.next
	}
	per := uint64(1)
	if s.w.sp.stages > 0 {
		per = uint64(s.w.sp.stages)
	}
	bad := s.w.misordered.Load()
	if got, want := s.w.executed.Load(), issued*per; got > want {
		bad += got - want
	} else {
		bad += want - got
	}
	if !s.w.sp.lossy {
		bad += uint64(s.w.links.stats().dropped)
	}
	s.w.close()
	return bad
}

// runUntraced is the pass the end-to-end metrics come from: set-up timed
// setupReps times, a warm-up, then the measured slices with nothing of the
// benchmark's in the transport or the handlers' way.
func runUntraced(sp spec, pl plan) (*result, error) {
	slots := slotsFor(sp, max(pl.warm, pl.slice))
	var s *session
	setups := make([]float64, 0, pl.setupReps)
	res := &result{Workload: sp.name, Metrics: map[string]float64{}, Slices: map[string][]float64{}}
	for i := 0; i < pl.setupReps; i++ {
		if s != nil {
			res.Failed += s.finish()
		}
		start := time.Now()
		var err error
		if s, err = open(sp, pl, nil, slots); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	step := workloadStep(sp)
	s.run(pl.warm, step)

	var samples []float64
	for i := 0; i < pl.slices; i++ {
		r := s.run(pl.slice, step)
		res.Attempted += r.ops
		res.Failed += r.failed
		samples = append(samples, float64(len(r.lat)))
		for name, v := range r.endToEnd(sp) {
			res.Slices[name] = append(res.Slices[name], v)
		}
	}
	res.Failed += s.finish()
	for _, d := range endToEnd {
		if vals, ok := res.Slices[d.name]; ok {
			res.Metrics[d.name] = bestDecile(vals, d.better)
		}
	}
	res.Samples = uint64(median(samples))
	res.Slices["setup_s"] = setups
	res.Metrics["setup_s"] = median(setups)
	res.Metrics["peak_rss_mb"] = peakRSSMB()
	return res, nil
}

// endToEnd is one slice's value of every end-to-end metric that is
// measured per slice.
func (r sliceResult) endToEnd(sp spec) map[string]float64 {
	ops, secs := float64(r.ops), r.elapsed.Seconds()
	return map[string]float64{
		"ops_per_s":         ops / secs,
		"lat_p50_us":        quantile(r.lat, 0.50) / 1e3,
		"lat_p99_us":        quantile(r.lat, 0.99) / 1e3,
		"goodput_mb_s":      ops * float64(sp.payloadBytes()) / secs / 1e6,
		"cpu_us_per_op":     float64(r.cpu.Microseconds()) / ops,
		"wire_bytes_per_op": float64(r.net.bytes) / ops,
		"allocs_per_op":     float64(r.mallocs) / ops,
	}
}

// runTraced is the pass the per-layer metrics come from: a short untraced
// reference (so the tracing overhead is known), the traced slice, the
// layer ladder, and for chain_k4 the caller-mediated control.
func runTraced(sp spec, pl plan, spansPath string) (*result, error) {
	res := &result{Workload: sp.name, Traced: true, Metrics: map[string]float64{}}
	m := res.Metrics
	step := workloadStep(sp)

	// Reference: the workload as the untraced pass runs it.
	ref, err := open(sp, pl, nil, slotsFor(sp, max(pl.warm, pl.refSlice)))
	if err != nil {
		return nil, err
	}
	ref.run(pl.warm, step)
	var refRates []float64
	var refLat []int64
	for i := 0; i < pl.refSlices; i++ {
		r := ref.run(pl.refSlice, step)
		res.Attempted += r.ops
		res.Failed += r.failed
		refRates = append(refRates, float64(r.ops)/r.elapsed.Seconds())
		refLat = append(refLat, r.lat...)
	}
	slices.Sort(refLat)
	refRate := median(refRates)
	m["driver.lat_p999_us"] = quantile(refLat, 0.999) / 1e3
	m["driver.slice_spread_pct"] = 100 * iqrShare(refRates)
	m["driver.chain_caller_ratio"] = 0
	if sp.stages > 0 {
		ref.run(pl.control/4, func(l *lane) { l.callerRound(sp.window) })
		r := ref.run(pl.control, func(l *lane) { l.callerRound(sp.window) })
		res.Attempted += r.ops
		res.Failed += r.failed
		m["driver.chain_caller_ratio"] = refRate / (float64(r.ops) / r.elapsed.Seconds())
	}
	res.Failed += ref.finish()

	// Traced: the same loop with the registry, the taps and the spans on.
	obs := newObserver(sp.drivers)
	tr, err := open(sp, pl, obs, slotsFor(sp, max(pl.warm/2, pl.traced)))
	if err != nil {
		return nil, err
	}
	tr.run(pl.warm/2, step)
	before := obs.reg.Snapshot()
	obs.tap.reset()
	obs.execNs.Store(0)
	obs.execs.Store(0)
	r := tr.run(pl.traced, step)
	reg := obs.reg.Snapshot().Delta(before)
	res.Attempted += r.ops
	res.Failed += r.failed
	tracedRate := float64(r.ops) / r.elapsed.Seconds()
	m["driver.trace_overhead_pct"] = 100 * (1 - tracedRate/refRate)
	m["driver.gen_late_share"] = 0
	if sp.mode == openLoop {
		m["driver.gen_late_share"] = mean(sum(r.late), sum(r.lat))
	}
	layerMetrics(m, sp, r, reg, obs, len(tr.w.links.eps))
	res.Failed += tr.finish()
	if spansPath != "" {
		if err := obs.writeSpans(spansPath); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
	}

	if err := ladder(m, sp, pl, bestDecile(refRates, "higher")); err != nil {
		return nil, err
	}
	m["driver.fail_ratio"] = mean(float64(res.Failed), float64(res.Attempted))
	return res, nil
}

func sum(v []int64) float64 {
	var s float64
	for _, x := range v {
		s += float64(x)
	}
	return s
}

// layerMetrics derives the per-layer metrics of the traced slice r from
// the three outside sources: the registry the program exports (reg, the
// slice's delta), the transports' own counters, and the benchmark's taps
// and spans.
func layerMetrics(m map[string]float64, sp spec, r sliceResult, reg *metrics.Snapshot, obs *observer, endpoints int) {
	ops := float64(r.ops)
	kops := ops / 1e3
	ctr := func(name string) float64 { return float64(reg.Counters[name]) }
	hist := func(name string) metrics.HistogramValue { return reg.Histograms[name] }
	hmean := func(name string) float64 { h := hist(name); return mean(float64(h.Sum), float64(h.Count)) }
	us := func(name string, q float64) float64 { return hist(name).Quantile(q) / 1e3 }
	spanUs := func(v []int64) (p50, p99 float64) {
		slices.Sort(v)
		return quantile(v, 0.50) / 1e3, quantile(v, 0.99) / 1e3
	}

	// transport: the taps, and the counters both transports keep.
	t := obs.tap
	m["transport.send_ns"] = mean(float64(t.sendNs.Load()), float64(t.sends.Load()))
	t.mu.Lock()
	m["transport.transit_p50_us"], m["transport.transit_p99_us"] = spanUs(t.transit)
	t.mu.Unlock()
	m["transport.recv_blocked_ratio"] = float64(t.recvWaitNs.Load()) / (float64(r.elapsed) * float64(endpoints))
	m["transport.frames_per_op"] = float64(r.net.frames) / ops
	m["transport.bytes_per_op"] = float64(r.net.bytes) / ops
	m["tcpnet.frames_per_writev"] = mean(float64(r.net.frames), float64(r.net.writevs))
	m["tcpnet.frames_dropped"] = 0
	m["tcpnet.dials"] = float64(r.net.dials)
	m["simnet.dropped_ratio"] = 0
	m["simnet.duplicated_ratio"] = 0
	if sp.net == tcpNet {
		m["tcpnet.frames_dropped"] = float64(r.net.dropped)
	} else {
		m["tcpnet.frames_per_writev"] = 0
		m["simnet.dropped_ratio"] = mean(float64(r.net.dropped), float64(r.net.frames))
		m["simnet.duplicated_ratio"] = mean(float64(r.net.duplicated), float64(r.net.frames))
	}

	// stream: the registry's counters and stage histograms, and the spans.
	m["stream.calls_per_batch"] = hmean("stream_batch_calls")
	m["stream.batch_bytes_mean"] = hmean("stream_batch_bytes")
	m["stream.batch_wait_p50_us"] = us("stream_stage_batch_wait_ns", 0.50)
	m["stream.batch_wait_p99_us"] = us("stream_stage_batch_wait_ns", 0.99)
	m["stream.reply_wait_p50_us"] = us("stream_stage_reply_wait_ns", 0.50)
	m["stream.reply_wait_p99_us"] = us("stream_stage_reply_wait_ns", 0.99)
	m["stream.resolve_p50_us"] = us("stream_stage_resolve_ns", 0.50)
	m["stream.resolve_p99_us"] = us("stream_stage_resolve_ns", 0.99)
	m["stream.flow_blocked_ratio"] = mean(ctr("stream_flow_blocked_total"), ctr("stream_calls_enqueued_total"))
	m["stream.retransmits_per_kop"] = ctr("stream_retransmits_total") / kops
	m["stream.dup_requests_per_kop"] = ctr("stream_duplicate_requests_total") / kops
	m["stream.reply_retransmits_per_kop"] = ctr("stream_reply_retransmits_total") / kops
	m["stream.rto_fires_per_kop"] = (ctr("stream_rto_fires_total") + ctr("stream_recv_rto_fires_total")) / kops
	m["stream.breaks"] = ctr("stream_breaks_total")
	m["stream.epoch_wave_mean"] = hmean("stream_epoch_wave_conts")
	m["stream.pipe_stages_per_op"] = ctr("stream_pipe_stages_total") / ops
	m["stream.pipe_forward_retransmits"] = ctr("stream_pipe_forward_retransmits_total")
	m["stream.enq_to_exec_p50_us"], m["stream.enq_to_exec_p99_us"] = spanUs(r.tr.enqToExec)
	m["stream.exec_to_claim_p50_us"], m["stream.exec_to_claim_p99_us"] = spanUs(r.tr.execToClaim)

	// guardian: handler bodies (a control: they should stay tiny) and how
	// often the program says it dispatched one.
	m["guardian.exec_ns"] = mean(float64(obs.execNs.Load()), float64(obs.execs.Load()))
	m["guardian.executed_per_op"] = ctr("guardian_handler_calls_total") / ops

	// promise: the call and claim spans.
	m["promise.call_ns"] = mean(sum(r.tr.callNs), float64(len(r.tr.callNs)))
	m["promise.claim_wait_p50_us"], _ = spanUs(r.tr.claimNs)
	m["promise.claim_blocked_ratio"] = mean(float64(r.tr.blocked), float64(len(r.tr.claimNs)))
}
