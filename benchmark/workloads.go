package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"

	"promises/internal/promise"
	"promises/internal/stream"
	"promises/internal/trace"
)

var bg = context.Background()

// deadline is how long an op may take before it counts as failed.
const deadline = time.Second

// lane is one driver goroutine's side of a world: its agent's stream, its
// window of promise slots, and what it measured in the current slice. Op
// indices count up by one per lane for the life of the world; the echo
// argument carries the index, so the server can check order and the
// driver can check that each result is its own.
type lane struct {
	id     int
	w      *world
	s      *stream.Stream   // to the echo server, or to the first chain stage
	stages []*stream.Stream // chain: to every stage, for the caller-mediated control
	port   string
	next   uint64 // next op index

	pattern []byte // seeded echo payload; the first 8 bytes are overwritten by the op index
	scratch []byte
	bp      []*promise.Promise[[]byte] // slots of a byte-echo workload
	ip      []*promise.Promise[int64]  // slots of an int-echo or chain workload
	issued  []int64                    // per slot: when the op entered (open loop: was due)

	ops, failed uint64
	lat         []int64 // ns per op
	late        []int64 // open loop: ns each op was issued after it was due
	tr          laneTrace
}

// laneTrace is what the spans of one lane's ops add up to in a traced slice.
type laneTrace struct {
	callNs, claimNs        []int64 // inside promise.Call / Claim
	enqToExec, execToClaim []int64 // call return -> handler entry; handler exit -> claim return
	blocked                uint64  // claims that found the promise not ready
}

// newLanes makes the world's driver lanes, each with slots promise slots.
func newLanes(w *world, seed int64, slots int) []*lane {
	sp := w.sp
	rng := rand.New(rand.NewSource(seed))
	lanes := make([]*lane, sp.drivers)
	for d := range lanes {
		agent := w.client.Agent(fmt.Sprintf("d%d", d))
		l := &lane{id: d, w: w, issued: make([]int64, slots)}
		switch {
		case sp.stages > 0:
			l.port = incPort
			for _, r := range w.refs {
				l.stages = append(l.stages, r.Stream(agent))
			}
			l.s = l.stages[0]
			l.ip = make([]*promise.Promise[int64], slots)
		default:
			l.port = w.refs[d].Port
			l.s = w.refs[d].Stream(agent)
			if sp.payload == 0 {
				l.ip = make([]*promise.Promise[int64], slots)
				break
			}
			l.pattern = make([]byte, sp.payload)
			rng.Read(l.pattern)
			l.scratch = append([]byte(nil), l.pattern...)
			l.bp = make([]*promise.Promise[[]byte], slots)
		}
		lanes[d] = l
	}
	return lanes
}

// issue starts op idx and parks its promise in slot. A call that fails
// outright leaves the slot empty, which its claim reports as a failure.
func (l *lane) issue(slot int, idx uint64, c trace.Cause) {
	switch {
	case l.w.sp.stages > 0:
		g := promise.Pipeline(l.s, l.port, int64(idx)).WithCause(c)
		for _, r := range l.w.refs[1:] {
			g.ThenHop(r.Hop())
		}
		l.ip[slot], _ = promise.Start(g, promise.Int)
	case l.ip != nil:
		l.ip[slot], _ = promise.CallCause(l.s, l.port, c, promise.Int, int64(idx))
	default:
		binary.BigEndian.PutUint64(l.scratch, idx)
		l.bp[slot], _ = promise.CallCause(l.s, l.port, c, promise.Bytes, l.scratch)
	}
}

func (l *lane) ready(slot int) bool {
	if l.ip != nil {
		return l.ip[slot] != nil && l.ip[slot].Ready()
	}
	return l.bp[slot] != nil && l.bp[slot].Ready()
}

// claim waits for the slot's promise and reports whether it resolved
// normally with op idx's own result: the echoed argument, or the op index
// plus one per chain stage.
func (l *lane) claim(slot int, idx uint64) bool {
	if l.ip != nil {
		p := l.ip[slot]
		l.ip[slot] = nil
		if p == nil {
			return false
		}
		v, err := p.Claim(bg)
		return err == nil && v == int64(idx)+int64(l.w.sp.stages)
	}
	p := l.bp[slot]
	l.bp[slot] = nil
	if p == nil {
		return false
	}
	v, err := p.Claim(bg)
	return err == nil && l.echoed(v, idx)
}

func (l *lane) echoed(v []byte, idx uint64) bool {
	return len(v) == len(l.pattern) && be64(v) == idx && bytes.Equal(v[8:], l.pattern[8:])
}

func (l *lane) record(lat int64, ok bool) {
	l.ops++
	if !ok || lat > int64(deadline) {
		l.failed++
	}
	l.lat = append(l.lat, lat)
}

// call issues op idx into slot at time t; traced, it also arms the op's
// span (before the handler can run) and stamps the call.
func (l *lane) call(slot int, idx uint64, t int64) {
	o := l.w.obs
	if o == nil {
		l.issue(slot, idx, trace.Cause{})
		return
	}
	sp := l.arm(idx)
	l.issue(slot, idx, o.cause(l.id, idx))
	sp.callStart, sp.callEnd = t, nanos()
}

func (l *lane) arm(idx uint64) *opSpan {
	sp := l.w.obs.span(l.id, idx)
	sp.root = opRoot(l.id, idx)
	sp.hStart.Store(0)
	sp.hEnd.Store(0)
	return sp
}

// fold adds a claimed op's spans to the lane's samples. The handler is
// reached from the call's return, or for an RPC from its entry.
func (l *lane) fold(sp *opSpan, wasReady bool) {
	l.tr.callNs = append(l.tr.callNs, sp.callEnd-sp.callStart)
	l.tr.claimNs = append(l.tr.claimNs, sp.claimEnd-sp.claimStart)
	sent := sp.callEnd
	if l.w.sp.mode == rpcLoop {
		sent = sp.callStart
	}
	if hs, he := sp.hStart.Load(), sp.hEnd.Load(); hs != 0 && he != 0 {
		l.tr.enqToExec = append(l.tr.enqToExec, hs-sent)
		l.tr.execToClaim = append(l.tr.execToClaim, sp.claimEnd-he)
	}
	if !wasReady {
		l.tr.blocked++
	}
}

// round is one closed-loop turn: n calls, a flush, then every claim in
// call order. Before each claim it checks the paper's readiness order: if
// promise i+1 is ready, promise i must be.
func (l *lane) round(n int) {
	o := l.w.obs
	first := l.next
	for i := 0; i < n; i++ {
		l.issued[i] = nanos()
		l.call(i, l.next, l.issued[i])
		l.next++
	}
	t := o.now()
	l.s.Flush()
	o.flushed(t)
	for i := 0; i < n; i++ {
		if i+1 < n && l.ready(i+1) && !l.ready(i) {
			l.failed++
		}
		l.claimSlot(i, first+uint64(i))
	}
}

// claimSlot claims one slot and records the op's latency and spans.
func (l *lane) claimSlot(slot int, idx uint64) {
	o := l.w.obs
	var start int64
	var wasReady bool
	if o != nil {
		wasReady = l.ready(slot)
		start = nanos()
	}
	ok := l.claim(slot, idx)
	end := nanos()
	l.record(end-l.issued[slot], ok)
	if o != nil {
		sp := o.span(l.id, idx)
		sp.claimStart, sp.claimEnd = start, end
		l.fold(sp, wasReady)
	}
}

// rpcOnce is one promise.RPC: the call and its claim are the same span.
func (l *lane) rpcOnce() {
	o := l.w.obs
	idx := l.next
	l.next++
	binary.BigEndian.PutUint64(l.scratch, idx)
	var sp *opSpan
	if o != nil {
		sp = l.arm(idx)
	}
	start := nanos()
	v, err := promise.RPCCause(bg, l.s, l.port, o.cause(l.id, idx), promise.Bytes, l.scratch)
	end := nanos()
	l.record(end-start, err == nil && l.echoed(v, idx))
	if o != nil {
		sp.callStart, sp.callEnd, sp.claimStart, sp.claimEnd = start, end, start, end
		l.fold(sp, false)
	}
}

// callerRound is the chain workload's control: the same n chains in
// flight, but caller-mediated — claim every stage's result, then call the
// next stage with it.
func (l *lane) callerRound(n int) {
	first := l.next
	l.next += uint64(n)
	vals := make([]int64, n)
	for i := range vals {
		l.issued[i] = nanos()
		vals[i] = int64(first) + int64(i)
	}
	ok := make([]bool, n)
	for _, s := range l.stages {
		for i := range vals {
			l.ip[i], _ = promise.Call(s, l.port, promise.Int, vals[i])
		}
		s.Flush()
		for i := range vals {
			ok[i] = false
			if p := l.ip[i]; p != nil {
				var err error
				vals[i], err = p.Claim(bg)
				ok[i] = err == nil
			}
		}
	}
	for i := range vals {
		l.record(nanos()-l.issued[i], ok[i] && vals[i] == int64(first)+int64(i)+int64(len(l.stages)))
	}
}

// burst is one arrival of the open loop: n ops due at the same instant.
type burst struct {
	due int64 // ns after the slice starts
	n   int
}

// schedule draws one slice of the open loop: burst sizes from a Pareto
// distribution (alpha 1.5, capped at the workload's window), gaps from an
// exponential one, scaled so that exactly rate*dur ops fall due within
// dur. The same generator state gives the same schedule.
func schedule(rng *rand.Rand, sp spec, dur time.Duration) []burst {
	total := int(sp.rate * dur.Seconds())
	var out []burst
	var at float64
	for left := total; left > 0; {
		n := int(math.Pow(1-rng.Float64(), -1/1.5))
		if n > sp.window {
			n = sp.window
		}
		if n > left {
			n = left
		}
		at += rng.ExpFloat64()
		out = append(out, burst{due: int64(at * 1e9), n: n}) // rescaled below
		left -= n
	}
	scale := float64(dur) / (at * 1e9) * 0.999
	for i := range out {
		out[i].due = int64(float64(out[i].due) * scale)
	}
	return out
}

// openSlice runs one slice of the open loop: this goroutine issues every
// burst when it falls due, whatever the state of the earlier ones, and a
// second goroutine claims in call order. Latency counts from the due
// time, so a late generator or a backlog shows in it.
func (l *lane) openSlice(sched []burst) {
	// The issuer sleeps in the kernel on a thread of its own: a Go timer
	// that fires in an otherwise idle process is rounded up to a
	// millisecond, which would turn the seeded bursts into one lump per
	// millisecond.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start := nanos()
	first := l.next
	issuedTo := make(chan int, len(sched)) // one send per burst, so the issuer never blocks on the claimer
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		from := 0
		for to := range issuedTo {
			for ; from < to; from++ {
				l.claimSlot(from, first+uint64(from))
			}
		}
	}()
	slot := 0
	for _, b := range sched {
		due := start + b.due
		if d := due - nanos(); d > 0 {
			sleepFor(d)
		}
		for i := 0; i < b.n; i++ {
			t := nanos()
			l.issued[slot] = due
			l.late = append(l.late, t-due)
			l.call(slot, l.next, t)
			l.next++
			slot++
		}
		issuedTo <- slot
	}
	close(issuedTo)
	wg.Wait()
}

// sleepFor blocks the calling thread for d nanoseconds.
func sleepFor(d int64) {
	ts := syscall.NsecToTimespec(d)
	_ = syscall.Nanosleep(&ts, nil) // cut short by a signal, the op is issued early by less than it would be late
}

// sliceResult is what one timed slice measured, over all lanes.
type sliceResult struct {
	ops, failed uint64
	elapsed     time.Duration
	cpu         time.Duration
	mallocs     uint64
	net         netStats
	lat         []int64 // ascending
	late        []int64
	tr          laneTrace
}

// slotsFor is the number of promise slots a lane needs for slices of dur.
func slotsFor(sp spec, dur time.Duration) int {
	if sp.mode == openLoop {
		return int(sp.rate*dur.Seconds()) + 1
	}
	return sp.window
}

// run drives the session's world for dur and measures it. step is what a
// closed-loop lane repeats until the time is up; the open loop follows its
// schedule instead, drawn from the session's generator before the clock
// starts.
func (s *session) run(dur time.Duration, step func(*lane)) sliceResult {
	w, lanes := s.w, s.lanes
	var sched []burst
	if w.sp.mode == openLoop {
		sched = schedule(s.rng, w.sp, dur)
	}
	for _, l := range lanes {
		l.ops, l.failed, l.lat, l.late, l.tr = 0, 0, l.lat[:0], l.late[:0], laneTrace{}
	}
	runtime.GC()
	mallocs, cpu, net := mallocCount(), cpuTime(), w.links.stats()
	start := nanos()
	if w.sp.mode == openLoop {
		lanes[0].openSlice(sched)
	} else {
		var wg sync.WaitGroup
		for _, l := range lanes {
			wg.Add(1)
			go func(l *lane) {
				defer wg.Done()
				for nanos()-start < int64(dur) {
					step(l)
				}
			}(l)
		}
		wg.Wait()
	}
	r := sliceResult{
		elapsed: time.Duration(nanos() - start),
		cpu:     cpuTime() - cpu,
		mallocs: mallocCount() - mallocs,
		net:     w.links.stats().sub(net),
	}
	for _, l := range lanes {
		r.ops += l.ops
		r.failed += l.failed
		r.lat = append(r.lat, l.lat...)
		r.late = append(r.late, l.late...)
		r.tr.callNs = append(r.tr.callNs, l.tr.callNs...)
		r.tr.claimNs = append(r.tr.claimNs, l.tr.claimNs...)
		r.tr.enqToExec = append(r.tr.enqToExec, l.tr.enqToExec...)
		r.tr.execToClaim = append(r.tr.execToClaim, l.tr.execToClaim...)
		r.tr.blocked += l.tr.blocked
	}
	slices.Sort(r.lat)
	return r
}

// workloadStep is what one closed-loop lane repeats.
func workloadStep(sp spec) func(*lane) {
	if sp.mode == rpcLoop {
		return func(l *lane) {
			for i := 0; i < 64; i++ { // read the clock once per 64 RPCs, not once per RPC
				l.rpcOnce()
			}
		}
	}
	return func(l *lane) { l.round(sp.window) }
}
