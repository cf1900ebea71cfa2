// Package simtest runs a guardian topology under the virtual clock with a
// seeded, scripted fault schedule and reduces the run to a canonical
// transcript of trace events plus call outcomes. The property it exists to
// state — and that no sleep-based test can — is determinism: two runs with
// the same seed produce byte-identical transcripts, so a failure seen once
// can be replayed exactly, forever, with `go run ./cmd/simtrace -seed N`.
//
// How determinism is achieved:
//
//   - The whole world shares one clock.Virtual. The harness drives it in
//     lock step — settle until quiescent, apply script actions that are
//     due, advance to the next deadline — so every handler runs to
//     completion while virtual time stands still, and every timestamp an
//     event can observe is exact.
//   - All randomness is drawn up front: the seed expands to a fixed script
//     of call issuances and faults before the network starts. The network
//     itself is configured with zero loss/duplication/jitter so message
//     fate never consults an rng whose draw order would depend on
//     goroutine scheduling. Scripted "loss" is a brief partition window —
//     deterministic loss of everything in flight on that link — rather
//     than a probabilistic drop.
//   - Instants are kept collision-free by congruence: tick loops fire at
//     multiples of 250µs (≡0 mod 10µs), link delays are ≡5 mod 10µs, and
//     script actions are ≡7 mod 10µs, so a delivery, a tick, and a fault
//     never share an instant and their handlers never race. The delay
//     residue matters: a script send (≡7) plus one hop (≡5) lands ≡2,
//     and each further same-instant hop adds 5, so a chain stays in
//     {2, 7} mod 10 and can never land on a tick multiple. (Delays ≡3
//     could: 7+3 ≡ 0 mod 10, and a delivery racing a tick handler at
//     one instant was a real ~50% -race flake at 6000µs.)
//   - The transcript is a sorted multiset of event lines, so the one
//     interleaving the harness cannot pin down — goroutine wake order
//     within a single settled instant — cannot affect the bytes.
package simtest

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"promises/internal/clock"
	"promises/internal/exception"
	"promises/internal/guardian"
	"promises/internal/metrics"
	"promises/internal/promise"
	"promises/internal/simnet"
	"promises/internal/stream"
	"promises/internal/trace"
)

// Options configures one deterministic run. The zero value of each field
// selects the default noted on it.
type Options struct {
	// Seed selects the script: which calls go where and when, and where
	// the faults land. Same seed, same transcript.
	Seed int64
	// Servers is the number of server guardians (default 2).
	Servers int
	// Clients is the number of client guardians (default 2).
	Clients int
	// Calls is the number of calls each client issues (default 8).
	Calls int
	// FlowControl runs the world with the adaptive batch controller and
	// credit-based sender flow control enabled (AdaptiveBatch, a byte
	// budget, and a MaxInFlight window of 64 — far above any per-stream
	// call count a script issues, so scripted calls never block the
	// harness goroutine; what the option exercises deterministically is
	// the credit accounting and controller epochs on every reply path).
	FlowControl bool
}

func (o Options) withDefaults() Options {
	if o.Servers <= 0 {
		o.Servers = 2
	}
	if o.Clients <= 0 {
		o.Clients = 2
	}
	if o.Calls <= 0 {
		o.Calls = 8
	}
	return o
}

// Result is what one run reduces to.
type Result struct {
	// Transcript is the canonical (sorted) event + outcome listing.
	Transcript string
	// Digest is the sha256 of Transcript, in hex.
	Digest string
	// Script is the human-readable seeded schedule that was applied.
	Script []string
	// VirtualElapsed is how much virtual time the run took.
	VirtualElapsed time.Duration
	// Events is every node's trace events concatenated in sorted node
	// order (each node's events in record order), suitable for
	// trace.Correlate. Timestamps are virtual.
	Events []trace.Event
	// MetricsMid is a registry snapshot taken mid-run, at a scripted
	// instant halfway through the call-issuance horizon.
	MetricsMid *metrics.Snapshot
	// MetricsFinal is the registry snapshot after all calls resolved.
	MetricsFinal *metrics.Snapshot
}

// action is one scripted step: issue a call or inject/lift a fault.
type action struct {
	at    time.Time
	desc  string
	apply func()
}

// stepUS snaps a microsecond offset into the harness congruence class
// (≡7 mod 10µs): distinct from tick instants (≡0 mod 250µs) and from
// delivery instants (≡3·hops mod 10µs), so script actions never share an
// instant with protocol activity.
func stepUS(us int64) time.Duration {
	return time.Duration(us-us%10+7) * time.Microsecond
}

// Run executes one seeded deterministic simulation.
func Run(o Options) (*Result, error) {
	o = o.withDefaults()
	rng := rand.New(rand.NewSource(o.Seed))

	vclk := clock.NewVirtual()
	reg := metrics.NewRegistry()
	// Zero per-message costs: Send must never sleep, because call
	// issuance happens on the harness goroutine — the only goroutine that
	// advances the clock. Latency lives entirely in the per-link delays.
	// The registry rides the same inheritance chain as the clock: simnet
	// carries it, streams and guardians pick it up from the network.
	net := simnet.New(simnet.Config{Clock: vclk, Metrics: reg})
	defer net.Close()

	opts := stream.Options{
		MaxBatch:      4,
		MaxBatchDelay: 500 * time.Microsecond,
		RTO:           2 * time.Millisecond,
		MaxRetries:    3,
	}
	if o.FlowControl {
		opts.AdaptiveBatch = true
		opts.MaxBatchBytes = 2048
		opts.MaxInFlight = 64
	}

	servers := make([]*guardian.Guardian, o.Servers)
	clients := make([]*guardian.Guardian, o.Clients)
	rings := make(map[string]*trace.Ring)
	var names []string
	addRing := func(g *guardian.Guardian) {
		// No SetNow needed: SetTracer wires the peer's (virtual) clock
		// into the ring automatically via trace.NowSetter.
		r := trace.NewRing(1 << 14)
		g.Peer().SetTracer(r)
		rings[g.Name()] = r
		names = append(names, g.Name())
	}
	var refs []guardian.Ref
	for i := range servers {
		g, err := guardian.New(net, fmt.Sprintf("s%d", i), opts)
		if err != nil {
			return nil, err
		}
		servers[i] = g
		addRing(g)
		si := int64(i)
		refs = append(refs, g.AddHandler("work", func(call *guardian.Call) ([]any, error) {
			x, err := call.IntArg(0)
			if err != nil {
				return nil, err
			}
			return []any{x*2 + si}, nil
		}))
	}
	for i := range clients {
		g, err := guardian.New(net, fmt.Sprintf("c%d", i), opts)
		if err != nil {
			return nil, err
		}
		clients[i] = g
		addRing(g)
	}
	// Auto-advance unsticks anything virtually asleep during teardown;
	// the run itself drives the clock explicitly.
	defer vclk.SetAutoAdvance(false)
	defer func() {
		for _, g := range append(append([]*guardian.Guardian{}, clients...), servers...) {
			g.Close()
		}
	}()
	defer vclk.SetAutoAdvance(true)

	// Distinct per-link delays, all ≡5 mod 10µs (see stepUS).
	pair := 0
	for _, c := range clients {
		for _, s := range servers {
			net.SetLinkDelay(c.Name(), s.Name(), time.Duration(305+20*pair)*time.Microsecond)
			pair++
		}
	}

	// Expand the seed into the full script before anything runs.
	total := o.Clients * o.Calls
	promises := make([]*promise.Promise[int64], total)
	owner := make([]string, total)  // issuing client name
	target := make([]string, total) // target server name
	arg := make([]int64, total)     // call argument
	var script []action

	idx := 0
	for ci, c := range clients {
		agent := c.Agent("a")
		for k := 0; k < o.Calls; k++ {
			id := idx
			sv := rng.Intn(o.Servers)
			at := clock.Epoch.Add(stepUS(int64(100+k*500+ci*30) + rng.Int63n(40)*10))
			owner[id] = c.Name()
			target[id] = servers[sv].Name()
			arg[id] = rng.Int63n(1000)
			ref := refs[sv]
			s := ref.Stream(agent)
			script = append(script, action{
				at:   at,
				desc: fmt.Sprintf("call id=%d %s->%s arg=%d", id, owner[id], target[id], arg[id]),
				apply: func() {
					p, err := promise.Call(s, ref.Port, promise.Int, arg[id])
					if err != nil {
						// The stream was broken at enqueue time; a real
						// program would see the same ErrBroken.
						p = promise.Failed[int64](exception.Unavailable(err.Error()))
					}
					promises[id] = p
				},
			})
			idx++
		}
	}

	// Faults: one crash+recover, one partition+heal, one loss window
	// (a short partition — deterministic, unlike a probabilistic drop).
	horizon := int64(o.Calls) * 500 // µs over which calls are issued
	crashed := servers[rng.Intn(o.Servers)]
	crashAt := clock.Epoch.Add(stepUS(horizon/4 + rng.Int63n(20)*10))
	recoverAt := crashAt.Add(stepUS(1500 + rng.Int63n(20)*10))
	script = append(script,
		action{at: crashAt, desc: "crash " + crashed.Name(),
			apply: func() { crashed.Crash() }},
		action{at: recoverAt, desc: "recover " + crashed.Name(),
			apply: func() { crashed.Recover() }},
	)
	pc, ps := clients[rng.Intn(o.Clients)].Name(), servers[rng.Intn(o.Servers)].Name()
	partAt := clock.Epoch.Add(stepUS(horizon/2 + rng.Int63n(20)*10))
	healAt := partAt.Add(stepUS(2000 + rng.Int63n(20)*10))
	script = append(script,
		action{at: partAt, desc: fmt.Sprintf("partition %s|%s", pc, ps),
			apply: func() { net.Partition(pc, ps) }},
		action{at: healAt, desc: fmt.Sprintf("heal %s|%s", pc, ps),
			apply: func() { net.Heal(pc, ps) }},
	)
	lc, ls := clients[rng.Intn(o.Clients)].Name(), servers[rng.Intn(o.Servers)].Name()
	lossAt := clock.Epoch.Add(stepUS(horizon/8 + rng.Int63n(20)*10))
	lossEnd := lossAt.Add(stepUS(400))
	script = append(script,
		action{at: lossAt, desc: fmt.Sprintf("loss-window %s|%s", lc, ls),
			apply: func() { net.Partition(lc, ls) }},
		action{at: lossEnd, desc: fmt.Sprintf("loss-window-end %s|%s", lc, ls),
			apply: func() { net.Heal(lc, ls) }},
	)

	// Mid-run registry snapshot, as a scripted action so it lands at a
	// deterministic virtual instant (no extra rng draws: the schedule
	// ahead of it is unchanged).
	var midSnap *metrics.Snapshot
	script = append(script, action{
		at:    clock.Epoch.Add(stepUS(horizon / 2)),
		desc:  "metrics-snapshot",
		apply: func() { midSnap = reg.Snapshot() },
	})

	sort.SliceStable(script, func(i, j int) bool { return script[i].at.Before(script[j].at) })
	scriptDesc := make([]string, len(script))
	for i, a := range script {
		scriptDesc[i] = fmt.Sprintf("%9dus %s", a.at.Sub(clock.Epoch).Microseconds(), a.desc)
	}

	resolved := func() bool {
		for _, p := range promises {
			if p == nil || !p.Ready() {
				return false
			}
		}
		return true
	}

	// The lock-step drive loop.
	cap := clock.Epoch.Add(2 * time.Second)
	si := 0
	for {
		vclk.Settle()
		now := vclk.Now()
		for si < len(script) && !script[si].at.After(now) {
			script[si].apply()
			si++
			vclk.Settle()
		}
		if si == len(script) && resolved() {
			break
		}
		next, have := time.Time{}, false
		if si < len(script) {
			next, have = script[si].at, true
		}
		if dl, ok := vclk.NextDeadline(); ok && (!have || dl.Before(next)) {
			next, have = dl, true
		}
		if !have {
			return nil, fmt.Errorf("simtest: stalled at +%v with unresolved calls and nothing scheduled",
				now.Sub(clock.Epoch))
		}
		if next.After(cap) {
			return nil, fmt.Errorf("simtest: exceeded the %v virtual-time cap", cap.Sub(clock.Epoch))
		}
		vclk.AdvanceTo(next)
	}
	vclk.Settle()
	elapsed := vclk.Now().Sub(clock.Epoch)

	// Canonical transcript: every trace event and call outcome as one
	// line, sorted. Sorting makes the transcript a multiset — within one
	// settled instant the goroutine wake order is the one thing two runs
	// may not share, and it must not show through.
	var lines []string
	var allEvents []trace.Event
	sort.Strings(names)
	for _, name := range names {
		for _, e := range rings[name].Events() {
			allEvents = append(allEvents, e)
			lines = append(lines, fmt.Sprintf("%9dus %-3s %-17s %s seq=%d %s",
				e.At.Sub(clock.Epoch).Microseconds(), name, e.Kind, e.Stream, e.Seq, e.Detail))
		}
	}
	for id, p := range promises {
		v, err, _ := p.TryClaim()
		out := fmt.Sprintf("v=%d", v)
		if err != nil {
			out = "exc=" + err.Error()
		}
		lines = append(lines, fmt.Sprintf("outcome id=%d %s->%s arg=%d %s",
			id, owner[id], target[id], arg[id], out))
	}
	sort.Strings(lines)
	transcript := strings.Join(lines, "\n") + "\n"
	sum := sha256.Sum256([]byte(transcript))

	return &Result{
		Transcript:     transcript,
		Digest:         hex.EncodeToString(sum[:]),
		Script:         scriptDesc,
		VirtualElapsed: elapsed,
		Events:         allEvents,
		MetricsMid:     midSnap,
		MetricsFinal:   reg.Snapshot(),
	}, nil
}
