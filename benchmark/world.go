package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"promises/internal/guardian"
	"promises/internal/simnet"
	"promises/internal/stream"
	"promises/internal/tcpnet"
	"promises/internal/transport"
)

// netKind selects the transport a workload runs on.
type netKind int

const (
	tcpNet netKind = iota // loopback TCP sockets (tcpnet)
	simNet                // in-process cost model on the real clock (simnet)
)

// loopMode is how a workload's driver offers load.
type loopMode int

const (
	closedLoop loopMode = iota // window of calls, flush, claim all, repeat
	rpcLoop                    // one promise.RPC outstanding
	openLoop                   // seeded schedule at a fixed rate
)

// spec is one workload: the shape of the world and of the load.
type spec struct {
	name    string
	why     string
	net     netKind
	lossy   bool // simnet fault injection on
	mode    loopMode
	payload int     // echo argument bytes; 0 sends the op index as an int64
	window  int     // ops in flight per driver goroutine
	drivers int     // driver goroutines (closed loop)
	stages  int     // 0 = echo server; k = chain of k inc guardians
	rate    float64 // open loop: offered ops per second

	// ungated keeps a workload out of BENCHMARK.json: the program runs and
	// checks it like the others, but the driver does not gate changes on it.
	ungated bool
}

var specs = []spec{
	{name: "stream_small", net: tcpNet, mode: closedLoop, payload: 32, window: 256, drivers: 1,
		why: "256 small stream calls per flush over loopback TCP: per-call cost in stream and wire dominates, tcpnet is amortised over ~16 calls a frame"},
	{name: "rpc_serial", net: tcpNet, mode: rpcLoop, payload: 32, window: 1, drivers: 1,
		why: "one RPC outstanding: nothing to batch, one frame per op each way, so tcpnet transit and goroutine hand-offs dominate; batching changes must not move it"},
	{name: "stream_bulk", net: tcpNet, mode: closedLoop, payload: 16 << 10, window: 32, drivers: 1,
		why: "16 KiB arguments, window 32: per-byte cost (wire copies, tcpnet framing and writev) dominates and per-call bookkeeping is diluted"},
	{name: "chain_k4", net: tcpNet, mode: closedLoop, window: 8, drivers: 2, stages: 4,
		why: "4-stage pipelined chains across 4 guardians, 2x8 in flight: the only workload that enters the epoch scheduler, continuation encode and forward hop"},
	// Ungated because its latencies follow the host, not the program: the
	// process is idle 85% of the time, every stage of an op begins with a
	// sleeping thread being woken, and what a wake-up costs on a shared VM
	// changes for minutes at a time. Two sets of ten runs of the same code,
	// 17 minutes apart, read lat_p50_us 300 and 381 (+27%) and lat_p99_us
	// 1085 and 1652 (+52%, spread 36%); no bound the contract allows holds.
	{name: "open_loop", net: tcpNet, mode: openLoop, payload: 32, window: 256, drivers: 1, rate: 50000, ungated: true,
		why: "open loop at 50000 ops/s with Pareto bursts: batches close by timer, not Flush, so batch-delay and reply-batching policy set latency and CPU per op"},
	{name: "stream_lossy", net: simNet, lossy: true, mode: closedLoop, window: 256, drivers: 1,
		why: "simnet LAN cost model with 2% loss, 1% duplication and jitter: the traffic that leaves the fast path, on the other transport; exactly-once order is checked"},
}

func specNamed(name string) (spec, bool) {
	for _, sp := range specs {
		if sp.name == name {
			return sp, true
		}
	}
	return spec{}, false
}

// payloadBytes is the argument-plus-result payload one op delivers, the
// numerator of goodput_mb_s. An int64 op index counts as 8 bytes each way.
func (sp spec) payloadBytes() int {
	if sp.payload == 0 {
		return 16
	}
	return 2 * sp.payload
}

const (
	clientName = "client"
	incPort    = "inc"
)

func (sp spec) serverNames() []string {
	if sp.stages == 0 {
		return []string{"server"}
	}
	names := make([]string, sp.stages)
	for i := range names {
		names[i] = fmt.Sprintf("s%d", i+1)
	}
	return names
}

// lanCost is the simnet cost model of stream_lossy: the fields the
// benchmark is allowed to set on a simnet.Config besides Metrics.
func lanCost(seed int64, lossy bool) simnet.Config {
	cfg := simnet.Config{
		KernelOverhead: 20 * time.Microsecond,
		Propagation:    150 * time.Microsecond,
		PerByte:        10 * time.Nanosecond,
		Seed:           seed,
	}
	if lossy {
		cfg.LossRate = 0.02
		cfg.DupRate = 0.01
		cfg.Jitter = 100 * time.Microsecond
	}
	return cfg
}

// links is a set of named endpoints on one transport, before anything is
// built on them. With an observer every endpoint is wrapped in the
// benchmark's tap and the transport's registry is set, which the layers
// above inherit through transport.MetricsProvider.
type links struct {
	eps []transport.Endpoint
	tcp []*tcpnet.Endpoint
	sim *simnet.Network
}

func newLinks(kind netKind, sim simnet.Config, obs *observer, names ...string) (*links, error) {
	l := &links{}
	switch kind {
	case tcpNet:
		cfg := tcpnet.Config{}
		if obs != nil {
			cfg.Metrics = obs.reg
		}
		eps, err := tcpnet.Loopback(cfg, names...)
		if err != nil {
			return nil, fmt.Errorf("loopback endpoints: %w", err)
		}
		for _, name := range names {
			ep := eps[name]
			l.tcp = append(l.tcp, ep)
			if obs != nil {
				l.eps = append(l.eps, &tappedTCP{Endpoint: ep, tap: obs.tap})
			} else {
				l.eps = append(l.eps, ep)
			}
		}
	case simNet:
		if obs != nil {
			sim.Metrics = obs.reg
		}
		l.sim = simnet.New(sim)
		for _, name := range names {
			node, err := l.sim.AddNode(name)
			if err != nil {
				l.close()
				return nil, fmt.Errorf("simnet node %s: %w", name, err)
			}
			if obs != nil {
				l.eps = append(l.eps, &tappedSim{Node: node, tap: obs.tap})
			} else {
				l.eps = append(l.eps, node)
			}
		}
	}
	return l, nil
}

func (l *links) close() {
	for _, ep := range l.tcp {
		_ = ep.Close() // tcpnet's Close only ever returns nil
	}
	if l.sim != nil {
		l.sim.Close()
	}
}

// netStats is what the transports count on their own, summed over every
// endpoint of the world.
type netStats struct {
	frames, bytes       int64 // sent, by either transport
	writevs, dials      int64 // tcpnet only
	dropped, duplicated int64 // tcpnet FramesDropped / simnet drops; simnet duplicates
}

func (l *links) stats() netStats {
	var s netStats
	for _, ep := range l.tcp {
		st := ep.Stats()
		s.frames += st.FramesSent
		s.bytes += st.BytesSent
		s.writevs += st.Writevs
		s.dials += st.Dials
		s.dropped += st.FramesDropped
	}
	if l.sim != nil {
		st := l.sim.Stats()
		s.frames += st.MessagesSent
		s.bytes += st.BytesSent
		s.dropped += st.MessagesDropped
		s.duplicated += st.MessagesDuplicated
	}
	return s
}

func (a netStats) sub(b netStats) netStats {
	return netStats{
		frames: a.frames - b.frames, bytes: a.bytes - b.bytes,
		writevs: a.writevs - b.writevs, dials: a.dials - b.dials,
		dropped: a.dropped - b.dropped, duplicated: a.duplicated - b.duplicated,
	}
}

// world is one workload's system under test: a client guardian and its
// server guardians in one process, built with the zero stream.Options so
// it measures what a user gets by default.
type world struct {
	sp      spec
	links   *links
	obs     *observer // nil when untraced
	client  *guardian.Guardian
	servers []*guardian.Guardian
	refs    []guardian.Ref // chain: one per stage; echo: one per driver

	// The server side of the correctness gate.
	executed   atomic.Uint64 // handler executions
	misordered atomic.Uint64 // echo calls whose op index was not previous+1
}

func buildWorld(sp spec, seed int64, obs *observer) (*world, error) {
	servers := sp.serverNames()
	l, err := newLinks(sp.net, lanCost(seed, sp.lossy), obs, append([]string{clientName}, servers...)...)
	if err != nil {
		return nil, err
	}
	w := &world{sp: sp, links: l, obs: obs}
	if w.client, err = guardian.NewOn(l.eps[0], stream.Options{}); err != nil {
		l.close()
		return nil, err
	}
	for i := range servers {
		g, err := guardian.NewOn(l.eps[i+1], stream.Options{})
		if err != nil {
			w.close()
			return nil, err
		}
		w.servers = append(w.servers, g)
		if sp.stages > 0 {
			w.refs = append(w.refs, g.AddHandler(incPort, w.incHandler(i == 0, i == sp.stages-1)))
		}
	}
	if sp.stages == 0 {
		for d := 0; d < sp.drivers; d++ {
			w.refs = append(w.refs, w.servers[0].AddHandler(fmt.Sprintf("echo%d", d), w.echoHandler()))
		}
	}
	return w, nil
}

func (w *world) close() {
	w.client.Close()
	for _, g := range w.servers {
		g.Close()
	}
	w.links.close()
}

// echoHandler returns its arguments. Each driver has a port and a stream
// of its own, so the calls of one port run one at a time and must carry
// op indices that go up by one: a duplicate, a gap or a reordering shows
// as a misordered call.
func (w *world) echoHandler() guardian.HandlerFunc {
	var next uint64
	return func(call *guardian.Call) ([]any, error) {
		start := w.obs.now()
		idx, ok := opIndex(call.Args)
		if !ok || idx != next {
			w.misordered.Add(1)
		}
		next = idx + 1
		w.executed.Add(1)
		w.obs.handled(call.Cause.Root, start, true, true)
		return call.Args, nil
	}
}

// incHandler is one chain stage: its integer argument plus one.
func (w *world) incHandler(first, last bool) guardian.HandlerFunc {
	return func(call *guardian.Call) ([]any, error) {
		start := w.obs.now()
		v, err := call.IntArg(0)
		if err != nil {
			return nil, err
		}
		w.executed.Add(1)
		w.obs.handled(call.Cause.Root, start, first, last)
		return []any{v + 1}, nil
	}
}

// opIndex reads the op index an echo call carries: the int64 argument, or
// the first 8 bytes of the byte argument.
func opIndex(args []any) (uint64, bool) {
	if len(args) != 1 {
		return 0, false
	}
	switch v := args[0].(type) {
	case int64:
		return uint64(v), true
	case []byte:
		if len(v) >= 8 {
			return be64(v), true
		}
	}
	return 0, false
}
