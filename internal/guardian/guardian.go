// Package guardian implements Argus-style active entities (Liskov &
// Shrira, PLDI 1988, §2.1). A guardian resides at a single node of the
// network and provides operations called handlers that other guardians
// call through ports. Creating a handler defines both a port — the name
// used to identify the handler in calls — and the procedure that runs to
// process a call.
//
// Ports are grouped for sequencing: only calls to ports in the same group
// (from the same agent) are sequenced, and the stream layer delays a
// call's execution until all earlier calls on its stream have completed.
// Calls on different streams are processed in parallel — the mailer
// example in §2.1: two clients calling read_mail run concurrently, while
// one client's send_mail then read_mail on the same stream run in order.
//
// The guardian layer also implements the argument/result value
// transmission discipline of §3: arguments arrive encoded and are decoded
// before the handler runs; results are encoded before the reply is sent.
// A decode failure at the receiver terminates the call with
// failure("could not decode") AND breaks the stream, so further calls on
// that stream are discarded, exactly as the paper prescribes.
//
// Lifetime: the *Call a handler receives, its Args slice, and every
// []byte among the arguments (a view of the received datagram) are valid
// only until the handler returns; the executor reuses them for its next
// call. Returning call.Args as the results is fine. A handler that keeps
// the call or an argument's bytes — for a goroutine, a table, a queue —
// takes call.Clone() first. Dispatch itself takes no lock and allocates
// nothing: the handler table is an immutable snapshot that AddHandler,
// RemoveHandler and SetParallel replace.
package guardian

import (
	"fmt"
	"maps"
	"strings"
	"sync"
	"sync/atomic"

	"promises/internal/clock"
	"promises/internal/exception"
	"promises/internal/metrics"
	"promises/internal/promise"
	"promises/internal/simnet"
	"promises/internal/stream"
	"promises/internal/trace"
	"promises/internal/transport"
	"promises/internal/wire"
)

// DefaultGroup is the port group used for handlers created when the
// guardian is created, mirroring "all ports of handlers created when a
// guardian is created belong to the same group."
const DefaultGroup = "main"

// Call is one decoded incoming handler call. It is per-executor scratch
// under the same contract as stream.Incoming (see the package comment):
// valid only until the handler returns, Clone to retain. A retained Call
// is poisoned at retirement — its fields read as zero values and its
// methods panic — instead of silently showing whichever call reuses it.
type Call struct {
	// Args are the decoded argument values.
	Args []any
	// From is the calling node; Agent the calling activity; Seq the call's
	// position on its stream.
	From  string
	Agent string
	Seq   uint64
	// Trace is this call's trace ID (0 from pre-trace senders) and Cause
	// the causal context the caller propagated with it — zero when this
	// call is the root of its chain. Handlers that call out to other
	// guardians pass ChildCause to the Cause variants of promise.Call /
	// stream.CallCause so the downstream work joins this call's chain.
	Trace uint64
	Cause trace.Cause
	// Guardian is the receiving guardian, so handlers can create ports
	// dynamically or call out to other guardians.
	Guardian *Guardian

	retired bool // set when the handler returned; later use fails loudly
}

func (c *Call) live() {
	if c.retired {
		panic("guardian: Call used after its handler returned (Clone to retain)")
	}
}

// Clone returns a heap copy of the call that stays valid after the
// handler returns — the supported way to retain a call or its arguments.
// Argument bytes are copied out of the datagram they alias.
func (c *Call) Clone() *Call {
	c.live()
	cp := *c
	cp.Args = wire.CloneValues(c.Args)
	return &cp
}

// ChildCause is the causal context for downstream calls made on this
// call's behalf: the chain root is inherited (or starts here), the
// parent is this call.
func (c *Call) ChildCause() trace.Cause {
	c.live()
	return trace.ChildOf(c.Cause, c.Trace)
}

// IntArg returns argument i as an int64 (failure exception on mismatch).
func (c *Call) IntArg(i int) (int64, error) { c.live(); return wire.IntArg(c.Args, i) }

// FloatArg returns argument i as a float64.
func (c *Call) FloatArg(i int) (float64, error) { c.live(); return wire.FloatArg(c.Args, i) }

// StringArg returns argument i as a string.
func (c *Call) StringArg(i int) (string, error) { c.live(); return wire.StringArg(c.Args, i) }

// callScratch is what one executor reuses from call to call: the Call
// handed to handlers and the backing array of its Args. It lives in the
// executor's stream.Incoming (Local), so it is only ever touched by the
// goroutine running that executor.
type callScratch struct {
	call Call
	args []any
}

// retire poisons the Call and drops the argument values, so a retained
// pointer sees nothing of the next call and nothing stays reachable
// through the scratch.
func (sc *callScratch) retire() {
	clear(sc.args[:cap(sc.args)])
	sc.call = Call{retired: true}
}

// HandlerFunc processes one call. It returns the reply's result values, or
// an error: an *exception.Exception terminates the call with that
// exception; any other error terminates it with failure.
type HandlerFunc func(call *Call) ([]any, error)

// guardianMetrics bundles the dispatch layer's metric handles,
// resolved once from the peer's registry (inherited from the network,
// like the clock). nil means metrics are disabled. Exception outcomes
// count by kind — the paper's two system exceptions get their own
// counters, everything else lands in exceptionsOther — so a run can
// report how often calls raised unavailable vs failure.
type guardianMetrics struct {
	handlerCalls          *metrics.Counter // handler executions dispatched
	handlerExceptions     *metrics.Counter // executions with an exceptional outcome
	exceptionsUnavailable *metrics.Counter
	exceptionsFailure     *metrics.Counter
	exceptionsOther       *metrics.Counter
}

func newGuardianMetrics(reg *metrics.Registry) *guardianMetrics {
	if reg == nil {
		return nil
	}
	return &guardianMetrics{
		handlerCalls:          reg.Counter("guardian_handler_calls_total"),
		handlerExceptions:     reg.Counter("guardian_handler_exceptions_total"),
		exceptionsUnavailable: reg.Counter("guardian_exceptions_unavailable_total"),
		exceptionsFailure:     reg.Counter("guardian_exceptions_failure_total"),
		exceptionsOther:       reg.Counter("guardian_exceptions_other_total"),
	}
}

// noteOutcome counts one handler outcome.
func (m *guardianMetrics) noteOutcome(o stream.Outcome) {
	if m == nil {
		return
	}
	m.handlerCalls.Inc()
	if o.Normal {
		return
	}
	m.handlerExceptions.Inc()
	switch o.Exception {
	case exception.NameUnavailable:
		m.exceptionsUnavailable.Inc()
	case exception.NameFailure:
		m.exceptionsFailure.Inc()
	default:
		m.exceptionsOther.Inc()
	}
}

// portEntry is one port's row in the dispatch table.
type portEntry struct {
	// handler is the port's HandlerFunc already adapted to the stream
	// layer, built once when the handler is added; nil for a port that
	// has only been marked parallel so far.
	handler  stream.Handler
	group    string
	parallel bool // opted out of per-stream ordering
}

type portTable map[string]portEntry

// Guardian is one active entity.
type Guardian struct {
	name string
	ep   transport.Endpoint
	peer *stream.Peer
	gm   *guardianMetrics

	// ports is the dispatch table: an immutable snapshot that every call
	// reads with one atomic load and no lock. Writers (AddHandler,
	// RemoveHandler, SetParallel) copy it, change the copy and publish
	// that, serialised by mu.
	ports atomic.Pointer[portTable]

	mu     sync.Mutex // serialises table writers; guards closed
	closed bool

	bg bgState // guardian-internal background processes
}

// New creates a guardian with its own node on the simnet network and
// starts its stream runtime — the historical constructor, unchanged.
func New(net *simnet.Network, name string, opts stream.Options) (*Guardian, error) {
	node, err := net.AddNode(name)
	if err != nil {
		return nil, err
	}
	return NewOn(node, opts)
}

// NewOn creates a guardian on an existing transport endpoint — any
// backend: a simnet node or a tcpnet endpoint in its own OS process —
// and starts its stream runtime. The guardian takes its name from the
// endpoint. The endpoint's lifecycle stays with the caller: Close stops
// the guardian but does not close the endpoint.
func NewOn(ep transport.Endpoint, opts stream.Options) (*Guardian, error) {
	peer := stream.NewPeer(ep, opts)
	g := &Guardian{
		name: ep.Name(),
		ep:   ep,
		peer: peer,
		gm:   newGuardianMetrics(peer.Metrics()),
	}
	g.ports.Store(&portTable{})
	g.peer.SetDispatcher(func(port string) (stream.Handler, bool) {
		h := g.port(port).handler
		return h, h != nil
	})
	g.peer.SetParallelPorts(func(port string) bool { return g.port(port).parallel })
	return g, nil
}

// MustNew is New for setup paths where a duplicate name is a programming
// error.
func MustNew(net *simnet.Network, name string, opts stream.Options) *Guardian {
	g, err := New(net, name, opts)
	if err != nil {
		panic(err)
	}
	return g
}

// Name returns the guardian's (node) name.
func (g *Guardian) Name() string { return g.name }

// Peer returns the guardian's stream runtime, for making outgoing calls.
func (g *Guardian) Peer() *stream.Peer { return g.peer }

// Clock returns the guardian's time source — the clock of the network it
// lives on unless its stream options said otherwise. Background tasks
// should take timeouts and sleeps from here so they run correctly under
// virtual time.
func (g *Guardian) Clock() clock.Clock { return g.peer.Clock() }

// Agent returns a named sending agent of this guardian. Each concurrent
// activity within the guardian should use its own agent.
func (g *Guardian) Agent(name string) *stream.Agent { return g.peer.Agent(name) }

// AddHandler creates a handler whose port belongs to DefaultGroup and
// returns its Ref.
func (g *Guardian) AddHandler(port string, h HandlerFunc) Ref {
	return g.AddHandlerIn(DefaultGroup, port, h)
}

// AddHandlerIn creates a handler whose port belongs to the given group —
// ports can also be created dynamically, while the guardian runs — and
// returns its Ref. Re-registering a port replaces its handler. The very
// next call dispatched sees the change.
func (g *Guardian) AddHandlerIn(group, port string, h HandlerFunc) Ref {
	adapted := g.adapt(port, group, h)
	g.updatePorts(func(t portTable) {
		e := t[port] // a re-registered port keeps its parallel bit
		e.handler, e.group = adapted, group
		t[port] = e
	})
	return Ref{Node: g.name, Group: group, Port: port}
}

// RemoveHandler deletes a port; subsequent calls to it terminate with
// failure("handler does not exist").
func (g *Guardian) RemoveHandler(port string) {
	g.updatePorts(func(t portTable) { delete(t, port) })
}

// SetParallel opts a port out of per-stream serial execution: its calls
// may be processed in parallel with other calls on the same stream — the
// explicit override §2.1 anticipates. The handler must tolerate the
// concurrency; calls to other (serial) ports still wait for all earlier
// calls.
func (g *Guardian) SetParallel(port string, parallel bool) {
	g.updatePorts(func(t portTable) {
		e := t[port]
		e.parallel = parallel
		t[port] = e
	})
}

// Ref returns the Ref for an existing port, and whether it exists.
func (g *Guardian) Ref(port string) (Ref, bool) {
	e := g.port(port)
	if e.handler == nil {
		return Ref{}, false
	}
	return Ref{Node: g.name, Group: e.group, Port: port}, true
}

// port is the lock-free lookup every dispatched call makes; an unknown
// port reads as the zero entry.
func (g *Guardian) port(port string) portEntry { return (*g.ports.Load())[port] }

// updatePorts applies change to a copy of the dispatch table and
// publishes the copy.
func (g *Guardian) updatePorts(change func(portTable)) {
	g.mu.Lock()
	defer g.mu.Unlock()
	next := maps.Clone(*g.ports.Load())
	change(next)
	g.ports.Store(&next)
}

// adapt turns a HandlerFunc into the stream layer's handler for its port:
// it decodes arguments, runs the handler, and encodes results, applying
// the paper's failure semantics at each step. It runs once per AddHandler,
// not per call.
func (g *Guardian) adapt(port, group string, h HandlerFunc) stream.Handler {
	return func(in *stream.Incoming) stream.Outcome {
		out := g.execute(in, port, group, h)
		g.gm.noteOutcome(out)
		return out
	}
}

func (g *Guardian) execute(in *stream.Incoming, port, group string, h HandlerFunc) stream.Outcome {
	// Receiver-side grouping: a port may only be called through its
	// own group's streams, since sequencing is per group.
	if in.Group != group {
		return stream.ExceptionOutcome(exception.Failuref(
			"port %q is not in group %q", port, in.Group))
	}
	sc, _ := in.Local.(*callScratch)
	if sc == nil {
		sc = &callScratch{}
		in.Local = sc
	}
	args, err := wire.UnmarshalInto(sc.args[:0], in.Args)
	if err != nil {
		// "When the problem happens at the receiver, the stream breaks
		// so that further calls on that stream will be discarded."
		ex := exception.Failure("could not decode")
		in.BreakStream(ex)
		return stream.ExceptionOutcome(ex)
	}
	sc.args = args
	sc.call = Call{
		Args:     args,
		From:     in.From,
		Agent:    in.Agent,
		Seq:      in.Seq,
		Trace:    in.Trace,
		Cause:    in.Cause,
		Guardian: g,
	}
	defer sc.retire()
	results, err := runHandler(h, &sc.call)
	if err != nil {
		return stream.ExceptionOutcome(toException(err))
	}
	payload, err := stream.Marshal(results...)
	if err != nil {
		ex := exception.Failure("could not encode results")
		in.BreakStream(ex)
		return stream.ExceptionOutcome(ex)
	}
	return stream.NormalMarshalled(payload)
}

// runHandler isolates handler panics: a panicking handler terminates its
// call with failure instead of killing the guardian.
func runHandler(h HandlerFunc, call *Call) (results []any, err error) {
	defer func() {
		if r := recover(); r != nil {
			results = nil
			err = exception.Failuref("handler panicked: %v", r)
		}
	}()
	return h(call)
}

func toException(err error) *exception.Exception {
	if ex, ok := exception.As(err); ok {
		return ex
	}
	return exception.Failure(err.Error())
}

// Crash takes the guardian down: volatile state (streams in progress,
// buffered calls, background processes) is lost; outstanding callers see
// unavailable.
func (g *Guardian) Crash() {
	g.peer.Crash()
	g.stopBg()
	g.runCrashHooks()
}

// Recover restarts a crashed guardian. Handlers — the guardian's code —
// survive; stream state starts fresh; registered background processes
// are started anew, as a guardian's recovery code does.
func (g *Guardian) Recover() {
	g.peer.Recover()
	g.restartBg()
}

// Crashed reports whether the guardian is currently down. Backends
// without fault injection never report crashed.
func (g *Guardian) Crashed() bool {
	if f, ok := g.ep.(transport.Faulter); ok {
		return f.Crashed()
	}
	return false
}

// Close shuts the guardian down permanently.
func (g *Guardian) Close() {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return
	}
	g.closed = true
	g.mu.Unlock()
	g.stopBg()
	g.peer.Close()
}

// Ref identifies a remote handler: the node its guardian lives at, the
// port group it belongs to, and the port name. Refs are what the paper
// means by "ports may be sent as arguments and results of remote calls" —
// they encode to a wire ref value.
type Ref struct {
	Node  string
	Group string
	Port  string
}

// String formats the ref as node/group/port.
func (r Ref) String() string { return r.Node + "/" + r.Group + "/" + r.Port }

// Stream returns the stream an agent would use to call this ref: calls by
// one agent to ports in the same group travel on the same stream.
func (r Ref) Stream(a *stream.Agent) *stream.Stream {
	return a.Stream(r.Node, r.Group)
}

// Wire encodes the ref for transmission as an argument or result value.
func (r Ref) Wire() wire.Ref {
	return wire.Ref{Kind: "port", Name: r.String()}
}

// Hop names this ref as one continuation stage of a pipelined call graph
// (promise.Pipeline / Graph.ThenHop): the previous stage's result is
// delivered to this handler directly, with extra appended after it.
func (r Ref) Hop(extra ...any) promise.Hop {
	return promise.Hop{Node: r.Node, Group: r.Group, Port: r.Port, Extra: extra}
}

// RefFromWire decodes a ref transmitted as a value.
func RefFromWire(v any) (Ref, error) {
	wr, err := wire.AsRef(v)
	if err != nil {
		return Ref{}, err
	}
	if wr.Kind != "port" {
		return Ref{}, fmt.Errorf("guardian: ref kind %q is not a port", wr.Kind)
	}
	parts := strings.SplitN(wr.Name, "/", 3)
	if len(parts) != 3 {
		return Ref{}, fmt.Errorf("guardian: malformed port ref %q", wr.Name)
	}
	return Ref{Node: parts[0], Group: parts[1], Port: parts[2]}, nil
}

// RefArg decodes argument i of a call as a port ref.
func RefArg(vals []any, i int) (Ref, error) {
	v, err := wire.Arg(vals, i)
	if err != nil {
		return Ref{}, err
	}
	return RefFromWire(v)
}
