// Package tcpnet is the real-socket backend of the transport seam:
// endpoints are OS processes (or distinct listeners within one process)
// reachable over TCP, so the call-stream protocol measured for years
// against the simnet cost model runs over an actual kernel network stack
// — the gate to every production traffic claim.
//
// The design goal is that the backend adds as close to nothing as
// possible on top of the stream layer's zero-copy hot path:
//
//   - Reads: length-prefixed frames are decoded out of a chunked arena
//     (framing.go); payload slices alias the arena and feed the stream
//     layer's zero-copy wire.Decoder views directly, so the read path
//     costs one allocation per ~64 KiB of traffic, not one per datagram.
//
//   - Writes: a Send on an idle link whose peer has spoken since the
//     link's last inline write writes its frame itself, with one
//     non-blocking writev (inline_linux.go), so a request or a reply
//     wakes no goroutine. Every other Send enqueues the datagram on the
//     link's write queue; a single writer goroutine per peer drains the
//     queue and hands the batch to writev via net.Buffers — length
//     prefixes and payloads as one vectored call, no coalescing copy.
//
//   - TCP_NODELAY is set on every connection: the stream layer's
//     batching (DESIGN.md §9) owns aggregation; letting Nagle
//     second-guess it would add delay to exactly the flushes the stream
//     decided were worth a kernel call.
//
// The transport contract is datagram-shaped and unreliable, which makes
// TCP connection management simple: a connection is a cache entry, not a
// promise. Frames queued while a peer is unreachable are dropped after
// one dial attempt (with backoff); a broken connection loses whatever
// writev was in flight. The call-stream protocol already retransmits,
// dedupes, and reorders — a lost connection looks like a lossy patch of
// network, and a peer process restart surfaces as retry exhaustion, a
// broken stream, and reincarnation, exactly as a simnet crash does.
//
// Connections are per peer pair and symmetric: whichever end dials
// first, both directions ride the connection (the acceptor learns the
// dialer's name from the hello frame and adopts the connection for its
// own sends). Endpoints that never listen — pure clients — are reachable
// over the connections they dial out.
package tcpnet

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"promises/internal/clock"
	"promises/internal/metrics"
	"promises/internal/transport"
)

// Config tunes an endpoint. The zero value is usable: every field has a
// default chosen for LAN/loopback call-stream traffic.
type Config struct {
	// Routes maps peer endpoint names to "host:port" dial addresses.
	// Peers without a route are reachable only if they dial us first.
	Routes map[string]string
	// ChunkSize is the read arena chunk (framing.go); default 64 KiB.
	ChunkSize int
	// MaxFrame bounds one frame; larger length prefixes kill the
	// connection as garbage. Default 16 MiB.
	MaxFrame int
	// QueueLimit caps each link's write backlog in frames; overflow is
	// dropped (the transport is a datagram service — the stream layer
	// retransmits). Default 4096.
	QueueLimit int
	// InboxDepth is the delivered-message buffer consumed by Recv.
	// Default 1024. Readers block (TCP backpressure) when it fills.
	InboxDepth int
	// DialTimeout bounds one dial attempt. Default 1s.
	DialTimeout time.Duration
	// RedialFloor/RedialCeil bound the exponential backoff between dial
	// attempts to an unreachable peer. Defaults 20ms / 500ms.
	RedialFloor time.Duration
	RedialCeil  time.Duration
	// Metrics, when set, mirrors the endpoint's counters into a
	// registry, and is inherited by layers built on the endpoint
	// (transport.MetricsProvider).
	Metrics *metrics.Registry
}

func (c Config) withDefaults() Config {
	if c.ChunkSize <= 0 {
		c.ChunkSize = defaultChunk
	}
	if c.MaxFrame <= 0 {
		c.MaxFrame = defaultMaxFrame
	}
	if c.QueueLimit <= 0 {
		c.QueueLimit = 4096
	}
	if c.InboxDepth <= 0 {
		c.InboxDepth = 1024
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = time.Second
	}
	if c.RedialFloor <= 0 {
		c.RedialFloor = 20 * time.Millisecond
	}
	if c.RedialCeil <= 0 {
		c.RedialCeil = 500 * time.Millisecond
	}
	return c
}

// helloTimeout bounds how long an accepted connection may take to
// identify itself before we hang up on it.
const helloTimeout = 5 * time.Second

// Stats is a point-in-time snapshot of an endpoint's socket activity.
type Stats struct {
	Dials         int64 // dial attempts (successful or not)
	Accepts       int64 // inbound connections that completed the hello
	FramesSent    int64 // frames handed to writev successfully
	FramesRecv    int64 // frames decoded and delivered
	BytesSent     int64 // wire bytes written (payload + prefixes)
	BytesRecv     int64 // wire bytes read (payload + prefixes)
	Writevs       int64 // vectored write calls (frames amortize over these)
	FramesDropped int64 // frames dropped: queue overflow, dead peer, write error
	// FramesUnreachable counts the subset of FramesDropped lost because
	// the peer could not be dialed at all — the silent-blackhole case
	// that looks identical to packet loss from the stream layer's side.
	FramesUnreachable int64
}

// endpoint counters, mirrored into the metrics registry when one is
// configured. nil disables (no branches beyond one pointer check).
type tcpMetrics struct {
	dials, accepts         *metrics.Counter
	framesSent, framesRecv *metrics.Counter
	bytesSent, bytesRecv   *metrics.Counter
	writevs, drops         *metrics.Counter
	unreachableDrops       *metrics.Counter
}

func newTCPMetrics(reg *metrics.Registry) *tcpMetrics {
	if reg == nil {
		return nil
	}
	return &tcpMetrics{
		dials:      reg.Counter("tcp_dials_total"),
		accepts:    reg.Counter("tcp_accepts_total"),
		framesSent: reg.Counter("tcp_frames_sent_total"),
		framesRecv: reg.Counter("tcp_frames_recv_total"),
		bytesSent:  reg.Counter("tcp_bytes_sent_total"),
		bytesRecv:  reg.Counter("tcp_bytes_recv_total"),
		writevs:    reg.Counter("tcp_writev_total"),
		drops:      reg.Counter("tcp_frames_dropped_total"),
		// The unreachable-peer share of the aggregate above.
		unreachableDrops: reg.Counter("tcp_frames_dropped_unreachable_total"),
	}
}

// Endpoint is one named attachment point on the TCP transport. It
// implements transport.Endpoint plus the fault-injection, teardown,
// clock, and metrics capabilities.
type Endpoint struct {
	name string
	cfg  Config
	ln   net.Listener // nil for dial-only endpoints

	mu      sync.Mutex
	routes  map[string]string
	links   map[string]*link
	conns   map[net.Conn]struct{} // every live conn, for teardown
	inbox   chan transport.Message
	down    chan struct{} // closed while crashed
	crashed bool
	closed  bool

	done chan struct{} // closed by Close
	st   Stats         // field-wise atomic
	tm   *tcpMetrics
	wg   sync.WaitGroup
}

var (
	_ transport.Endpoint        = (*Endpoint)(nil)
	_ transport.ShardedSender   = (*Endpoint)(nil)
	_ transport.Faulter         = (*Endpoint)(nil)
	_ transport.Closer          = (*Endpoint)(nil)
	_ transport.ClockProvider   = (*Endpoint)(nil)
	_ transport.MetricsProvider = (*Endpoint)(nil)
)

// Listen creates an endpoint named name accepting peer connections on
// addr ("host:port"; ":0" picks an ephemeral port — read it back with
// Addr). An empty addr creates a dial-only endpoint: it reaches peers
// through Routes and is reachable back over the connections it dials.
func Listen(name, addr string, cfg Config) (*Endpoint, error) {
	cfg = cfg.withDefaults()
	ep := &Endpoint{
		name:   name,
		cfg:    cfg,
		routes: make(map[string]string, len(cfg.Routes)),
		links:  make(map[string]*link),
		conns:  make(map[net.Conn]struct{}),
		inbox:  make(chan transport.Message, cfg.InboxDepth),
		down:   make(chan struct{}),
		done:   make(chan struct{}),
		tm:     newTCPMetrics(cfg.Metrics),
	}
	for peer, a := range cfg.Routes {
		ep.routes[peer] = a
	}
	if addr != "" {
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			return nil, fmt.Errorf("tcpnet: listen %s: %w", addr, err)
		}
		ep.ln = ln
		ep.wg.Add(1)
		go ep.acceptLoop()
	}
	return ep, nil
}

// Name returns the endpoint's name.
func (ep *Endpoint) Name() string { return ep.name }

// Addr returns the listener's actual address ("" for dial-only
// endpoints) — the value peers put in their Routes.
func (ep *Endpoint) Addr() string {
	if ep.ln == nil {
		return ""
	}
	return ep.ln.Addr().String()
}

// AddRoute maps a peer name to a dial address (replacing any existing
// route). Safe to call while the endpoint runs.
func (ep *Endpoint) AddRoute(peer, addr string) {
	ep.mu.Lock()
	ep.routes[peer] = addr
	ep.mu.Unlock()
}

// Clock returns the endpoint's time source. Real sockets run on real
// time (transport.ClockProvider).
func (ep *Endpoint) Clock() clock.Clock { return clock.Real{} }

// Metrics returns the registry layers built on the endpoint inherit.
func (ep *Endpoint) Metrics() *metrics.Registry { return ep.cfg.Metrics }

// Stats snapshots the endpoint's socket counters.
func (ep *Endpoint) Stats() Stats {
	return Stats{
		Dials:             atomic.LoadInt64(&ep.st.Dials),
		Accepts:           atomic.LoadInt64(&ep.st.Accepts),
		FramesSent:        atomic.LoadInt64(&ep.st.FramesSent),
		FramesRecv:        atomic.LoadInt64(&ep.st.FramesRecv),
		BytesSent:         atomic.LoadInt64(&ep.st.BytesSent),
		BytesRecv:         atomic.LoadInt64(&ep.st.BytesRecv),
		Writevs:           atomic.LoadInt64(&ep.st.Writevs),
		FramesDropped:     atomic.LoadInt64(&ep.st.FramesDropped),
		FramesUnreachable: atomic.LoadInt64(&ep.st.FramesUnreachable),
	}
}

// SendShard is Send; the hint is ignored (transport.ShardedSender). No
// caller in this module: it stays for the benchmark module's endpoint taps.
func (ep *Endpoint) SendShard(to string, payload []byte, _ int) error { return ep.Send(to, payload) }

// Send transmits payload to the named peer: fire-and-forget, unreliable
// (transport.Endpoint). A nil error means the frame was written, queued,
// or dropped and counted; Send never waits for the socket.
func (ep *Endpoint) Send(to string, payload []byte) error {
	if len(payload) > ep.cfg.MaxFrame {
		return fmt.Errorf("tcpnet: %w (%d bytes)", errFrameTooBig, len(payload))
	}
	ep.mu.Lock()
	if ep.closed {
		ep.mu.Unlock()
		return transport.ErrClosed
	}
	if ep.crashed {
		ep.mu.Unlock()
		return transport.ErrCrashed
	}
	l := ep.links[to]
	if l == nil {
		if _, ok := ep.routes[to]; !ok {
			ep.mu.Unlock()
			return fmt.Errorf("%w: %q", transport.ErrNoRoute, to)
		}
		l = ep.newLinkLocked(to)
	}
	ep.mu.Unlock()
	l.send(payload)
	return nil
}

// Recv blocks for the next delivered message (transport.Endpoint).
func (ep *Endpoint) Recv(ctx context.Context) (transport.Message, error) {
	ep.mu.Lock()
	if ep.closed {
		ep.mu.Unlock()
		return transport.Message{}, transport.ErrClosed
	}
	if ep.crashed {
		ep.mu.Unlock()
		return transport.Message{}, transport.ErrCrashed
	}
	inbox, down := ep.inbox, ep.down
	ep.mu.Unlock()

	// A waiting message is taken without the select; only an empty inbox
	// parks on it.
	select {
	case msg := <-inbox:
		return msg, nil
	default:
	}
	select {
	case msg := <-inbox:
		return msg, nil
	case <-down:
		return transport.Message{}, transport.ErrCrashed
	case <-ep.done:
		return transport.Message{}, transport.ErrClosed
	case <-ctx.Done():
		return transport.Message{}, ctx.Err()
	}
}

// Crash takes the endpoint down (transport.Faulter): every connection is
// severed, undelivered messages are discarded (volatile state is lost),
// and Send/Recv fail with ErrCrashed until Recover. Peers see exactly
// what a process crash looks like: connections reset, dials refused or
// answered by nobody until Recover.
func (ep *Endpoint) Crash() {
	ep.mu.Lock()
	if ep.crashed || ep.closed {
		ep.mu.Unlock()
		return
	}
	ep.crashed = true
	close(ep.down)
	links := ep.links
	ep.links = make(map[string]*link)
	// Fresh inbox: messages delivered before the crash are gone.
	ep.inbox = make(chan transport.Message, ep.cfg.InboxDepth)
	conns := ep.drainConnsLocked()
	ep.mu.Unlock()
	for _, l := range links {
		l.kill()
	}
	for _, c := range conns {
		c.Close()
	}
}

// Recover brings the endpoint back up. Links are rebuilt lazily by the
// next Send or inbound connection.
func (ep *Endpoint) Recover() {
	ep.mu.Lock()
	if ep.crashed && !ep.closed {
		ep.crashed = false
		ep.down = make(chan struct{})
	}
	ep.mu.Unlock()
}

// Crashed reports whether the endpoint is down.
func (ep *Endpoint) Crashed() bool {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return ep.crashed
}

// DropConnections severs every live connection WITHOUT crashing the
// endpoint: queued and in-flight frames are lost, then links redial.
// This is the fault-injection hook for forced-disconnect tests — the
// stream layer on both ends must recover exactly-once delivery through
// retransmission alone.
func (ep *Endpoint) DropConnections() {
	ep.mu.Lock()
	conns := ep.drainConnsLocked()
	for _, l := range ep.links {
		l.mu.Lock()
		l.setConnLocked(nil)
		l.mu.Unlock()
	}
	ep.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// drainConnsLocked empties the live-connection set. Caller holds ep.mu.
func (ep *Endpoint) drainConnsLocked() []net.Conn {
	conns := make([]net.Conn, 0, len(ep.conns))
	for c := range ep.conns {
		conns = append(conns, c)
	}
	clear(ep.conns)
	return conns
}

// Close shuts the endpoint down permanently (transport.Closer).
func (ep *Endpoint) Close() error {
	ep.mu.Lock()
	if ep.closed {
		ep.mu.Unlock()
		return nil
	}
	ep.closed = true
	close(ep.done)
	links := ep.links
	ep.links = make(map[string]*link)
	conns := ep.drainConnsLocked()
	ep.mu.Unlock()
	if ep.ln != nil {
		ep.ln.Close()
	}
	for _, l := range links {
		l.kill()
	}
	for _, c := range conns {
		c.Close()
	}
	ep.wg.Wait()
	return nil
}

// track registers a live connection for teardown; it reports false (and
// closes the conn) when the endpoint is already down.
func (ep *Endpoint) track(c net.Conn) bool {
	ep.mu.Lock()
	if ep.closed || ep.crashed {
		ep.mu.Unlock()
		c.Close()
		return false
	}
	ep.conns[c] = struct{}{}
	ep.mu.Unlock()
	return true
}

func (ep *Endpoint) untrack(c net.Conn) {
	ep.mu.Lock()
	delete(ep.conns, c)
	ep.mu.Unlock()
}

func (ep *Endpoint) routeFor(peer string) string {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return ep.routes[peer]
}

// countWritten records what one writev put on the wire.
func (ep *Endpoint) countWritten(writevs, frames, bytes int64) {
	atomic.AddInt64(&ep.st.Writevs, writevs)
	atomic.AddInt64(&ep.st.FramesSent, frames)
	atomic.AddInt64(&ep.st.BytesSent, bytes)
	if tm := ep.tm; tm != nil {
		tm.writevs.Add(uint64(writevs))
		tm.framesSent.Add(uint64(frames))
		tm.bytesSent.Add(uint64(bytes))
	}
}

func (ep *Endpoint) countDrops(n int64) {
	atomic.AddInt64(&ep.st.FramesDropped, n)
	if ep.tm != nil {
		ep.tm.drops.Add(uint64(n))
	}
}

// countUnreachableDrops records frames lost because the peer could not
// be dialed: counted in the aggregate drop counter AND in the dedicated
// unreachable metric, so an operator can tell a blackholed peer from
// ordinary queue overflow at a glance.
func (ep *Endpoint) countUnreachableDrops(n int64) {
	ep.countDrops(n)
	atomic.AddInt64(&ep.st.FramesUnreachable, n)
	if ep.tm != nil {
		ep.tm.unreachableDrops.Add(uint64(n))
	}
}

// tune applies the socket options every connection gets. NODELAY is the
// load-bearing one: the stream layer's batching owns aggregation, so
// Nagle must not delay the flushes it already decided to make.
func tune(c net.Conn) {
	if tc, ok := c.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
	}
}

// acceptLoop admits inbound connections.
func (ep *Endpoint) acceptLoop() {
	defer ep.wg.Done()
	for {
		c, err := ep.ln.Accept()
		if err != nil {
			select {
			case <-ep.done:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			// Transient accept errors (EMFILE, aborted handshakes): keep
			// serving, but do not spin.
			time.Sleep(10 * time.Millisecond)
			continue
		}
		ep.wg.Add(1)
		go ep.handleInbound(c)
	}
}

// handleInbound completes the hello handshake on an accepted connection,
// adopts it into the peer's link (so our sends ride it too — the dialer
// may have no listener of its own), and serves reads from it.
func (ep *Endpoint) handleInbound(c net.Conn) {
	defer ep.wg.Done()
	if !ep.track(c) {
		return
	}
	tune(c)
	_ = c.SetReadDeadline(time.Now().Add(helloTimeout))
	peer, fr, err := readHello(c, ep.cfg.ChunkSize, ep.cfg.MaxFrame)
	if err != nil {
		ep.untrack(c)
		c.Close()
		return
	}
	_ = c.SetReadDeadline(time.Time{})
	atomic.AddInt64(&ep.st.Accepts, 1)
	if ep.tm != nil {
		ep.tm.accepts.Inc()
	}

	ep.mu.Lock()
	if ep.closed || ep.crashed {
		ep.mu.Unlock()
		ep.untrack(c)
		c.Close()
		return
	}
	l := ep.links[peer]
	if l == nil {
		l = ep.newLinkLocked(peer)
	}
	ep.mu.Unlock()
	if !l.adopt(c) {
		ep.untrack(c)
		c.Close()
		return
	}
	l.kickWriter() // frames queued while unreachable can flow now
	ep.readFrom(l, c, fr)
}

// readFrom decodes frames off a connection into the inbox until the
// connection dies or the endpoint goes down. Payloads alias the frame
// reader's arena; ownership passes to the consumer (zero-copy decode).
func (ep *Endpoint) readFrom(l *link, c net.Conn, fr *frameReader) {
	ep.mu.Lock()
	inbox, down := ep.inbox, ep.down
	ep.mu.Unlock()
	defer func() {
		ep.untrack(c)
		l.forget(c)
	}()
	for {
		payload, err := fr.next()
		if err != nil {
			return
		}
		if !l.heard.Load() {
			l.heard.Store(true) // the peer spoke: our next frame may go inline
		}
		atomic.AddInt64(&ep.st.FramesRecv, 1)
		atomic.AddInt64(&ep.st.BytesRecv, int64(len(payload)+lenSize))
		if ep.tm != nil {
			ep.tm.framesRecv.Inc()
			ep.tm.bytesRecv.Add(uint64(len(payload) + lenSize))
		}
		msg := transport.Message{From: l.peer, To: ep.name, Payload: payload}
		select {
		case inbox <- msg: // room in the inbox: skip the three-way select
			continue
		default:
		}
		select {
		case inbox <- msg:
		case <-down:
			return
		case <-ep.done:
			return
		}
	}
}

// link is the per-peer connection state: the current connection (dialed
// or adopted from an accept), the write queue, the single writer
// goroutine that drains the queue into vectored writes, and the write
// role that keeps the link's frames in order whether a sender writes its
// own frame inline or the writer writes a batch.
type link struct {
	ep   *Endpoint
	peer string
	kick chan struct{} // cap-1 doorbell for the writer
	dead chan struct{} // closed when the link is retired
	// heard is set by the reader on each frame from the peer and cleared
	// by each inline write: the turn-taking rule (see send).
	heard atomic.Bool

	mu      sync.Mutex
	retired bool            // set by kill: a frame sent now is dropped
	conn    net.Conn        // current write connection; nil while unreachable
	raw     syscall.RawConn // conn's raw handle; nil where inline writes are unsupported
	q       [][]byte        // frames queued for the writer
	writing bool            // the write role: a sender or the writer is writing
	// tail is the unwritten rest of a frame an inline write left
	// half-sent on tailConn; it goes out before q, on that connection only.
	tail     net.Buffers
	tailConn net.Conn

	// Owned by the holder of the write role, for inline writes: the
	// frame's length prefix, tail's backing array, and the iovecs.
	pre     [lenSize]byte
	tailArr [2][]byte
	iw      inlineWriter
}

// newLinkLocked creates the link and starts its writer. Caller holds
// ep.mu.
func (ep *Endpoint) newLinkLocked(peer string) *link {
	l := &link{
		ep:   ep,
		peer: peer,
		kick: make(chan struct{}, 1),
		dead: make(chan struct{}),
	}
	ep.links[peer] = l
	ep.wg.Add(1)
	go l.writeLoop()
	return l
}

func (l *link) kickWriter() {
	select {
	case l.kick <- struct{}{}:
	default:
	}
}

// setConnLocked installs c (nil: none) as the write connection. Caller
// holds l.mu.
func (l *link) setConnLocked(c net.Conn) {
	l.conn, l.raw = c, nil
	if c != nil {
		l.raw = rawOf(c)
	}
}

// adopt installs c as the link's write connection. Latest wins: a
// replaced connection keeps serving reads until it dies (any connection
// delivers to the peer's one inbox, so writing on the newest is always
// safe). Returns false if the link was retired.
func (l *link) adopt(c net.Conn) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.retired {
		return false
	}
	l.setConnLocked(c)
	return true
}

// forget closes c and clears it as the write connection if it still is.
func (l *link) forget(c net.Conn) {
	l.mu.Lock()
	if l.conn == c {
		l.setConnLocked(nil)
	}
	l.mu.Unlock()
	c.Close()
	l.kickWriter() // the writer may need to redial for queued frames
}

// kill retires the link: the writer exits, the connection closes, queued
// frames and any unwritten tail are dropped. Send checks retired under
// the same lock, so a frame sent into a retired link is counted as
// dropped too.
func (l *link) kill() {
	l.mu.Lock()
	if l.retired {
		l.mu.Unlock()
		return
	}
	l.retired = true
	close(l.dead)
	c := l.conn
	l.setConnLocked(nil)
	dropped := int64(len(l.q))
	clear(l.q)
	l.q = l.q[:0]
	if len(l.tail) > 0 {
		dropped++
		l.tail, l.tailConn = nil, nil
	}
	l.mu.Unlock()
	if c != nil {
		c.Close()
	}
	if dropped > 0 {
		l.ep.countDrops(dropped)
	}
}

// send writes payload on the caller's goroutine when the link is idle —
// no write role held, nothing queued, no unwritten tail, a connection up
// — and the peer has spoken since the link's last inline write.
// Otherwise it queues payload for the writer. The turn-taking rule sends
// ping-pong traffic (a request, its reply) inline and leaves back-to-back
// bursts to the writer, which coalesces them into one writev.
func (l *link) send(payload []byte) {
	l.mu.Lock()
	if l.retired {
		l.mu.Unlock()
		l.ep.countDrops(1)
		return
	}
	if l.writing || len(l.q) > 0 || len(l.tail) > 0 || l.raw == nil || !l.heard.Load() {
		if len(l.q) >= l.ep.cfg.QueueLimit {
			l.mu.Unlock()
			l.ep.countDrops(1)
			return // accepted and lost: the datagram contract
		}
		l.q = append(l.q, payload)
		// A role holder looks at the queue again before it lets go.
		kick := !l.writing
		l.mu.Unlock()
		if kick {
			l.kickWriter()
		}
		return
	}
	l.writing = true
	conn, raw := l.conn, l.raw
	l.mu.Unlock()
	l.heard.Store(false)
	l.writeInline(conn, raw, payload)
}

// writeInline writes one frame with one non-blocking writev, holding the
// write role. It never waits for the socket: a sender may be the stream
// layer's receive or deadline loop, and two peers whose loops both waited on
// full socket buffers would deadlock. What the socket does not take —
// the whole frame, or the tail of a partial write — becomes the link's
// tail, which the writer sends before anything queued.
func (l *link) writeInline(conn net.Conn, raw syscall.RawConn, payload []byte) {
	binary.BigEndian.PutUint32(l.pre[:], uint32(len(payload)))
	n, err := l.iw.write(raw, l.pre[:], payload)
	total := lenSize + len(payload)
	if n == total {
		l.ep.countWritten(1, 1, int64(n))
	} else if n > 0 {
		l.ep.countWritten(1, 0, int64(n)) // the writer counts the frame
	}
	dropped := err != nil
	l.mu.Lock()
	l.writing = false
	if !dropped && n < total {
		if l.retired {
			dropped = true
		} else {
			l.setTailLocked(conn, payload, n)
		}
	}
	kick := len(l.q) > 0 || len(l.tail) > 0
	l.mu.Unlock()
	if err != nil {
		l.forget(conn)
	}
	if dropped {
		l.ep.countDrops(1)
	}
	if kick {
		l.kickWriter()
	}
}

// setTailLocked records the part of the inline frame [l.pre, payload]
// past its first n bytes as the tail. Caller holds l.mu and the role.
func (l *link) setTailLocked(conn net.Conn, payload []byte, n int) {
	t := l.tailArr[:0]
	if n < lenSize {
		t = append(t, l.pre[n:])
		n = lenSize
	}
	if rest := payload[n-lenSize:]; len(rest) > 0 {
		t = append(t, rest)
	}
	l.tail, l.tailConn = t, conn
}

// claim takes the write role for the writer, with everything pending:
// the tail (appended to bufs, and counted in tails) and the queued frames
// (appended to frames, in FIFO order). ok is false when there is nothing
// to write or a sender holds the role; that sender kicks the writer when
// it lets go. A tail left on a connection that is no longer the link's
// is dropped: its head bytes went into a stream that is gone.
func (l *link) claim(bufs net.Buffers, frames [][]byte) (_ net.Buffers, _ [][]byte, conn net.Conn, tails int, ok bool) {
	l.mu.Lock()
	if l.writing || l.retired || (len(l.q) == 0 && len(l.tail) == 0) {
		l.mu.Unlock()
		return bufs, frames, nil, 0, false
	}
	l.writing = true
	conn = l.conn
	stale := false
	if len(l.tail) > 0 {
		if conn == l.tailConn {
			bufs = append(bufs, l.tail...)
			tails = 1
		} else {
			stale = true
		}
		l.tail, l.tailConn = nil, nil
	}
	frames = append(frames, l.q...)
	clear(l.q)
	l.q = l.q[:0]
	l.mu.Unlock()
	if stale {
		l.ep.countDrops(1)
	}
	return bufs, frames, conn, tails, true
}

// release gives up the write role.
func (l *link) release() {
	l.mu.Lock()
	l.writing = false
	l.mu.Unlock()
}

// writeLoop is the link's single writer: woken by the doorbell, it takes
// the write role with everything pending and hands the whole round to
// writev as one net.Buffers — [tail, prefix, payload, prefix, payload,
// ...] — so a flushed batch reaches the kernel without a coalescing copy.
// Dialing happens here too, off every sender's path.
func (l *link) writeLoop() {
	defer l.ep.wg.Done()
	var (
		frames  [][]byte
		bufs    net.Buffers
		scratch []byte // backing store for the 4-byte length prefixes
		backoff = l.ep.cfg.RedialFloor
		wait    *time.Timer // one back-off timer, reset each round
	)
	defer func() {
		if wait != nil {
			wait.Stop()
		}
	}()
	for {
		select {
		case <-l.kick:
		case <-l.dead:
			return
		}
		for {
			var (
				conn  net.Conn
				tails int
				ok    bool
			)
			bufs, frames, conn, tails, ok = l.claim(bufs[:0], frames[:0])
			if !ok {
				break
			}
			if conn == nil {
				conn = l.dial()
			}
			if conn == nil {
				// Unreachable: this round is lost (datagram semantics;
				// the stream layer retransmits; a tail was stale). Back
				// off before burning another dial on a dead peer.
				l.release()
				l.ep.countUnreachableDrops(int64(len(frames)))
				clear(frames)
				if wait == nil {
					wait = time.NewTimer(backoff)
				} else {
					wait.Reset(backoff)
				}
				select {
				case <-l.dead:
					return
				case <-wait.C:
				}
				if backoff *= 2; backoff > l.ep.cfg.RedialCeil {
					backoff = l.ep.cfg.RedialCeil
				}
				continue
			}
			backoff = l.ep.cfg.RedialFloor

			// Build the vectored write. The prefixes live in one scratch
			// buffer sized up front, so the iovec slices stay valid.
			if need := lenSize * len(frames); cap(scratch) < need {
				scratch = make([]byte, need)
			} else {
				scratch = scratch[:need]
			}
			var total int64
			for _, b := range bufs {
				total += int64(len(b))
			}
			for i, p := range frames {
				pre := scratch[i*lenSize : i*lenSize+lenSize : i*lenSize+lenSize]
				binary.BigEndian.PutUint32(pre, uint32(len(p)))
				bufs = append(bufs, pre, p)
				total += int64(len(p) + lenSize)
			}
			n := len(frames) + tails
			clear(frames)
			// WriteTo consumes its receiver, so it gets a copy and bufs
			// keeps its array. The copy escapes: one 24-byte allocation per
			// writev, kept on purpose. Declared once per writer instead, it
			// raised the benchmark's stream_bulk peak RSS by about 40% on
			// two cores, because a writer that never allocates never
			// assists the GC's mark (DESIGN.md §13).
			w := bufs
			_, err := w.WriteTo(conn)
			clear(bufs) // do not pin payloads until the next round
			l.release()
			if err != nil {
				// The frames written into this connection are gone (some
				// may have arrived — duplication and loss are both
				// allowed). Sever it and let the next round redial.
				l.forget(conn)
				l.ep.countDrops(int64(n))
				continue
			}
			l.ep.countWritten(1, int64(n), total)
		}
	}
}

// dial connects to the peer's route, speaks the hello, adopts the
// connection, and starts its read loop. Returns nil when the peer has no
// route or is unreachable.
func (l *link) dial() net.Conn {
	ep := l.ep
	addr := ep.routeFor(l.peer)
	if addr == "" {
		return nil
	}
	atomic.AddInt64(&ep.st.Dials, 1)
	if ep.tm != nil {
		ep.tm.dials.Inc()
	}
	c, err := net.DialTimeout("tcp", addr, ep.cfg.DialTimeout)
	if err != nil {
		return nil
	}
	if !ep.track(c) {
		return nil
	}
	tune(c)
	if err := writeHello(c, ep.name); err != nil {
		ep.untrack(c)
		c.Close()
		return nil
	}
	if !l.adopt(c) {
		ep.untrack(c)
		c.Close()
		return nil
	}
	fr := newFrameReader(c, ep.cfg.ChunkSize, ep.cfg.MaxFrame)
	ep.wg.Add(1)
	go func() {
		defer ep.wg.Done()
		ep.readFrom(l, c, fr)
	}()
	return c
}

// Loopback builds a fully-routed set of endpoints on 127.0.0.1 ephemeral
// ports within one process: every name listens, and every endpoint has
// routes to all the others. The topology benchmarks and in-process tests
// use.
func Loopback(cfg Config, names ...string) (map[string]*Endpoint, error) {
	eps := make(map[string]*Endpoint, len(names))
	for _, name := range names {
		ep, err := Listen(name, "127.0.0.1:0", cfg)
		if err != nil {
			for _, e := range eps {
				e.Close()
			}
			return nil, err
		}
		eps[name] = ep
	}
	for _, ep := range eps {
		for peer, other := range eps {
			if peer != ep.name {
				ep.AddRoute(peer, other.Addr())
			}
		}
	}
	return eps, nil
}
