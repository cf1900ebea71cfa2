package tcpnet

import (
	"context"
	"encoding/binary"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"
)

// pingPong warms a pair up with ping-pong rounds, so both links are
// connected and have heard from their peer, and returns one round.
func pingPong(tb testing.TB, a, b *Endpoint, size int) func() {
	ping, pong := make([]byte, size), make([]byte, size)
	ctx := context.Background()
	round := func() {
		if err := a.Send("b", ping); err != nil {
			tb.Fatal(err)
		}
		if _, err := b.Recv(ctx); err != nil {
			tb.Fatal(err)
		}
		if err := b.Send("a", pong); err != nil {
			tb.Fatal(err)
		}
		if _, err := a.Recv(ctx); err != nil {
			tb.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ { // dial, and grow the readers' buffers
		round()
	}
	return round
}

// TestPingPongWritesInline: once both links are up and each peer has
// spoken, a request and its reply are each written by the goroutine that
// sends it — no writer wake-up and no writev cursor — so a round trip
// allocates nothing on either side.
func TestPingPongWritesInline(t *testing.T) {
	a, b := pair(t, Config{})
	round := pingPong(t, a, b, 32)
	const runs = 500
	before := a.Stats().Writevs + b.Stats().Writevs
	if allocs := testing.AllocsPerRun(runs, round); allocs != 0 {
		t.Errorf("%v allocations per round trip, want 0", allocs)
	}
	// AllocsPerRun adds one warm-up round.
	if n := a.Stats().Writevs + b.Stats().Writevs - before; n != 2*(runs+1) {
		t.Errorf("%d writevs for %d frames, want one each", n, 2*(runs+1))
	}
}

// TestBurstGoesToTheWriter: a link that has heard from its peer writes
// its next frame inline, but frames sent back-to-back with no reply in
// between wait for the writer, which coalesces them into fewer writevs
// than frames.
func TestBurstGoesToTheWriter(t *testing.T) {
	a, b := pair(t, Config{})
	pingPong(t, a, b, 32)
	const burst = 64
	before := a.Stats()
	payload := make([]byte, 32)
	for i := 0; i < burst; i++ {
		if err := a.Send("b", payload); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < burst; i++ {
		recvOne(t, b)
	}
	st := a.Stats()
	for deadline := time.Now().Add(5 * time.Second); st.FramesSent-before.FramesSent != burst; st = a.Stats() {
		if time.Now().After(deadline) {
			t.Fatalf("FramesSent grew by %d, want %d", st.FramesSent-before.FramesSent, burst)
		}
		time.Sleep(200 * time.Microsecond)
	}
	if n := st.Writevs - before.Writevs; n >= burst {
		t.Errorf("%d writevs for a burst of %d frames, want fewer", n, burst)
	}
}

// TestStalledReceiverSendNeverBlocks: with the receiver stalled and both
// sockets' send buffers shrunk, inline writes on a link that keeps hearing
// from its peer hit EAGAIN and partial writes, and the writer's writev
// blocks. No Send may wait for the socket. Once the receiver resumes,
// every frame the queue limit did not drop arrives intact, exactly once,
// in each sender's order.
func TestStalledReceiverSendNeverBlocks(t *testing.T) {
	a, b := pair(t, Config{QueueLimit: 64, InboxDepth: 4})
	pingPong(t, a, b, 32)
	// Small send buffers fill in a few frames. The receive buffers stay
	// above loopback's 64 KiB MSS: below it, TCP waits out zero-window
	// probes for seconds after the receiver resumes.
	for _, c := range []net.Conn{linkConn(t, a, "b"), linkConn(t, b, "a")} {
		tc := c.(*net.TCPConn)
		if err := tc.SetReadBuffer(128 << 10); err != nil {
			t.Fatal(err)
		}
		if err := tc.SetWriteBuffer(4 << 10); err != nil {
			t.Fatal(err)
		}
	}

	// a drains its inbox throughout, and b keeps talking to a, so a's
	// link keeps hearing from its peer and keeps trying inline writes.
	ctx, stop := context.WithCancel(context.Background())
	var bg sync.WaitGroup
	bg.Add(2)
	go func() {
		defer bg.Done()
		for {
			if _, err := a.Recv(ctx); err != nil {
				return
			}
		}
	}()
	go func() {
		defer bg.Done()
		for ctx.Err() == nil {
			_ = b.Send("a", []byte("heartbeat"))
			time.Sleep(50 * time.Microsecond)
		}
	}()
	defer func() {
		stop()
		bg.Wait()
	}()

	const senders, per, cycles = 4, 60, 8
	next := make([]int, senders) // the next sequence number each sender sends
	seen := make([]int, senders) // the last sequence number delivered from each sender
	for i := range seen {
		seen[i] = -1
	}
	base := a.Stats()
	received, sent := int64(0), int64(0)
	for cycle := 0; cycle < cycles; cycle++ {
		// The receiver is stalled: nobody calls b.Recv.
		var wg sync.WaitGroup
		for g := 0; g < senders; g++ {
			wg.Add(1)
			go func(g, from int) {
				defer wg.Done()
				for i := from; i < from+per; i++ {
					start := time.Now()
					if err := a.Send("b", stalledFrame(g, i)); err != nil {
						t.Error(err)
						return
					}
					if d := time.Since(start); d > 100*time.Millisecond {
						t.Errorf("sender %d: Send %d took %v", g, i, d)
					}
					// Paced, so the writer empties the queue and the link
					// idles: the next frame goes inline into a filling socket.
					time.Sleep(20 * time.Microsecond)
				}
			}(g, next[g])
		}
		wg.Wait()
		for g := range next {
			next[g] += per
		}
		sent += senders * per

		// Resume: read every frame the queue limit did not drop. Those
		// drops were counted by the Sends, which have all returned.
		for want := sent - (a.Stats().FramesDropped - base.FramesDropped); received < want; {
			rctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			msg, err := b.Recv(rctx)
			cancel()
			if err != nil {
				t.Fatalf("cycle %d: %v after %d of %d frames (%+v)", cycle, err, received, sent, a.Stats())
			}
			g, i, ok := parseStalledFrame(msg.Payload)
			if !ok || g >= senders {
				t.Fatalf("garbled frame of %d bytes", len(msg.Payload))
			}
			if i <= seen[g] {
				t.Fatalf("sender %d: frame %d arrived after frame %d", g, i, seen[g])
			}
			seen[g] = i
			received++
		}
	}
	// The writer counts a round after its writev returns, by which time
	// the receiver may already have read the frames: wait for the count.
	st := a.Stats()
	for deadline := time.Now().Add(5 * time.Second); st.FramesSent+st.FramesDropped-base.FramesSent-base.FramesDropped != sent; st = a.Stats() {
		if time.Now().After(deadline) {
			t.Fatalf("sent %d + dropped %d != %d frames", st.FramesSent-base.FramesSent, st.FramesDropped-base.FramesDropped, sent)
		}
		time.Sleep(200 * time.Microsecond)
	}
	if st.FramesDropped == base.FramesDropped {
		t.Logf("no frame dropped: the stall never filled the queue (%+v)", st)
	}
}

// stalledFrame is sender g's frame i: a header naming both and a body
// that only they produce, 1–3 KiB long so socket writes split frames.
func stalledFrame(g, i int) []byte {
	p := make([]byte, 8+1024+(i*131)%2048)
	binary.BigEndian.PutUint32(p[0:], uint32(g))
	binary.BigEndian.PutUint32(p[4:], uint32(i))
	for k := 8; k < len(p); k++ {
		p[k] = byte(g*31 + i + k)
	}
	return p
}

func parseStalledFrame(p []byte) (g, i int, ok bool) {
	if len(p) < 8 {
		return 0, 0, false
	}
	g, i = int(binary.BigEndian.Uint32(p[0:])), int(binary.BigEndian.Uint32(p[4:]))
	want := stalledFrame(g, i)
	if len(want) != len(p) || string(want) != string(p) {
		return 0, 0, false
	}
	return g, i, true
}

// linkConn returns ep's current write connection to peer.
func linkConn(t *testing.T, ep *Endpoint, peer string) net.Conn {
	t.Helper()
	ep.mu.Lock()
	l := ep.links[peer]
	ep.mu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.conn == nil {
		t.Fatalf("%s has no connection to %s", ep.Name(), peer)
	}
	return l.conn
}

// TestSendIntoRetiredLinkCountsDrop: a Send that fetched its link just
// before Crash retired it must count its frame as dropped rather than
// queue it where no writer will ever look, and the retirement must count
// an inline write's unwritten tail too.
func TestSendIntoRetiredLinkCountsDrop(t *testing.T) {
	a, b := pair(t, Config{})
	pingPong(t, a, b, 32) // the link would write the next frame inline
	a.mu.Lock()
	l := a.links["b"]
	a.mu.Unlock()

	// An inline write the socket took only two bytes of. The tail is
	// planted holding the write role, as send's inline path holds it, so
	// a writer still awake from the ping-pong cannot claim and send it
	// before Crash retires the link. The role is never given back: the
	// retired link has no writer left to want it.
	payload := []byte("half-written")
	for {
		l.mu.Lock()
		if !l.writing {
			break
		}
		l.mu.Unlock()
		runtime.Gosched()
	}
	l.writing = true
	binary.BigEndian.PutUint32(l.pre[:], uint32(len(payload)))
	l.setTailLocked(l.conn, payload, 2)
	l.mu.Unlock()

	before := a.Stats().FramesDropped
	a.Crash() // retires l; this Send's link lookup has already happened
	if got := a.Stats().FramesDropped - before; got != 1 {
		t.Errorf("retirement counted %d drops, want 1 for the tail", got)
	}
	l.send([]byte("late"))
	if got := a.Stats().FramesDropped - before; got != 2 {
		t.Errorf("%d drops after a send into the retired link, want 2", got)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.q) != 0 || len(l.tail) != 0 {
		t.Errorf("retired link holds %d queued frames and a %d-piece tail", len(l.q), len(l.tail))
	}
}

// BenchmarkPingPong is the RPC shape on the raw transport: one 32-byte
// frame each way over loopback, both written inline. CI holds it to 0
// allocs/op: a path that wakes the writer again pays its writev cursor.
func BenchmarkPingPong(b *testing.B) {
	x, y := pair(b, Config{})
	round := pingPong(b, x, y, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
}
