package tcpnet

import (
	"context"
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"promises/internal/transport"
)

// pair builds two cross-routed loopback endpoints and cleans them up.
func pair(t *testing.T, cfg Config) (a, b *Endpoint) {
	t.Helper()
	eps, err := Loopback(cfg, "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, ep := range eps {
			ep.Close()
		}
	})
	return eps["a"], eps["b"]
}

// recvOne waits (bounded) for the next message on an endpoint.
func recvOne(t *testing.T, ep *Endpoint) transport.Message {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	msg, err := ep.Recv(ctx)
	if err != nil {
		t.Fatalf("%s: Recv: %v", ep.Name(), err)
	}
	return msg
}

// TestSendRecvBothDirections: a dials b (first send), then b replies
// over the SAME adopted connection — no listener needed on the return
// path beyond the one connection.
func TestSendRecvBothDirections(t *testing.T) {
	a, b := pair(t, Config{})
	if err := a.Send("b", []byte("ping")); err != nil {
		t.Fatal(err)
	}
	msg := recvOne(t, b)
	if msg.From != "a" || msg.To != "b" || string(msg.Payload) != "ping" {
		t.Fatalf("b got %+v", msg)
	}
	if err := b.Send("a", []byte("pong")); err != nil {
		t.Fatal(err)
	}
	back := recvOne(t, a)
	if back.From != "b" || string(back.Payload) != "pong" {
		t.Fatalf("a got %+v", back)
	}
	// The reply should not have needed a second connection.
	if d := b.Stats().Dials; d != 0 {
		t.Fatalf("b dialed %d times; reply should ride the accepted conn", d)
	}
}

// TestDialOnlyEndpoint: an endpoint with no listener reaches a server
// through its route and is reachable back over the dialed connection.
func TestDialOnlyEndpoint(t *testing.T) {
	srv, err := Listen("srv", "127.0.0.1:0", Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Listen("cli", "", Config{Routes: map[string]string{"srv": srv.Addr()}})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if cli.Addr() != "" {
		t.Fatalf("dial-only endpoint has addr %q", cli.Addr())
	}
	if err := cli.Send("srv", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if msg := recvOne(t, srv); msg.From != "cli" {
		t.Fatalf("srv got %+v", msg)
	}
	if err := srv.Send("cli", []byte("welcome")); err != nil {
		t.Fatal(err)
	}
	if msg := recvOne(t, cli); string(msg.Payload) != "welcome" {
		t.Fatalf("cli got %+v", msg)
	}
}

// TestNoRoute: sending to an unknown peer fails with the portable
// transport.ErrNoRoute.
func TestNoRoute(t *testing.T) {
	a, _ := pair(t, Config{})
	err := a.Send("nobody", []byte("x"))
	if !errors.Is(err, transport.ErrNoRoute) {
		t.Fatalf("err = %v, want ErrNoRoute", err)
	}
}

// TestOversizedSendRefused: a payload beyond MaxFrame is refused locally
// rather than poisoning the connection.
func TestOversizedSendRefused(t *testing.T) {
	a, b := pair(t, Config{MaxFrame: 1024})
	if err := a.Send("b", make([]byte, 2048)); err == nil {
		t.Fatal("oversized send accepted")
	}
	// The connection (if any) still works for legal frames.
	if err := a.Send("b", []byte("ok")); err != nil {
		t.Fatal(err)
	}
	if msg := recvOne(t, b); string(msg.Payload) != "ok" {
		t.Fatalf("got %+v", msg)
	}
}

// TestManyFramesConcurrentSenders: frames sent from several goroutines at
// once all arrive, exactly once, each sender's in the order it sent them.
func TestManyFramesConcurrentSenders(t *testing.T) {
	a, b := pair(t, Config{})
	const senders, per = 4, 500
	const n = senders * per
	for g := 0; g < senders; g++ {
		go func(g int) {
			for i := 0; i < per; i++ {
				_ = a.Send("b", []byte(fmt.Sprintf("%d/%d", g, i)))
			}
		}(g)
	}
	next := make([]int, senders)
	for k := 0; k < n; k++ {
		var g, i int
		msg := recvOne(t, b)
		if _, err := fmt.Sscanf(string(msg.Payload), "%d/%d", &g, &i); err != nil || g < 0 || g >= senders {
			t.Fatalf("garbled frame %q", msg.Payload)
		}
		if i != next[g] {
			t.Fatalf("sender %d: frame %d arrived, want %d", g, i, next[g])
		}
		next[g]++
	}
	// The writer counts a round after its writev returns, by which time
	// the receiver may already have read the frames: wait for the count.
	st := a.Stats()
	for deadline := time.Now().Add(5 * time.Second); st.FramesSent != n; st = a.Stats() {
		if time.Now().After(deadline) {
			t.Fatalf("FramesSent = %d, want %d", st.FramesSent, n)
		}
		time.Sleep(200 * time.Microsecond)
	}
	if st.Writevs >= st.FramesSent {
		t.Logf("writevs %d for %d frames (no vectored batching observed — load-dependent)", st.Writevs, st.FramesSent)
	}
}

// TestCrashRecover: Crash makes Send and Recv fail with ErrCrashed and
// severs connections; Recover restores service and the peer's traffic
// flows again after its link redials.
func TestCrashRecover(t *testing.T) {
	a, b := pair(t, Config{RedialFloor: 5 * time.Millisecond})
	if err := a.Send("b", []byte("pre")); err != nil {
		t.Fatal(err)
	}
	recvOne(t, b)

	b.Crash()
	if !b.Crashed() {
		t.Fatal("not crashed")
	}
	if err := b.Send("a", []byte("x")); !errors.Is(err, transport.ErrCrashed) {
		t.Fatalf("Send while crashed: %v", err)
	}
	if _, err := b.Recv(context.Background()); !errors.Is(err, transport.ErrCrashed) {
		t.Fatalf("Recv while crashed: %v", err)
	}

	b.Recover()
	// a's link redials with backoff until b accepts again; loss in the
	// window is expected, so retry like the stream layer would.
	deadline := time.Now().Add(5 * time.Second)
	got := make(chan transport.Message, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		msg, err := b.Recv(ctx)
		if err == nil {
			got <- msg
		}
	}()
	for {
		if err := a.Send("b", []byte("post")); err != nil {
			t.Fatal(err)
		}
		select {
		case msg := <-got:
			if string(msg.Payload) != "post" {
				t.Fatalf("got %+v", msg)
			}
			return
		case <-time.After(20 * time.Millisecond):
			if time.Now().After(deadline) {
				t.Fatal("no delivery after recover")
			}
		}
	}
}

// TestDropConnectionsReconnects: a forced connection drop (no crash)
// loses at most the in-flight frames; subsequent sends redial and flow.
func TestDropConnectionsReconnects(t *testing.T) {
	a, b := pair(t, Config{RedialFloor: 5 * time.Millisecond})
	if err := a.Send("b", []byte("one")); err != nil {
		t.Fatal(err)
	}
	recvOne(t, b)

	a.DropConnections()
	b.DropConnections()

	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := a.Send("b", []byte("two")); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		msg, err := b.Recv(ctx)
		cancel()
		if err == nil {
			if string(msg.Payload) != "two" {
				t.Fatalf("got %+v", msg)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no delivery after reconnect")
		}
	}
	if d := a.Stats().Dials; d < 2 {
		t.Fatalf("a dialed %d times; expected a redial after the drop", d)
	}
}

// TestClose: Close is terminal — ErrClosed from both directions, and a
// second Close is a no-op.
func TestClose(t *testing.T) {
	a, b := pair(t, Config{})
	_ = b
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send("b", []byte("x")); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("Send after close: %v", err)
	}
	if _, err := a.Recv(context.Background()); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("Recv after close: %v", err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestGarbageConnectionIgnored: a raw TCP client speaking nonsense is
// hung up on without disturbing real peers.
func TestGarbageConnectionIgnored(t *testing.T) {
	a, b := pair(t, Config{})
	// Poke b's listener with garbage directly.
	conn, err := dialRaw(b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	_, _ = conn.Write([]byte("GET / HTTP/1.1\r\n\r\n"))
	conn.Close()

	if err := a.Send("b", []byte("real")); err != nil {
		t.Fatal(err)
	}
	if msg := recvOne(t, b); string(msg.Payload) != "real" {
		t.Fatalf("got %+v", msg)
	}
}

// dialRaw opens a plain TCP connection for protocol-garbage tests.
func dialRaw(addr string) (net.Conn, error) {
	return net.DialTimeout("tcp", addr, time.Second)
}

// TestUnreachablePeerDropsCounted: frames queued for a peer that cannot
// be dialed are dropped AND counted — in the aggregate drop counter and
// in the dedicated unreachable counter (PR 7 dropped them silently; the
// metric makes a blackholed peer distinguishable from queue overflow).
func TestUnreachablePeerDropsCounted(t *testing.T) {
	// Reserve a port and close the listener so the route points at a
	// dead address.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()

	ep, err := Listen("a", "127.0.0.1:0", Config{
		Routes:      map[string]string{"ghost": dead},
		DialTimeout: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ep.Close() })

	if err := ep.Send("ghost", []byte("into the void")); err != nil {
		t.Fatalf("Send to unreachable peer should be accepted-and-lost, got %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		st := ep.Stats()
		if st.FramesUnreachable > 0 {
			if st.FramesDropped < st.FramesUnreachable {
				t.Fatalf("aggregate drops %d < unreachable drops %d",
					st.FramesDropped, st.FramesUnreachable)
			}
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("unreachable drop never counted: %+v", ep.Stats())
}
