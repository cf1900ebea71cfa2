package simnet

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"promises/internal/clock"
)

func reliable() *Network { return New(Config{}) }

// waitForDropped polls until the network has dropped at least want
// messages — deterministic evidence the dispatcher decided their fate,
// where a blind sleep would race it.
func waitForDropped(t *testing.T, n *Network, want int64) {
	t.Helper()
	waitForStat(t, func() int64 { return n.Stats().MessagesDropped }, want, "dropped")
}

// waitForDelivered polls until at least want messages have been delivered.
func waitForDelivered(t *testing.T, n *Network, want int64) {
	t.Helper()
	waitForStat(t, func() int64 { return n.Stats().MessagesDelivered }, want, "delivered")
}

func waitForStat(t *testing.T, get func() int64, want int64, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for get() < want {
		if time.Now().After(deadline) {
			t.Fatalf("%s = %d, want >= %d", what, get(), want)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

func TestSendRecv(t *testing.T) {
	n := reliable()
	defer n.Close()
	a := n.MustAddNode("a")
	b := n.MustAddNode("b")
	if err := a.Send("b", []byte("hi")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	msg, err := b.Recv(context.Background())
	if err != nil {
		t.Fatalf("Recv: %v", err)
	}
	if msg.From != "a" || msg.To != "b" || string(msg.Payload) != "hi" {
		t.Errorf("msg = %+v", msg)
	}
}

func TestDuplicateNodeRejected(t *testing.T) {
	n := reliable()
	defer n.Close()
	n.MustAddNode("a")
	if _, err := n.AddNode("a"); !errors.Is(err, ErrDuplicateNode) {
		t.Errorf("duplicate AddNode err = %v", err)
	}
}

func TestSendToUnknownNode(t *testing.T) {
	n := reliable()
	defer n.Close()
	a := n.MustAddNode("a")
	if err := a.Send("ghost", nil); !errors.Is(err, ErrNoSuchNode) {
		t.Errorf("err = %v", err)
	}
}

func TestRecvContextCancel(t *testing.T) {
	n := reliable()
	defer n.Close()
	a := n.MustAddNode("a")
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := a.Recv(ctx)
		done <- err
	}()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("Recv err = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv did not unblock on cancel")
	}
}

func TestPartitionDropsAndHealRestores(t *testing.T) {
	n := reliable()
	defer n.Close()
	a := n.MustAddNode("a")
	b := n.MustAddNode("b")
	n.Partition("a", "b")
	if err := a.Send("b", []byte("lost")); err != nil {
		t.Fatalf("Send during partition should not error locally: %v", err)
	}
	waitForDropped(t, n, 1) // the dispatcher has decided the message's fate
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := b.Recv(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("partitioned message was delivered (err=%v)", err)
	}
	n.Heal("a", "b")
	if err := a.Send("b", []byte("through")); err != nil {
		t.Fatal(err)
	}
	msg, err := b.Recv(context.Background())
	if err != nil || string(msg.Payload) != "through" {
		t.Errorf("after heal: %v %v", msg, err)
	}
	if got := n.Stats().MessagesDropped; got != 1 {
		t.Errorf("dropped = %d, want 1", got)
	}
}

func TestPartitionIsSymmetricAndHealAll(t *testing.T) {
	n := reliable()
	defer n.Close()
	a := n.MustAddNode("a")
	b := n.MustAddNode("b")
	n.Partition("b", "a") // note reversed order
	_ = b.Send("a", []byte("x"))
	waitForDropped(t, n, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := a.Recv(ctx); err == nil {
		t.Error("reverse-direction message crossed partition")
	}
	n.HealAll()
	_ = b.Send("a", []byte("y"))
	if _, err := a.Recv(context.Background()); err != nil {
		t.Errorf("after HealAll: %v", err)
	}
}

func TestCrashLosesInboxAndRecoverRestores(t *testing.T) {
	n := reliable()
	defer n.Close()
	a := n.MustAddNode("a")
	b := n.MustAddNode("b")
	if err := a.Send("b", []byte("queued")); err != nil {
		t.Fatal(err)
	}
	// Let it land.
	waitForDelivered(t, n, 1)
	b.Crash()
	if !b.Crashed() {
		t.Fatal("Crashed() = false after Crash")
	}
	if _, err := b.Recv(context.Background()); !errors.Is(err, ErrCrashed) {
		t.Errorf("Recv on crashed node err = %v", err)
	}
	if err := b.Send("a", nil); !errors.Is(err, ErrCrashed) {
		t.Errorf("Send from crashed node err = %v", err)
	}
	// Messages sent while down are dropped. Crash already counted the
	// purged "queued" message, so the in-crash drop is the second.
	_ = a.Send("b", []byte("while down"))
	waitForDropped(t, n, 2)
	b.Recover()
	if b.Crashed() {
		t.Fatal("Crashed() = true after Recover")
	}
	// The queued and in-crash messages are gone; a fresh one arrives.
	_ = a.Send("b", []byte("fresh"))
	msg, err := b.Recv(context.Background())
	if err != nil || string(msg.Payload) != "fresh" {
		t.Errorf("after recover got %q, %v", msg.Payload, err)
	}
}

func TestCrashUnblocksPendingRecv(t *testing.T) {
	n := reliable()
	defer n.Close()
	a := n.MustAddNode("a")
	done := make(chan error, 1)
	go func() {
		_, err := a.Recv(context.Background())
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	a.Crash()
	select {
	case err := <-done:
		if !errors.Is(err, ErrCrashed) {
			t.Errorf("err = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv did not unblock on crash")
	}
}

// TestRecoverDoesNotHideCrashFromBlockedRecv: a goroutine blocked in Recv
// when the node crashes must be told so even if the node has already
// recovered by the time it runs — reading "network closed" instead, it
// would stop receiving for good on a node that is up. Its next Recv
// delivers from the new inbox.
func TestRecoverDoesNotHideCrashFromBlockedRecv(t *testing.T) {
	n := reliable()
	defer n.Close()
	a := n.MustAddNode("a")
	b := n.MustAddNode("b")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	sawCrash := 0
	for round := 0; round < 200; round++ {
		got := make(chan error, 1)
		entered := make(chan struct{})
		go func() {
			close(entered)
			_, err := b.Recv(ctx)
			got <- err
		}()
		<-entered
		runtime.Gosched() // most rounds, the receiver is blocked by now
		b.Crash()
		b.Recover()
		if err := a.Send("b", []byte{byte(round)}); err != nil {
			t.Fatal(err)
		}
		err := <-got
		if err == nil {
			continue // it reached Recv after the recovery and took the message
		}
		if !errors.Is(err, ErrCrashed) {
			t.Fatalf("round %d: blocked Recv returned %v, want ErrCrashed", round, err)
		}
		sawCrash++
		msg, err := b.Recv(ctx)
		if err != nil || len(msg.Payload) != 1 || msg.Payload[0] != byte(round) {
			t.Fatalf("round %d: Recv after recovery = %v, %v", round, msg.Payload, err)
		}
	}
	if sawCrash == 0 {
		t.Fatal("no round had the receiver blocked when the node crashed")
	}
}

func TestLossRateDropsRoughlyProportionally(t *testing.T) {
	n := New(Config{LossRate: 0.5, Seed: 7})
	defer n.Close()
	a := n.MustAddNode("a")
	n.MustAddNode("b")
	const total = 2000
	for i := 0; i < total; i++ {
		if err := a.Send("b", []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	dropped := n.Stats().MessagesDropped
	if dropped < total/3 || dropped > 2*total/3 {
		t.Errorf("dropped %d of %d at p=0.5", dropped, total)
	}
}

func TestZeroLossDeliversEverything(t *testing.T) {
	n := reliable()
	defer n.Close()
	a := n.MustAddNode("a")
	b := n.MustAddNode("b")
	const total = 500
	for i := 0; i < total; i++ {
		if err := a.Send("b", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < total; i++ {
		if _, err := b.Recv(context.Background()); err != nil {
			t.Fatalf("Recv %d: %v", i, err)
		}
	}
	s := n.Stats()
	if s.MessagesDelivered != total || s.MessagesDropped != 0 {
		t.Errorf("stats = %+v", s)
	}
}

func TestKernelOverheadChargedToSender(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	const overhead = 2 * time.Millisecond
	n := New(Config{KernelOverhead: overhead})
	defer n.Close()
	a := n.MustAddNode("a")
	n.MustAddNode("b")
	start := time.Now()
	const sends = 10
	for i := 0; i < sends; i++ {
		if err := a.Send("b", []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if elapsed := time.Since(start); elapsed < sends*overhead {
		t.Errorf("10 sends took %v, want >= %v", elapsed, sends*overhead)
	}
}

func TestPropagationDelaysDelivery(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	const prop = 20 * time.Millisecond
	n := New(Config{Propagation: prop})
	defer n.Close()
	a := n.MustAddNode("a")
	b := n.MustAddNode("b")
	start := time.Now()
	if err := a.Send("b", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Recv(context.Background()); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < prop {
		t.Errorf("delivery took %v, want >= %v", elapsed, prop)
	}
}

func TestSetLinkDelayOverridesPropagation(t *testing.T) {
	// On a virtual clock the link delays elapse exactly, so the bounds are
	// deterministic and the test takes no real time.
	vclk := clock.NewVirtual()
	vclk.SetAutoAdvance(true)
	defer vclk.SetAutoAdvance(false)
	n := New(Config{Propagation: 50 * time.Millisecond, Clock: vclk})
	defer n.Close()
	a := n.MustAddNode("a")
	b := n.MustAddNode("b")
	n.SetLinkDelay("a", "b", 1*time.Millisecond)
	start := vclk.Now()
	_ = a.Send("b", []byte("x"))
	if _, err := b.Recv(context.Background()); err != nil {
		t.Fatal(err)
	}
	if elapsed := vclk.Now().Sub(start); elapsed > 40*time.Millisecond {
		t.Errorf("fast link took %v", elapsed)
	}
	// Restore default.
	n.SetLinkDelay("a", "b", 0)
	start = vclk.Now()
	_ = a.Send("b", []byte("x"))
	if _, err := b.Recv(context.Background()); err != nil {
		t.Fatal(err)
	}
	if elapsed := vclk.Now().Sub(start); elapsed < 50*time.Millisecond {
		t.Errorf("restored link took %v", elapsed)
	}
}

func TestCloseUnblocksReceivers(t *testing.T) {
	n := reliable()
	a := n.MustAddNode("a")
	done := make(chan error, 1)
	go func() {
		_, err := a.Recv(context.Background())
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	n.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrNetworkDown) {
			t.Errorf("err = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv did not unblock on Close")
	}
	if _, err := n.AddNode("late"); !errors.Is(err, ErrNetworkDown) {
		t.Errorf("AddNode after close err = %v", err)
	}
}

func TestCloseIsIdempotent(t *testing.T) {
	n := reliable()
	n.MustAddNode("a")
	n.Close()
	n.Close()
}

func TestConcurrentSendersAreSafe(t *testing.T) {
	n := reliable()
	defer n.Close()
	recv := n.MustAddNode("hub")
	const workers, per = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		node := n.MustAddNode(fmt.Sprintf("w%d", w))
		wg.Add(1)
		go func(nd *Node) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := nd.Send("hub", []byte{1}); err != nil {
					t.Errorf("Send: %v", err)
					return
				}
			}
		}(node)
	}
	got := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		for got < workers*per {
			if _, err := recv.Recv(context.Background()); err != nil {
				t.Errorf("Recv: %v", err)
				return
			}
			got++
		}
	}()
	wg.Wait()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("received %d of %d", got, workers*per)
	}
}

func TestStatsCountBytes(t *testing.T) {
	n := reliable()
	defer n.Close()
	a := n.MustAddNode("a")
	n.MustAddNode("b")
	_ = a.Send("b", make([]byte, 100))
	_ = a.Send("b", make([]byte, 23))
	if got := n.Stats().BytesSent; got != 123 {
		t.Errorf("BytesSent = %d", got)
	}
}

func TestJitterCanReorder(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	n := New(Config{Jitter: 5 * time.Millisecond, Seed: 3})
	defer n.Close()
	a := n.MustAddNode("a")
	b := n.MustAddNode("b")
	const total = 64
	for i := 0; i < total; i++ {
		if err := a.Send("b", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	reordered := false
	prev := -1
	for i := 0; i < total; i++ {
		msg, err := b.Recv(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if int(msg.Payload[0]) < prev {
			reordered = true
		}
		prev = int(msg.Payload[0])
	}
	if !reordered {
		t.Log("note: jitter produced no reordering this run (seed-dependent)")
	}
}

func TestDuplicationInjection(t *testing.T) {
	n := New(Config{DupRate: 1.0}) // every message duplicated
	defer n.Close()
	a := n.MustAddNode("a")
	b := n.MustAddNode("b")
	const sends = 10
	for i := 0; i < sends; i++ {
		if err := a.Send("b", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	seen := make(map[byte]int)
	for i := 0; i < 2*sends; i++ {
		msg, err := b.Recv(ctx)
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		seen[msg.Payload[0]]++
	}
	for v, c := range seen {
		if c != 2 {
			t.Fatalf("message %d delivered %d times, want 2", v, c)
		}
	}
	st := n.Stats()
	if st.MessagesDuplicated != sends {
		t.Fatalf("MessagesDuplicated = %d, want %d", st.MessagesDuplicated, sends)
	}
}
