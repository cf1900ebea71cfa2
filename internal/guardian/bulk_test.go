package guardian

import (
	"bytes"
	"context"
	"encoding/binary"
	"sync"
	"testing"
	"time"

	"promises/internal/promise"
	"promises/internal/simnet"
	"promises/internal/stream"
)

// TestBulkEchoExactlyOnceUnderLoss drives the whole ride-alone path —
// promise.Call marshals with room, the stream builds each batch in the
// marshalled buffer, the guardian answers the same way — over a network
// that loses 3% of messages and duplicates 2%: 400 calls of 16 KiB, small
// calls mixed in, each executed once, in order, each promise resolving
// with its own bytes. Retransmissions take the copying encoders, so both
// encoders of both directions carry traffic here.
func TestBulkEchoExactlyOnceUnderLoss(t *testing.T) {
	n := simnet.New(simnet.Config{LossRate: 0.03, DupRate: 0.02, Jitter: 200 * time.Microsecond, Seed: 14})
	opts := stream.Options{MaxBatchDelay: time.Millisecond, RTO: 5 * time.Millisecond, MaxRetries: 100, MaxInFlight: 64}
	client, server := MustNew(n, "client", opts), MustNew(n, "server", opts)
	defer func() {
		client.Close()
		server.Close()
		n.Close()
	}()

	var mu sync.Mutex
	var seen []uint64
	ref := server.AddHandler("echo", func(call *Call) ([]any, error) {
		mu.Lock()
		seen = append(seen, binary.BigEndian.Uint64(call.Args[0].([]byte)))
		mu.Unlock()
		return call.Args, nil // views of the datagram, marshalled before they expire
	})
	s := ref.Stream(client.Agent("bulk"))

	const calls = 400
	pattern := bytes.Repeat([]byte("0123456789abcdef"), 1<<10) // 16 KiB
	arg := func(i int) []byte {
		size := len(pattern)
		if i%5 == 4 {
			size = 64 // a small call between the big ones: batches, does not ride alone
		}
		b := append([]byte(nil), pattern[:size]...)
		binary.BigEndian.PutUint64(b, uint64(i))
		return b
	}
	ps := make([]*promise.Promise[[]byte], calls)
	for i := range ps {
		p, err := promise.Call(s, ref.Port, promise.Bytes, arg(i))
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		ps[i] = p
	}
	s.Flush()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for i, p := range ps {
		got, err := p.Claim(ctx)
		if err != nil {
			t.Fatalf("claim %d: %v", i, err)
		}
		if !bytes.Equal(got, arg(i)) {
			t.Fatalf("call %d resolved with %d bytes that are not its own", i, len(got))
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != calls {
		t.Fatalf("%d executions of %d calls", len(seen), calls)
	}
	for i, v := range seen {
		if v != uint64(i) {
			t.Fatalf("execution %d was call %d", i, v)
		}
	}
	if st := n.Stats(); st.MessagesDropped == 0 || st.MessagesDuplicated == 0 {
		t.Fatalf("the network dropped %d and duplicated %d messages; the run proves nothing", st.MessagesDropped, st.MessagesDuplicated)
	}
}
