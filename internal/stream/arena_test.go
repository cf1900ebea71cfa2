package stream

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"promises/internal/simnet"
	"promises/internal/wire"
)

// arenaVals is the i-th list worker w marshals: its own integers and a
// string whose length varies, so lists straddle chunk ends.
func arenaVals(w, i int) []any {
	return []any{int64(w), int64(i), strings.Repeat(string(rune('a'+w)), i%61)}
}

// TestArenaRetainedListsSurviveCarves: several goroutines marshal on one
// peer at once, through streams and through handler Incomings, and keep
// every list they make. After thousands of carves — many chunks — every
// kept list is still its own encoding: bytes once handed out are never
// handed out again or written again.
func TestArenaRetainedListsSurviveCarves(t *testing.T) {
	n := simnet.New(simnet.Config{})
	p := NewPeer(n.MustAddNode("p"), Options{})
	defer func() {
		p.Close()
		n.Close()
	}()
	const workers, lists = 4, 3000
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := p.Agent(fmt.Sprint("a", w)).Stream("q", "g")
			in := &Incoming{peer: p}
			kept := make([]Marshalled, lists)
			for i := range kept {
				marshal := s.Marshal
				if i%2 == 1 {
					marshal = in.Marshal
				}
				m, err := marshal(arenaVals(w, i)...)
				if err != nil || m.frame() != nil {
					errs <- fmt.Errorf("worker %d list %d: %v, framed %v", w, i, err, m.frame() != nil)
					return
				}
				kept[i] = m
			}
			for i, m := range kept {
				vals, err := wire.Unmarshal(m.Bytes())
				want := arenaVals(w, i)
				if err != nil || fmt.Sprint(vals) != fmt.Sprint(want) {
					errs <- fmt.Errorf("worker %d list %d decodes to %v, %v; want %v", w, i, vals, err, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// reqTap is a simnet node that shows every request batch it sends to see.
type reqTap struct {
	*simnet.Node
	see func(*requestBatch)
}

func (e reqTap) Send(to string, payload []byte) error {
	if kind, rb, pb, _, err := decodeMessage(payload); err == nil && kind == kindRequestBatch {
		e.see(rb)
		releaseRequestBatch(rb)
	} else if err == nil && kind == kindReplyBatch {
		releaseReplyBatch(pb)
	}
	return e.Node.Send(to, payload)
}

// TestRetransmissionCarriesFirstTransmissionArgs: over a network that
// drops and duplicates, a request retransmitted long after its arguments
// were carved — with hundreds of lists carved since, on both peers —
// carries exactly the bytes of its first transmission, and every reply
// (carved from the server's arena, retained, maybe resent) is the call's
// own.
func TestRetransmissionCarriesFirstTransmissionArgs(t *testing.T) {
	cfg := simnet.Config{LossRate: 0.1, DupRate: 0.05, Jitter: 200 * time.Microsecond, Seed: 11}
	opts := Options{MaxBatch: 4, MaxBatchDelay: 500 * time.Microsecond,
		RTO: 4 * time.Millisecond, MaxRetries: 100}
	n := simnet.New(cfg)
	type key struct{ inc, seq uint64 }
	var (
		mu      sync.Mutex
		first   = make(map[key][]byte)
		resent  int
		changed []key
	)
	client := NewPeer(reqTap{n.MustAddNode("client"), func(b *requestBatch) {
		mu.Lock()
		defer mu.Unlock()
		for _, r := range b.Requests {
			k := key{b.Incarnation, r.Seq}
			if was, ok := first[k]; !ok {
				first[k] = bytes.Clone(r.Args)
			} else if resent++; !bytes.Equal(was, r.Args) {
				changed = append(changed, k)
			}
		}
	}}, opts)
	server := NewPeer(n.MustAddNode("server"), opts)
	server.SetDispatcher(func(string) (Handler, bool) { return reMarshal, true })
	defer func() {
		client.Close()
		server.Close()
		n.Close()
	}()

	s := client.Agent("a").Stream("server", "g")
	const calls = 400
	ps := make([]Pending, calls)
	for i := range ps {
		m, err := s.Marshal(arenaVals(0, i)...)
		if err != nil {
			t.Fatal(err)
		}
		if ps[i], err = s.Issue(context.Background(), Req{Port: "echo", Args: m}); err != nil {
			t.Fatal(err)
		}
	}
	s.Flush()
	for i, p := range ps {
		want, _ := wire.Marshal(arenaVals(0, i)...)
		if o := claim(t, p); !o.Normal || !bytes.Equal(o.Payload, want) {
			t.Fatalf("call %d: reply %x, want %x", i, o.Payload, want)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(changed) > 0 {
		t.Fatalf("%d of %d retransmitted requests changed since their first transmission, first (inc, seq) %v",
			len(changed), resent, changed[0])
	}
	if resent == 0 {
		t.Fatal("no request was retransmitted: the loss did not exercise the arena's lifetime")
	}
	t.Logf("%d retransmitted requests, all byte-identical to their first transmission", resent)
}
