package main

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync"
	"time"

	"promises/internal/guardian"
	"promises/internal/promise"
	"promises/internal/stream"
	"promises/internal/wire"
)

// ladder measures the stack one layer at a time, from outside: each rung
// runs the workload's loop (same transport, argument, window) through one
// more layer's public functions than the rung below, so a layer's self
// time is its rung minus the rung below and the four self times add up to
// the top rung by construction. The top rung is the workload itself less
// the driver's checks; ladder.closure_pct is how far it lands from the
// reference rate, which says how much of an op the ladder accounts for.
func ladder(m map[string]float64, sp spec, pl plan, refRate float64) error {
	var arg any = int64(1) << 20
	if sp.payload > 0 {
		arg = make([]byte, sp.payload)
	}
	window := sp.window * sp.drivers
	warm := pl.rung / 5

	// wire: the argument tuple through Marshal and Unmarshal.
	enc, err := wire.Marshal(arg)
	if err != nil {
		return err
	}
	m["wire.marshal_ns"], err = perCall(0, pl.rung/4, times(64, func() error {
		_, err := wire.Marshal(arg)
		return err
	}))
	if err != nil {
		return err
	}
	m["wire.unmarshal_ns"], err = perCall(0, pl.rung/4, times(64, func() error {
		_, err := wire.Unmarshal(enc)
		return err
	}))
	if err != nil {
		return err
	}
	m["wire.allocs_per_op"] = allocsPerPair(arg, enc)
	m["wire.encoded_bytes_per_op"] = float64(len(enc))

	// Rung 1: raw endpoints echoing frames of the size and count the
	// traced slice saw, divided by the calls a frame carried.
	perBatch := math.Max(1, m["stream.calls_per_batch"])
	frame := make([]byte, int(math.Max(1, m["stream.batch_bytes_mean"])))
	frames := int(math.Ceil(float64(window) / perBatch))
	l, err := ladderLinks(sp, pl)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(bg)
	var echo sync.WaitGroup
	echo.Add(1)
	go func() {
		defer echo.Done()
		for {
			msg, err := l.eps[1].Recv(ctx)
			if err != nil {
				return
			}
			_ = l.eps[1].Send(msg.From, msg.Payload) // a send that fails shows as a round that never ends
		}
	}()
	perFrame, err := perCall(warm, pl.rung, func() (int, error) {
		for i := 0; i < frames; i++ {
			if err := l.eps[0].Send("server", frame); err != nil {
				return 0, err
			}
		}
		for i := 0; i < frames; i++ {
			if _, err := l.eps[0].Recv(ctx); err != nil {
				return 0, err
			}
		}
		return frames, nil
	})
	cancel()
	echo.Wait()
	l.close()
	if err != nil {
		return err
	}
	transportNs := perFrame / perBatch

	// Rung 2: two stream peers with a trivial dispatcher.
	if l, err = ladderLinks(sp, pl); err != nil {
		return err
	}
	pa, pb := stream.NewPeer(l.eps[0], stream.Options{}), stream.NewPeer(l.eps[1], stream.Options{})
	pb.SetDispatcher(func(string) (stream.Handler, bool) {
		return func(in *stream.Incoming) stream.Outcome { return stream.NormalOutcome(in.Args) }, true
	})
	streamNs, err := perCall(warm, pl.rung, rawRound(sp, pa.Agent("ladder").Stream("server", guardian.DefaultGroup), enc, window))
	pa.Close()
	pb.Close()
	l.close()
	if err != nil {
		return err
	}

	// Rungs 3 and 4: a guardian pair; raw stream calls with pre-marshalled
	// arguments, then promise.Call and Claim.
	if l, err = ladderLinks(sp, pl); err != nil {
		return err
	}
	defer l.close()
	ga, err := guardian.NewOn(l.eps[0], stream.Options{})
	if err != nil {
		return err
	}
	defer ga.Close()
	gb, err := guardian.NewOn(l.eps[1], stream.Options{})
	if err != nil {
		return err
	}
	defer gb.Close()
	s := gb.AddHandler("echo", func(call *guardian.Call) ([]any, error) { return call.Args, nil }).Stream(ga.Agent("ladder"))
	guardianNs, err := perCall(warm, pl.rung, rawRound(sp, s, enc, window))
	if err != nil {
		return err
	}
	var top func() (int, error)
	switch {
	case sp.mode == rpcLoop:
		top = times(1, func() error {
			_, err := promise.RPC(bg, s, "echo", promise.Bytes, arg)
			return err
		})
	case sp.payload > 0:
		top = promiseRound(s, promise.Bytes, arg, window)
	default:
		top = promiseRound(s, promise.Int, arg, window)
	}
	promiseNs, err := perCall(warm, pl.rung, top)
	if err != nil {
		return err
	}

	m["ladder.transport_ns"] = transportNs
	m["ladder.stream_ns"] = streamNs
	m["ladder.guardian_ns"] = guardianNs
	m["ladder.promise_ns"] = promiseNs
	m["stream.self_ns"] = streamNs - transportNs
	m["guardian.self_ns"] = guardianNs - streamNs
	m["promise.self_ns"] = promiseNs - guardianNs
	m["ladder.closure_pct"] = 100 * math.Abs(promiseNs-1e9/refRate) / (1e9 / refRate)
	return nil
}

// ladderLinks is a fresh client/server pair on the workload's transport,
// without fault injection: a rung that waits for every frame cannot run
// on a network that loses them.
func ladderLinks(sp spec, pl plan) (*links, error) {
	return newLinks(sp.net, lanCost(pl.seed, false), nil, clientName, "server")
}

// perCall repeats round for warm, discards that, repeats it for dur in
// ladderChunks chunks, and returns the nanoseconds per call of the best
// decile of the chunks (the same estimator, for the same reason, as the
// end-to-end metrics: self times are differences of rungs, and a rung that
// caught a slow half second would swamp them). round returns the calls it
// made.
func perCall(warm, dur time.Duration, round func() (int, error)) (float64, error) {
	run := func(d time.Duration) (float64, error) {
		calls, start := 0, nanos()
		for calls == 0 || nanos()-start < int64(d) {
			n, err := round()
			if err != nil {
				return 0, err
			}
			calls += n
		}
		return float64(nanos()-start) / float64(calls), nil
	}
	if warm > 0 {
		if _, err := run(warm); err != nil {
			return 0, err
		}
	}
	chunks := make([]float64, ladderChunks)
	for i := range chunks {
		var err error
		if chunks[i], err = run(dur / ladderChunks); err != nil {
			return 0, err
		}
	}
	return bestDecile(chunks, "lower"), nil
}

const ladderChunks = 20

// times makes a round of n calls of f.
func times(n int, f func() error) func() (int, error) {
	return func() (int, error) {
		for i := 0; i < n; i++ {
			if err := f(); err != nil {
				return 0, err
			}
		}
		return n, nil
	}
}

// rawRound is the workload's loop on the stream layer's own API, with
// pre-marshalled arguments: one Stream.RPC, or window calls, a flush, then
// wait and release each.
func rawRound(sp spec, s *stream.Stream, enc []byte, window int) func() (int, error) {
	if sp.mode == rpcLoop {
		return times(1, func() error {
			o, err := s.RPC(bg, "echo", enc)
			if err == nil && !o.Normal {
				err = errors.New("ladder: a raw stream RPC raised")
			}
			return err
		})
	}
	pend := make([]stream.Pending, window)
	return func() (int, error) {
		for i := range pend {
			var err error
			if pend[i], err = s.Call("echo", enc); err != nil {
				return 0, err
			}
		}
		s.Flush()
		for _, p := range pend {
			o, err := p.Wait(bg)
			if err != nil {
				return 0, err
			}
			if !o.Normal {
				return 0, errors.New("ladder: a raw stream call raised")
			}
			p.Release()
		}
		return window, nil
	}
}

// promiseRound is the same loop on the promise layer's API.
func promiseRound[T any](s *stream.Stream, dec promise.Decoder[T], arg any, window int) func() (int, error) {
	ps := make([]*promise.Promise[T], window)
	return func() (int, error) {
		for i := range ps {
			var err error
			if ps[i], err = promise.Call(s, "echo", dec, arg); err != nil {
				return 0, err
			}
		}
		s.Flush()
		for _, p := range ps {
			if _, err := p.Claim(bg); err != nil {
				return 0, err
			}
		}
		return window, nil
	}
}

// allocsPerPair counts the heap objects one Marshal plus one Unmarshal of
// the argument tuple allocate.
func allocsPerPair(arg any, enc []byte) float64 {
	const n = 1000
	// ReadMemStats, not mallocCount: the cheap counter lags by up to a
	// span of objects per size class, which is invisible over a slice of
	// millions of allocations and decisive over a few thousand.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		_, _ = wire.Marshal(arg) // both succeeded above, on the same input
		_, _ = wire.Unmarshal(enc)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / n
}
