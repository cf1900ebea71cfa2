package grades

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"promises/internal/clock"
	"promises/internal/exception"
	"promises/internal/simnet"
	"promises/internal/stream"
	"promises/internal/trace"
)

func fastOpts() stream.Options {
	return stream.Options{MaxBatch: 16, MaxBatchDelay: time.Millisecond,
		RTO: 10 * time.Millisecond, MaxRetries: 4}
}

type world struct {
	net    *simnet.Network
	db     *DB
	pr     *Printer
	client *Client
}

func newWorld(t *testing.T, cfg simnet.Config) *world {
	t.Helper()
	n := simnet.New(cfg)
	db, err := NewDB(n, "gradesdb", fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	pr, err := NewPrinter(n, "printer", fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	client, err := NewClient(n, "client", fastOpts(), db.Ref(), pr.Ref())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		client.G.Close()
		db.G.Close()
		pr.G.Close()
		n.Close()
	})
	return &world{net: n, db: db, pr: pr, client: client}
}

// newVirtualWorld is newWorld on an auto-advancing virtual clock: modeled
// per-call delays and watchdog deadlines elapse without real waiting.
func newVirtualWorld(t *testing.T, cfg simnet.Config) (*world, *clock.Virtual) {
	t.Helper()
	vclk := clock.NewVirtual()
	cfg.Clock = vclk
	vclk.SetAutoAdvance(true)
	// Registered before newWorld's cleanup so (LIFO) the clock advances
	// until the guardians have closed.
	t.Cleanup(func() { vclk.SetAutoAdvance(false) })
	return newWorld(t, cfg), vclk
}

// clockCtx bounds a run by d elapsed on clk, so the deadline is virtual
// under a virtual clock (context.WithTimeout would count real time).
func clockCtx(clk clock.Clock, d time.Duration) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(context.Background())
	tm := clk.NewTimer(d)
	go func() {
		defer tm.Stop()
		select {
		case <-tm.C():
			cancel()
		case <-ctx.Done():
		}
	}()
	return ctx, cancel
}

// checkOutput verifies the printed list: every student exactly once, in
// alphabetical order, paired with the correct average.
func checkOutput(t *testing.T, w *world, grades []SInfo) {
	t.Helper()
	lines := w.pr.Lines()
	if len(lines) != len(grades) {
		t.Fatalf("printed %d lines, want %d", len(lines), len(grades))
	}
	for i, s := range grades {
		want := fmt.Sprintf("%s %.2f", s.Student, w.db.Average(s.Student))
		if lines[i] != want {
			t.Fatalf("line %d = %q, want %q", i, lines[i], want)
		}
	}
}

func TestWorkloadShape(t *testing.T) {
	g := Workload(10)
	if len(g) != 10 {
		t.Fatalf("len = %d", len(g))
	}
	for i := 1; i < len(g); i++ {
		if g[i-1].Student >= g[i].Student {
			t.Fatal("workload must be alphabetically ordered")
		}
	}
}

func TestSequentialFigure31(t *testing.T) {
	w := newWorld(t, simnet.Config{})
	grades := Workload(30)
	if err := w.client.RunSequential(context.Background(), grades); err != nil {
		t.Fatal(err)
	}
	checkOutput(t, w, grades)
}

func TestForksFigure41(t *testing.T) {
	w := newWorld(t, simnet.Config{})
	grades := Workload(30)
	if err := w.client.RunForks(context.Background(), grades); err != nil {
		t.Fatal(err)
	}
	checkOutput(t, w, grades)
}

func TestCoenterFigure42(t *testing.T) {
	w := newWorld(t, simnet.Config{})
	grades := Workload(30)
	if err := w.client.RunCoenter(context.Background(), grades); err != nil {
		t.Fatal(err)
	}
	checkOutput(t, w, grades)
}

func TestPipelinedGrades(t *testing.T) {
	w := newWorld(t, simnet.Config{})
	grades := Workload(30)
	if err := w.client.RunPipelined(context.Background(), grades); err != nil {
		t.Fatal(err)
	}
	checkOutput(t, w, grades)
}

func TestRepeatedGradesUpdateAverage(t *testing.T) {
	w := newWorld(t, simnet.Config{})
	grades := []SInfo{
		{Student: "ann", Grade: 80},
		{Student: "ann", Grade: 100},
		{Student: "bob", Grade: 60},
	}
	if err := w.client.RunSequential(context.Background(), grades); err != nil {
		t.Fatal(err)
	}
	if avg := w.db.Average("ann"); avg != 90 {
		t.Fatalf("ann average = %v", avg)
	}
	lines := w.pr.Lines()
	// Second ann line carries the running average at that point: 90.
	if lines[1] != "ann 90.00" {
		t.Fatalf("lines = %v", lines)
	}
}

func TestCoenterTerminatesOnPrinterFailure(t *testing.T) {
	// The printer's stream raises cannot_print; the recording arm must be
	// terminated instead of hanging, and the run must report the problem.
	w := newWorld(t, simnet.Config{})
	w.pr.SetFailing(true)
	grades := Workload(20)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := w.client.RunCoenter(ctx, grades)
	if err == nil {
		t.Fatal("expected an error from the failing printer")
	}
	if ctx.Err() != nil {
		t.Fatal("run hung until the watchdog; coenter should terminate promptly")
	}
}

func TestCoenterTerminatesOnDBPartition(t *testing.T) {
	// The stream to the grades database breaks; both arms terminate, the
	// whole composition returns unavailable, and nothing hangs.
	w := newWorld(t, simnet.Config{})
	w.net.Partition("client", "gradesdb")
	grades := Workload(10)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := w.client.RunCoenter(ctx, grades)
	// Either arm may notice first: the printing arm claims unavailable, or
	// the recording arm's synch reports exception_reply.
	if !exception.IsUnavailable(err) && !exception.Is(err, "exception_reply") {
		t.Fatalf("err = %v, want unavailable or exception_reply", err)
	}
	if ctx.Err() != nil {
		t.Fatal("composition hung")
	}
}

func TestForksNaiveHangsWhenRecorderDiesEarly(t *testing.T) {
	// The paper's termination problem, demonstrated deterministically: the
	// recording process terminates early after 4 of 10 calls; in the naive
	// Figure 4-1 program the printing process hangs forever waiting to
	// dequeue the 5th promise (bounded here by a deadline).
	w, clk := newVirtualWorld(t, simnet.Config{})
	w.client.FailRecordingAfter = 4
	grades := Workload(10)

	// The hang is bounded by 250ms of VIRTUAL time, which auto-advance
	// runs off in milliseconds of real time.
	ctx, cancel := clockCtx(clk, 250*time.Millisecond)
	defer cancel()
	err := w.client.RunForksNaive(ctx, grades)
	if err == nil {
		t.Fatal("naive forks run should not succeed")
	}
	if ctx.Err() == nil {
		t.Fatalf("naive forks terminated without hanging: %v", err)
	}
}

func TestCoenterTerminatesWhenRecorderDiesEarly(t *testing.T) {
	// Same early termination, but the coenter wounds the printing arm; the
	// composition ends promptly with the recorder's exception.
	w := newWorld(t, simnet.Config{})
	w.client.FailRecordingAfter = 4
	grades := Workload(10)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := w.client.RunCoenter(ctx, grades)
	if !exception.Is(err, "cannot_record") {
		t.Fatalf("err = %v", err)
	}
	if ctx.Err() != nil {
		t.Fatal("coenter run hung")
	}
}

func TestForksFixedTerminatesWhenRecorderDiesEarly(t *testing.T) {
	// The fixed fork version closes the queue, so the printer drains and
	// fails fast instead of hanging.
	w := newWorld(t, simnet.Config{})
	w.client.FailRecordingAfter = 4
	grades := Workload(10)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := w.client.RunForks(ctx, grades)
	if !exception.Is(err, "cannot_record") {
		t.Fatalf("err = %v", err)
	}
	if ctx.Err() != nil {
		t.Fatal("fixed forks run hung")
	}
}

func TestForksFixedDoesNotHangOnPartition(t *testing.T) {
	w := newWorld(t, simnet.Config{})
	w.net.Partition("client", "gradesdb")
	grades := Workload(10)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := w.client.RunForks(ctx, grades)
	if err == nil {
		t.Fatal("forks run should fail under partition")
	}
	if ctx.Err() != nil {
		t.Fatal("fixed forks run hung")
	}
}

func TestAtomicCommitsOnSuccess(t *testing.T) {
	w := newWorld(t, simnet.Config{})
	grades := Workload(15)
	if err := w.client.RunCoenterAtomic(context.Background(), grades); err != nil {
		t.Fatal(err)
	}
	checkOutput(t, w, grades)
	for _, s := range grades {
		if w.db.Count(s.Student) != 1 {
			t.Fatalf("student %s has %d grades", s.Student, w.db.Count(s.Student))
		}
	}
}

func TestAtomicRollsBackOnPrinterFailure(t *testing.T) {
	// All-or-nothing: if printing fails partway, the recorded grades are
	// compensated away.
	w := newWorld(t, simnet.Config{})
	w.pr.SetFailing(true)
	grades := Workload(12)
	err := w.client.RunCoenterAtomic(context.Background(), grades)
	if err == nil {
		t.Fatal("expected failure")
	}
	// Compensation is asynchronous at the DB; poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	for {
		remaining := 0
		for _, s := range grades {
			remaining += w.db.Count(s.Student)
		}
		if remaining == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d grades still recorded after abort", remaining)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestCompositionOverlapsPipelining is §4's claim as event order rather
// than elapsed time. With records produced incrementally, the sequential
// program (Figure 3-1) makes every record_grade call before its first
// print call, so the printer sits idle until recording has been started in
// full; under coenter (Figure 4-2) the printer is at work while the
// recorder is still producing. The first half is program order; the second
// is separated by most of the run's modeled time.
func TestCompositionOverlapsPipelining(t *testing.T) {
	grades := Workload(24)
	// printsBeforeRecordingEnds runs one strategy and reports whether the
	// printer executed its first call before the client made its last
	// record_grade call.
	printsBeforeRecordingEnds := func(run func(*Client, context.Context, []SInfo) error) bool {
		w, _ := newVirtualWorld(t, simnet.Config{Propagation: 200 * time.Microsecond})
		w.client.ProduceCost = 500 * time.Microsecond
		ring := trace.NewRing(0)
		w.client.G.Peer().SetTracer(ring)
		w.pr.G.Peer().SetTracer(ring)
		if err := run(w.client, context.Background(), grades); err != nil {
			t.Fatal(err)
		}
		checkOutput(t, w, grades)
		lastRecord, firstPrint := -1, -1
		for i, e := range ring.Events() {
			switch {
			case e.Kind == trace.CallEnqueued && strings.Contains(e.Stream, "->gradesdb/"):
				lastRecord = i
			case e.Kind == trace.CallExecuted && firstPrint < 0:
				firstPrint = i
			}
		}
		if lastRecord < 0 || firstPrint < 0 {
			t.Fatalf("trace is missing the record calls (%d) or the print executions (%d)", lastRecord, firstPrint)
		}
		return firstPrint < lastRecord
	}
	if printsBeforeRecordingEnds((*Client).RunSequential) {
		t.Error("sequential: the printer executed a call before the last record_grade call was made")
	}
	if !printsBeforeRecordingEnds((*Client).RunCoenter) {
		t.Error("coenter: the printer executed nothing until the last record_grade call had been made; no overlap")
	}
}

func TestAllThreeProduceIdenticalOutput(t *testing.T) {
	grades := Workload(25)
	var outputs [3][]string
	for i, run := range []func(*Client, context.Context, []SInfo) error{
		(*Client).RunSequential, (*Client).RunForks, (*Client).RunCoenter,
	} {
		w := newWorld(t, simnet.Config{Jitter: 100 * time.Microsecond, Seed: int64(i + 1)})
		if err := run(w.client, context.Background(), grades); err != nil {
			t.Fatalf("strategy %d: %v", i, err)
		}
		outputs[i] = w.pr.Lines()
	}
	for i := 1; i < 3; i++ {
		if len(outputs[i]) != len(outputs[0]) {
			t.Fatalf("strategy %d printed %d lines, strategy 0 printed %d",
				i, len(outputs[i]), len(outputs[0]))
		}
		for j := range outputs[0] {
			if outputs[i][j] != outputs[0][j] {
				t.Fatalf("strategy %d line %d = %q, strategy 0 = %q",
					i, j, outputs[i][j], outputs[0][j])
			}
		}
	}
}
