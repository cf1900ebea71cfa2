package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"promises/internal/simnet"
	"promises/internal/tcpnet"
	"promises/internal/transport"
)

// contract is BENCHMARK.json as the driver reads it.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []contractMetric `json:"end_to_end"`
	PerLayer   []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name, Unit, Better string
	Bound              float64
}

func readContract(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		t.Fatal(err)
	}
	return c
}

// The program's tables and BENCHMARK.json must name the same workloads and
// metrics, with the same units, directions and bounds.
func TestContractMatchesTables(t *testing.T) {
	c := readContract(t)
	var gated []spec
	for _, sp := range specs {
		if !sp.ungated {
			gated = append(gated, sp)
		}
	}
	if len(c.Workloads) != len(gated) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program gates %d", len(c.Workloads), len(gated))
	}
	for i, sp := range gated {
		if c.Workloads[i].Name != sp.name || c.Workloads[i].Why != sp.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)",
				i, c.Workloads[i].Name, c.Workloads[i].Why, sp.name, sp.why)
		}
		if len(sp.why) > 200 {
			t.Errorf("%s: why is %d characters, over 200", sp.name, len(sp.why))
		}
	}
	check := func(kind string, got []contractMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json names %d metrics, the program %d", kind, len(got), len(want))
		}
		name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
		unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
		for i, d := range want {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better || g.Bound != d.bound {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %+v", kind, i, g, d)
			}
			if !name.MatchString(d.name) || !unit.MatchString(d.unit) {
				t.Errorf("%s: name %q or unit %q is outside the contract's alphabet", kind, d.name, d.unit)
			}
			if kind == "end_to_end" && (d.bound <= 0 || d.bound > 0.25) {
				t.Errorf("%s: bound %v is outside (0, 0.25]", d.name, d.bound)
			}
		}
	}
	check("end_to_end", c.EndToEnd, endToEnd)
	check("per_layer", c.PerLayer, perLayer)
	if c.RunSeconds < 1 || c.RunSeconds > 60 {
		t.Errorf("run_seconds %d", c.RunSeconds)
	}
}

// quick is the plan the tests run: the real shape with 50 ms slices.
func quick() plan {
	ms := time.Millisecond
	return plan{seed: 7, setupReps: 2, warm: 50 * ms, slice: 50 * ms, slices: 2,
		refSlices: 2, refSlice: 50 * ms, traced: 50 * ms, rung: 40 * ms, control: 40 * ms}
}

// Every workload emits exactly the metrics the tables name, fails no op,
// and keeps the invariants the layer table in README.md states. Nothing
// here asserts a timing.
func TestEveryWorkloadEmitsTheNamedMetrics(t *testing.T) {
	for _, sp := range specs {
		sp := sp
		t.Run(sp.name, func(t *testing.T) {
			un, err := runUntraced(sp, quick())
			if err != nil {
				t.Fatal(err)
			}
			tr, err := runTraced(sp, quick(), filepath.Join(t.TempDir(), "spans.json"))
			if err != nil {
				t.Fatal(err)
			}
			for _, pass := range []struct {
				res  *result
				defs []metricDef
			}{{un, endToEnd}, {tr, perLayer}} {
				if len(pass.res.Metrics) != len(pass.defs) {
					t.Errorf("emitted %d metrics, the table names %d", len(pass.res.Metrics), len(pass.defs))
				}
				for _, d := range pass.defs {
					v, ok := pass.res.Metrics[d.name]
					if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
						t.Errorf("%s: missing or not a number (%v)", d.name, v)
					}
				}
				if pass.res.Failed != 0 || pass.res.Attempted == 0 {
					t.Errorf("attempted %d, failed %d", pass.res.Attempted, pass.res.Failed)
				}
			}
			for _, d := range endToEnd {
				if un.Metrics[d.name] <= 0 {
					t.Errorf("%s = %v: end-to-end metrics are never 0", d.name, un.Metrics[d.name])
				}
			}
			m := tr.Metrics
			stages := 0.0
			if sp.stages > 0 {
				stages = float64(sp.stages - 1)
			}
			if got := m["stream.pipe_stages_per_op"]; got != stages {
				t.Errorf("stream.pipe_stages_per_op = %v, want %v", got, stages)
			}
			if want := math.Max(1, float64(sp.stages)); m["guardian.executed_per_op"] != want {
				t.Errorf("guardian.executed_per_op = %v, want %v", m["guardian.executed_per_op"], want)
			}
			if sp.mode == rpcLoop && m["stream.calls_per_batch"] != 1 {
				t.Errorf("stream.calls_per_batch = %v on rpc_serial, want 1", m["stream.calls_per_batch"])
			}
			if sum := m["ladder.transport_ns"] + m["stream.self_ns"] + m["guardian.self_ns"] + m["promise.self_ns"]; math.Abs(sum-m["ladder.promise_ns"]) > 1e-6*m["ladder.promise_ns"] {
				t.Errorf("self times add up to %v, the top rung is %v", sum, m["ladder.promise_ns"])
			}
			if sp.net == tcpNet && m["tcpnet.frames_dropped"] != 0 {
				t.Errorf("tcpnet.frames_dropped = %v: the transit matching needs 0", m["tcpnet.frames_dropped"])
			}
			if m["transport.transit_p50_us"] <= 0 || m["stream.enq_to_exec_p50_us"] <= 0 {
				t.Errorf("no transit (%v) or handler spans (%v) were matched", m["transport.transit_p50_us"], m["stream.enq_to_exec_p50_us"])
			}
		})
	}
}

// The taps embed the concrete endpoint, so whatever optional transport
// capability the endpoint has, the stream layer still finds on the tap.
func TestTapsKeepEveryCapability(t *testing.T) {
	eps, err := tcpnet.Loopback(tcpnet.Config{}, "a")
	if err != nil {
		t.Fatal(err)
	}
	defer eps["a"].Close()
	net := simnet.New(simnet.Config{})
	defer net.Close()
	node := net.MustAddNode("a")

	caps := map[string]func(any) bool{
		"ShardedSender":   func(v any) bool { _, ok := v.(transport.ShardedSender); return ok },
		"Faulter":         func(v any) bool { _, ok := v.(transport.Faulter); return ok },
		"Closer":          func(v any) bool { _, ok := v.(transport.Closer); return ok },
		"CostModeler":     func(v any) bool { _, ok := v.(transport.CostModeler); return ok },
		"ClockProvider":   func(v any) bool { _, ok := v.(transport.ClockProvider); return ok },
		"MetricsProvider": func(v any) bool { _, ok := v.(transport.MetricsProvider); return ok },
	}
	for _, pair := range []struct {
		name         string
		inner, outer transport.Endpoint
	}{
		{"tcpnet", eps["a"], &tappedTCP{Endpoint: eps["a"], tap: newTap()}},
		{"simnet", node, &tappedSim{Node: node, tap: newTap()}},
	} {
		for name, has := range caps {
			if has(pair.inner) && !has(pair.outer) {
				t.Errorf("%s: the tap hides %s", pair.name, name)
			}
		}
	}
}

// The same seed gives the same open-loop schedule, and exactly rate*dur
// ops fall due inside the slice.
func TestScheduleIsSeeded(t *testing.T) {
	sp, _ := specNamed("open_loop")
	a := schedule(rand.New(rand.NewSource(3)), sp, time.Second)
	b := schedule(rand.New(rand.NewSource(3)), sp, time.Second)
	c := schedule(rand.New(rand.NewSource(4)), sp, time.Second)
	if len(a) != len(b) || len(a) == len(c) {
		t.Fatalf("bursts: %d and %d from one seed, %d from another", len(a), len(b), len(c))
	}
	total := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("burst %d differs under one seed: %+v, %+v", i, a[i], b[i])
		}
		if a[i].n < 1 || a[i].n > sp.window || a[i].due < 0 || a[i].due >= int64(time.Second) {
			t.Fatalf("burst %d out of range: %+v", i, a[i])
		}
		total += a[i].n
	}
	if total != int(sp.rate) {
		t.Errorf("%d ops in a second, want %d", total, int(sp.rate))
	}
}

// iqrShare follows Python's statistics.quantiles(values, n=4).
func TestIQRShareMatchesPython(t *testing.T) {
	// statistics.quantiles([1,2,4,7,11,16,22,29,37,46], n=4) = [3.5, 13.5, 31.0]
	vals := []float64{46, 1, 29, 2, 22, 4, 16, 7, 11, 37}
	if got, want := iqrShare(vals), (31.0-3.5)/13.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("iqrShare = %v, want %v", got, want)
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, ops, lat, wire []float64) string {
		rep := report{Passes: []*result{{Workload: "stream_small",
			Metrics: map[string]float64{"ops_per_s": median(ops), "lat_p50_us": median(lat), "wire_bytes_per_op": median(wire)},
			Slices:  map[string][]float64{"ops_per_s": ops, "lat_p50_us": lat, "wire_bytes_per_op": wire}}}}
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.json", []float64{100, 101, 99, 100}, []float64{10, 10.1, 9.9, 10}, []float64{50, 50, 50, 50})
	// ops_per_s falls 40% (bound 25%), lat_p50_us is too noisy to call, wire_bytes_per_op holds.
	b := write("b.json", []float64{60, 61, 59, 60}, []float64{8, 14, 9, 13}, []float64{50, 50.1, 50, 50})
	var out strings.Builder
	regressed, err := compareReports(&out, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !regressed {
		t.Error("a 40% fall in ops_per_s was not reported as a regression")
	}
	for metric, verdict := range map[string]string{"ops_per_s": "regressed", "lat_p50_us": "unresolved", "wire_bytes_per_op": "ok"} {
		found := false
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.Contains(line, metric) && strings.Contains(line, verdict) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: want verdict %s in\n%s", metric, verdict, out.String())
		}
	}
	if regressed, err = compareReports(&out, a, a); err != nil || regressed {
		t.Errorf("a report against itself: regressed=%v err=%v", regressed, err)
	}
}
