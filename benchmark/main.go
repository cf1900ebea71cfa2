// Command benchmark measures the promise/call-stream stack end to end and
// layer by layer, on six named workloads. README.md describes the
// workloads, the metrics and how to read them; BENCHMARK.json at the root
// of the repository names them for the driver.
//
//	benchmark -workload W -seed N -seconds S -trace 0|1   one pass of one workload
//	benchmark [-seed N] [-seconds S] [-json out.json]     every workload, both passes
//	benchmark -compare a.json b.json                      judge b against a
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// commit is set by run.sh at link time.
var commit = "unknown"

// metricDef names one metric as BENCHMARK.json does. bound is the share of
// the parent's median an end-to-end metric may worsen by.
type metricDef struct {
	name, unit, better string
	bound              float64
}

var endToEnd = []metricDef{
	{"ops_per_s", "1/s", "higher", 0.25},
	{"lat_p50_us", "us", "lower", 0.25},
	{"lat_p99_us", "us", "lower", 0.25},
	{"goodput_mb_s", "MB/s", "higher", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"wire_bytes_per_op", "B", "lower", 0.05},
	{"allocs_per_op", "1", "lower", 0.05},
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

var perLayer = []metricDef{
	{name: "wire.marshal_ns", unit: "ns", better: "lower"},
	{name: "wire.unmarshal_ns", unit: "ns", better: "lower"},
	{name: "wire.allocs_per_op", unit: "1", better: "lower"},
	{name: "wire.encoded_bytes_per_op", unit: "B", better: "lower"},
	{name: "transport.send_ns", unit: "ns", better: "lower"},
	{name: "transport.transit_p50_us", unit: "us", better: "lower"},
	{name: "transport.transit_p99_us", unit: "us", better: "lower"},
	{name: "transport.recv_blocked_ratio", unit: "1", better: "higher"},
	{name: "transport.frames_per_op", unit: "1", better: "lower"},
	{name: "transport.bytes_per_op", unit: "B", better: "lower"},
	{name: "tcpnet.frames_per_writev", unit: "1", better: "higher"},
	{name: "tcpnet.frames_dropped", unit: "count", better: "lower"},
	{name: "tcpnet.dials", unit: "count", better: "lower"},
	{name: "simnet.dropped_ratio", unit: "1", better: "lower"},
	{name: "simnet.duplicated_ratio", unit: "1", better: "lower"},
	{name: "stream.calls_per_batch", unit: "1", better: "higher"},
	{name: "stream.batch_bytes_mean", unit: "B", better: "higher"},
	{name: "stream.batch_wait_p50_us", unit: "us", better: "lower"},
	{name: "stream.batch_wait_p99_us", unit: "us", better: "lower"},
	{name: "stream.reply_wait_p50_us", unit: "us", better: "lower"},
	{name: "stream.reply_wait_p99_us", unit: "us", better: "lower"},
	{name: "stream.resolve_p50_us", unit: "us", better: "lower"},
	{name: "stream.resolve_p99_us", unit: "us", better: "lower"},
	{name: "stream.flow_blocked_ratio", unit: "1", better: "lower"},
	{name: "stream.retransmits_per_kop", unit: "1", better: "lower"},
	{name: "stream.dup_requests_per_kop", unit: "1", better: "lower"},
	{name: "stream.reply_retransmits_per_kop", unit: "1", better: "lower"},
	{name: "stream.rto_fires_per_kop", unit: "1", better: "lower"},
	{name: "stream.breaks", unit: "count", better: "lower"},
	{name: "stream.epoch_wave_mean", unit: "1", better: "higher"},
	{name: "stream.pipe_stages_per_op", unit: "1", better: "lower"},
	{name: "stream.pipe_forward_retransmits", unit: "count", better: "lower"},
	{name: "stream.enq_to_exec_p50_us", unit: "us", better: "lower"},
	{name: "stream.enq_to_exec_p99_us", unit: "us", better: "lower"},
	{name: "stream.exec_to_claim_p50_us", unit: "us", better: "lower"},
	{name: "stream.exec_to_claim_p99_us", unit: "us", better: "lower"},
	{name: "stream.self_ns", unit: "ns", better: "lower"},
	{name: "guardian.exec_ns", unit: "ns", better: "lower"},
	{name: "guardian.executed_per_op", unit: "1", better: "lower"},
	{name: "guardian.self_ns", unit: "ns", better: "lower"},
	{name: "promise.call_ns", unit: "ns", better: "lower"},
	{name: "promise.claim_wait_p50_us", unit: "us", better: "lower"},
	{name: "promise.claim_blocked_ratio", unit: "1", better: "lower"},
	{name: "promise.self_ns", unit: "ns", better: "lower"},
	{name: "ladder.transport_ns", unit: "ns", better: "lower"},
	{name: "ladder.stream_ns", unit: "ns", better: "lower"},
	{name: "ladder.guardian_ns", unit: "ns", better: "lower"},
	{name: "ladder.promise_ns", unit: "ns", better: "lower"},
	{name: "ladder.closure_pct", unit: "%", better: "lower"},
	{name: "driver.gen_late_share", unit: "1", better: "lower"},
	{name: "driver.lat_p999_us", unit: "us", better: "lower"},
	{name: "driver.slice_spread_pct", unit: "%", better: "lower"},
	{name: "driver.trace_overhead_pct", unit: "%", better: "lower"},
	{name: "driver.chain_caller_ratio", unit: "1", better: "higher"},
	{name: "driver.fail_ratio", unit: "1", better: "lower"},
}

// report is what -json writes: where and how the run was made, and every
// pass with the raw per-slice values behind its medians.
type report struct {
	Seed       int64     `json:"seed"`
	Seconds    int       `json:"seconds"`
	NProc      int       `json:"nproc"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	GoVersion  string    `json:"go_version"`
	Commit     string    `json:"commit"`
	Passes     []*result `json:"passes"`
}

func main() {
	workload := flag.String("workload", "", "workload to run (default: all of them)")
	seed := flag.Int64("seed", 1, "seed of the workload's inputs")
	seconds := flag.Int("seconds", 10, "seconds of measurement per pass")
	tracePass := flag.Int("trace", -1, "0: untraced pass (end-to-end metrics); 1: traced pass (per-layer metrics); default both")
	jsonPath := flag.String("json", "", "write the full report to this file")
	spansPath := flag.String("spans", "", "write the traced pass's spans to this file")
	compare := flag.Bool("compare", false, "compare two reports (files, or directories of them): -compare a b")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two reports"))
		}
		regressed, err := compareReports(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	if *seconds < 1 || *seconds > 60 {
		fatal(fmt.Errorf("-seconds %d: want 1 to 60", *seconds))
	}
	run := specs
	if *workload != "" {
		sp, ok := specNamed(*workload)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *workload))
		}
		run = []spec{sp}
	}

	// A pass that hangs must still end: the driver allows 180 s.
	time.AfterFunc(150*time.Second*time.Duration(len(run)), func() {
		fatal(fmt.Errorf("watchdog: the run did not finish"))
	})

	pl := planFor(*seed, *seconds)
	rep := &report{Seed: *seed, Seconds: *seconds, NProc: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: commit}
	for _, sp := range run {
		if *tracePass != 1 {
			res, err := runUntraced(sp, pl)
			if err != nil {
				fatal(err)
			}
			rep.Passes = append(rep.Passes, res)
			printPass(res, endToEnd)
		}
		if *tracePass != 0 {
			res, err := runTraced(sp, pl, *spansPath)
			if err != nil {
				fatal(err)
			}
			rep.Passes = append(rep.Passes, res)
			printPass(res, perLayer)
		}
	}
	if *jsonPath != "" {
		data, err := json.MarshalIndent(rep, "", " ")
		if err == nil {
			err = os.WriteFile(*jsonPath, data, 0o644)
		}
		if err != nil {
			fatal(err)
		}
	}
	var failed uint64
	for _, res := range rep.Passes {
		failed += res.Failed
	}
	if *workload != "" {
		printVerdict(rep.Passes)
	}
	if failed != 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// printPass prints a pass as lines of "workload name unit value".
func printPass(res *result, defs []metricDef) {
	for _, d := range defs {
		fmt.Printf("%s %s %s %v\n", res.Workload, d.name, d.unit, res.Metrics[d.name])
	}
	fmt.Printf("%s attempted count %d\n%s failed count %d\n", res.Workload, res.Attempted, res.Workload, res.Failed)
}

// printVerdict prints, as the last line of a single workload's run, the
// one JSON object the driver reads.
func printVerdict(passes []*result) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Metrics: map[string]value{}}
	for _, res := range passes {
		out.Attempted += res.Attempted
		out.Failed += res.Failed
		defs := endToEnd
		if res.Traced {
			defs = perLayer
		}
		for _, d := range defs {
			out.Metrics[d.name] = value{res.Metrics[d.name], d.unit}
		}
	}
	out.Correct = out.Failed == 0
	data, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(data))
}
