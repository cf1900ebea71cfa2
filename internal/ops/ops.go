// Package ops is the live operations plane: a small HTTP server, built
// only on the standard library, that exposes a running process's
// observability surfaces — the metrics registry, per-stream health, and
// the trace flight recorder — plus net/http/pprof. Every daemon
// (gradesd, mailer) mounts it behind an -ops=addr flag, and
// cmd/streamscope -live attaches to one or more of these endpoints to
// merge their rings into a cross-process causal waterfall.
//
// Endpoints:
//
//	/metrics   deterministic text table (?format=json for the snapshot)
//	/healthz   JSON per-peer stream state: role, incarnation, credit,
//	           in-flight window, delivery/completion cursors
//	/trace     JSON drain of the flight recorder: ring window, anomaly
//	           snapshots, anomaly count
//	/debug/pprof/...  the standard pprof handlers
//
// The server is read-only and side-effect-free: scraping it never
// perturbs the streams it observes beyond the brief per-stream lock
// Health() takes. It binds its own mux, never the default one, so
// importing ops does not leak handlers into other servers.
package ops

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"promises/internal/metrics"
	"promises/internal/stream"
	"promises/internal/trace"
)

// PeerHealth is what /healthz needs from a stream peer. *stream.Peer
// satisfies it; the indirection keeps test fakes trivial.
type PeerHealth interface {
	Health() []stream.StreamHealth
}

// Config names the process and wires in its observability surfaces.
// Every field is optional: a nil registry serves an empty snapshot, a
// nil recorder serves an empty trace dump, and no peers serve an empty
// stream list — so a process can mount the plane before any of its
// guardians exist.
type Config struct {
	Node     string          // process name reported in every reply
	Metrics  *metrics.Registry
	Recorder *trace.Recorder
	Peers    []PeerHealth // each contributes its streams to /healthz
}

// HealthReply is /healthz's JSON schema (pinned by the CI ops-boot
// check): the node name, the scrape instant, and every live stream.
type HealthReply struct {
	Node    string                `json:"node"`
	Now     time.Time             `json:"now"`
	Streams []stream.StreamHealth `json:"streams"`
}

// TraceDump is /trace's JSON schema: the flight recorder's current
// window plus its retained anomaly snapshots. streamscope -live decodes
// exactly this shape from each attached process.
type TraceDump struct {
	Node      string                  `json:"node"`
	Anomalies uint64                  `json:"anomalies"`
	Events    []trace.Event           `json:"events"`
	Snapshots []trace.AnomalySnapshot `json:"snapshots,omitempty"`
}

// Server is one process's ops plane, serving until Close.
type Server struct {
	cfg Config
	ln  net.Listener
	srv *http.Server
}

// Serve binds addr (":0" picks a free port — read it back with Addr)
// and starts serving the ops endpoints in a background goroutine.
func Serve(addr string, cfg Config) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{cfg: cfg, ln: ln}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/trace", s.handleTrace)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go s.srv.Serve(ln)
	return s, nil
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server and releases the listener.
func (s *Server) Close() error { return s.srv.Close() }

// handleMetrics serves the registry snapshot: the deterministic aligned
// text table by default, the JSON snapshot with ?format=json.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.cfg.Metrics.Snapshot()
	if r.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		snap.WriteJSON(w)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	snap.WriteText(w)
}

// handleHealthz serves every registered peer's stream state, in each
// peer's deterministic (role, key) order.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	streams := make([]stream.StreamHealth, 0, 8)
	for _, p := range s.cfg.Peers {
		streams = append(streams, p.Health()...)
	}
	writeJSON(w, HealthReply{Node: s.cfg.Node, Now: time.Now(), Streams: streams})
}

// handleTrace drains the flight recorder: the bounded ring's current
// window (oldest first) and the anomaly snapshots it auto-flushed.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	dump := TraceDump{Node: s.cfg.Node, Events: []trace.Event{}}
	if rec := s.cfg.Recorder; rec != nil {
		dump.Events = rec.Events()
		dump.Snapshots = rec.Snapshots()
		dump.Anomalies = rec.Anomalies()
	}
	writeJSON(w, dump)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	enc.Encode(v)
}

// Plane is the daemon-side wiring for the ops plane: the metrics
// registry every guardian in the process inherits, the always-on flight
// recorder their peers record into, and the address the HTTP server
// will bind. A nil Plane (flag unset) disables all of it — every method
// is nil-safe and free.
type Plane struct {
	addr     string
	Registry *metrics.Registry
	Recorder *trace.Recorder
}

// NewPlane builds the plane for -ops=addr, or returns nil when the flag
// is unset. The flight recorder holds the most recent 16384 events and
// up to 8 anomaly snapshots.
func NewPlane(addr string) *Plane {
	if addr == "" {
		return nil
	}
	return &Plane{
		addr:     addr,
		Registry: metrics.NewRegistry(),
		Recorder: trace.NewRecorder(1<<14, 8),
	}
}

// Instrument threads the plane's registry into the stream options the
// process builds its guardians with.
func (p *Plane) Instrument(opts stream.Options) stream.Options {
	if p != nil {
		opts.Metrics = p.Registry
	}
	return opts
}

// Serve installs the flight recorder on each peer and starts the HTTP
// server. The returned stop function is a no-op on a nil plane.
func (p *Plane) Serve(node string, peers ...*stream.Peer) (stop func(), err error) {
	if p == nil {
		return func() {}, nil
	}
	hp := make([]PeerHealth, len(peers))
	for i, pr := range peers {
		pr.SetTracer(p.Recorder)
		hp[i] = pr
	}
	srv, err := Serve(p.addr, Config{
		Node: node, Metrics: p.Registry, Recorder: p.Recorder, Peers: hp,
	})
	if err != nil {
		return nil, err
	}
	fmt.Printf("ops plane on http://%s (/metrics /healthz /trace /debug/pprof)\n", srv.Addr())
	return func() { srv.Close() }, nil
}
