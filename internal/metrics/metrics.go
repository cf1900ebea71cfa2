// Package metrics is a dependency-free metrics registry sized for the
// stream hot path: once a metric handle has been resolved from the
// registry, updating it is lock-free and allocation-free.
//
// Three metric kinds cover everything the layers export:
//
//   - Counter: monotone event count, sharded across cache lines so
//     concurrent senders and receivers don't bounce one word between
//     cores.
//   - Gauge: instantaneous level (queue depth, window occupancy).
//   - Histogram: fixed upper-bound buckets chosen at registration, for
//     latencies (nanoseconds) and sizes (bytes or counts).
//
// Registration is get-or-create by name and takes a mutex; layers
// resolve their handles once at construction (the same way stream peers
// inherit a clock) and never touch the registry afterwards. Snapshots
// are deterministic: names sort lexicographically and no wall-clock
// timestamps are recorded, so two seeded runs produce byte-identical
// encodings.
package metrics

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// counterCells is the number of cache-line-padded cells a Counter
// spreads its count over. Must be a power of two.
const counterCells = 8

type counterCell struct {
	n atomic.Uint64
	_ [56]byte // pad to a 64-byte cache line
}

// Counter is a monotonically increasing count. Adds pick a shard from
// the caller's stack address, so distinct goroutines usually land on
// distinct cache lines; reads sum all shards.
type Counter struct {
	cells [counterCells]counterCell
}

// shardIndex derives a shard from the address of a stack local: cheap,
// allocation-free, and stable enough within a goroutine that repeated
// adds from one goroutine stay on one cache line.
func shardIndex() int {
	var b byte
	return int(uintptr(unsafe.Pointer(&b))>>6) & (counterCells - 1)
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	c.cells[shardIndex()].n.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current total across shards.
func (c *Counter) Value() uint64 {
	var total uint64
	for i := range c.cells {
		total += c.cells[i].n.Load()
	}
	return total
}

// Gauge is an instantaneous signed level.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the gauge by delta (negative to decrease).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram counts observations into fixed buckets. Bucket i counts
// observations v <= bounds[i]; the final implicit bucket counts
// everything larger. Observe is a short linear scan plus three atomic
// adds — no locks, no allocation.
type Histogram struct {
	bounds []uint64
	counts []atomic.Uint64 // len(bounds)+1; last is the overflow bucket
	sum    atomic.Uint64
	count  atomic.Uint64
}

// Observe records one observation.
func (h *Histogram) Observe(v uint64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// ObserveDuration records a duration in nanoseconds; negative durations
// clamp to zero.
func (h *Histogram) ObserveDuration(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.Observe(uint64(d))
}

// Count returns the number of observations so far.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the running sum of observed values.
func (h *Histogram) Sum() uint64 { return h.sum.Load() }

// PowersOf(base, first, n) returns n ascending bounds first, first*base,
// first*base^2, ... — the standard exponential ladder for latency and
// size buckets.
func PowersOf(base, first uint64, n int) []uint64 {
	bounds := make([]uint64, n)
	v := first
	for i := 0; i < n; i++ {
		bounds[i] = v
		v *= base
	}
	return bounds
}

// Registry is a named collection of metrics. The zero value is not
// usable; construct with NewRegistry. A nil *Registry is a valid
// "metrics disabled" value: lookups on it return nil handles, and
// layers guard their update sites on a nil handle-set instead.
type Registry struct {
	mu     sync.Mutex
	counts map[string]*Counter
	gauges map[string]*Gauge
	hists  map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counts: make(map[string]*Counter),
		gauges: make(map[string]*Gauge),
		hists:  make(map[string]*Histogram),
	}
}

// Counter returns the counter registered under name, creating it on
// first use. Returns nil on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counts[name]
	if !ok {
		c = &Counter{}
		r.counts[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first
// use. Returns nil on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it
// with the given bucket bounds on first use. Later calls return the
// existing histogram regardless of bounds, so all registrants of a name
// must agree on its ladder. Returns nil on a nil registry.
func (r *Registry) Histogram(name string, bounds []uint64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		b := make([]uint64, len(bounds))
		copy(b, bounds)
		h = &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
		r.hists[name] = h
	}
	return h
}

// HistogramValue is a point-in-time copy of one histogram.
type HistogramValue struct {
	Count  uint64   `json:"count"`
	Sum    uint64   `json:"sum"`
	Bounds []uint64 `json:"bounds"`
	Counts []uint64 `json:"counts"` // len(Bounds)+1; last is overflow
}

// Quantile estimates the q-quantile (q in [0,1]) of the observed
// distribution from the fixed buckets. The target rank is located by a
// cumulative scan and the value is linearly interpolated within the
// containing bucket's [lower, upper] bounds (the first bucket's lower
// bound is 0). The overflow bucket has no finite upper bound, so a rank
// landing there reports the largest finite bound — a deliberate
// underestimate that keeps the tail columns honest about the ladder's
// range — or the mean when the histogram has no bounds at all. An empty
// histogram reports 0.
func (h HistogramValue) Quantile(q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(h.Count)
	var cum uint64
	for i, n := range h.Counts {
		if n == 0 {
			continue
		}
		prev := cum
		cum += n
		if float64(cum) < target {
			continue
		}
		if i >= len(h.Bounds) {
			break // overflow bucket
		}
		lo := float64(0)
		if i > 0 {
			lo = float64(h.Bounds[i-1])
		}
		hi := float64(h.Bounds[i])
		frac := (target - float64(prev)) / float64(n)
		if frac < 0 {
			frac = 0
		}
		return lo + frac*(hi-lo)
	}
	if len(h.Bounds) > 0 {
		return float64(h.Bounds[len(h.Bounds)-1])
	}
	return float64(h.Sum) / float64(h.Count)
}

// Snapshot is a point-in-time copy of every metric in a registry. Maps
// are plain values so snapshots marshal with encoding/json (which sorts
// map keys, keeping encodings deterministic).
type Snapshot struct {
	Counters   map[string]uint64         `json:"counters"`
	Gauges     map[string]int64          `json:"gauges"`
	Histograms map[string]HistogramValue `json:"histograms"`
}

// Snapshot copies the current value of every registered metric. On a
// nil registry it returns an empty (non-nil) snapshot.
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{
		Counters:   make(map[string]uint64),
		Gauges:     make(map[string]int64),
		Histograms: make(map[string]HistogramValue),
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counts {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		hv := HistogramValue{
			Count:  h.count.Load(),
			Sum:    h.sum.Load(),
			Bounds: append([]uint64(nil), h.bounds...),
			Counts: make([]uint64, len(h.counts)),
		}
		for i := range h.counts {
			hv.Counts[i] = h.counts[i].Load()
		}
		s.Histograms[name] = hv
	}
	return s
}

// Delta returns s - prev per metric: counter and histogram values
// subtract (metrics absent from prev subtract zero); gauges keep their
// value from s, since levels don't difference meaningfully.
func (s *Snapshot) Delta(prev *Snapshot) *Snapshot {
	d := &Snapshot{
		Counters:   make(map[string]uint64),
		Gauges:     make(map[string]int64),
		Histograms: make(map[string]HistogramValue),
	}
	for name, v := range s.Counters {
		d.Counters[name] = v - prev.Counters[name]
	}
	for name, v := range s.Gauges {
		d.Gauges[name] = v
	}
	for name, hv := range s.Histograms {
		pv := prev.Histograms[name]
		out := HistogramValue{
			Count:  hv.Count - pv.Count,
			Sum:    hv.Sum - pv.Sum,
			Bounds: append([]uint64(nil), hv.Bounds...),
			Counts: make([]uint64, len(hv.Counts)),
		}
		for i := range hv.Counts {
			var p uint64
			if i < len(pv.Counts) {
				p = pv.Counts[i]
			}
			out.Counts[i] = hv.Counts[i] - p
		}
		d.Histograms[name] = out
	}
	return d
}

// sortedKeys returns map keys in lexicographic order, the iteration
// order used by every encoder.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
