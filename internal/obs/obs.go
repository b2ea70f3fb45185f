// Package obs is the repository's dependency-free observability layer:
// atomic counters and gauges, fixed-bucket latency histograms, and a
// registry that exports everything as Prometheus text, a JSON snapshot, or
// a human-readable dump.
//
// The design constraint is the prediction hot path: T3 serves a single
// prediction in ~4 µs with zero heap allocations (see DESIGN.md), so every
// record operation here is a handful of atomic adds on preallocated
// storage — no locks, no maps, no interface boxing, no allocation. Metric
// handles are package-level pointers resolved at init time (see
// metrics.go), so instrumented code never performs a name lookup.
//
// Per-stage timing on the hot path is additionally gated behind the flight
// recorder's Sampler (internal/obs/trace) so that the clock reads (two time.Now calls per stage) are paid only on
// a small fraction of predictions; the always-on whole-prediction counter
// and latency histogram cost two clock reads and four atomic adds total.
package obs

import (
	"math"
	"sync"
	"sync/atomic"
)

// Export unit scales: the value of one raw histogram unit in export units.
// Durations are recorded in nanoseconds and exported in seconds (the
// Prometheus convention); q-errors are recorded in fixed-point milli-units
// and exported as plain ratios; plain counts are recorded as themselves.
const (
	// UnitNanoseconds marks a histogram recording nanoseconds, exported as
	// seconds.
	UnitNanoseconds = 1e-9
	// UnitMilli marks a histogram recording 1/1000ths, exported as ratios
	// (used for q-error, where 1.0 is a perfect prediction).
	UnitMilli = 1e-3
	// UnitCount marks a histogram recording plain counts (batch sizes).
	UnitCount = 1.0
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v    atomic.Uint64
	name string
	help string
}

// NewCounter creates an unregistered counter (see Registry.NewCounter).
func NewCounter(name, help string) *Counter { return &Counter{name: name, help: help} }

// Name returns the metric name.
func (c *Counter) Name() string { return c.name }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Label is one constant metric label, attached at registration time (used
// for info-style gauges like t3_build_info; high-cardinality labels are
// deliberately unsupported).
type Label struct{ Name, Value string }

// Gauge is an atomically settable float64 value.
type Gauge struct {
	bits   atomic.Uint64
	name   string
	help   string
	labels string // pre-rendered {k="v",...} sample suffix, "" when unlabeled
}

// NewGauge creates an unregistered gauge (see Registry.NewGauge).
func NewGauge(name, help string) *Gauge { return &Gauge{name: name, help: help} }

// NewLabeledGauge creates an unregistered gauge whose samples carry the
// given constant labels.
func NewLabeledGauge(name, help string, labels ...Label) *Gauge {
	return &Gauge{name: name, help: help, labels: renderLabels(labels)}
}

// Name returns the metric name.
func (g *Gauge) Name() string { return g.name }

// sampleName returns the exposition sample name: the metric name plus the
// pre-rendered constant-label suffix.
func (g *Gauge) sampleName() string { return g.name + g.labels }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add atomically adds delta — a CAS loop on the float bits, so concurrent
// Add/Inc/Dec never lose updates.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+delta)) {
			return
		}
	}
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Sampler admits one in every N calls (N rounded up to a power of two), so
// hot paths can bound the cost of optional instrumentation. Sample is one
// atomic add; the admission pattern is deterministic (every N-th call),
// which keeps sampled stage timings representative under steady load.
type Sampler struct {
	n    atomic.Uint64
	mask uint64
}

// NewSampler returns a sampler admitting one in every `every` calls,
// rounded up to the next power of two. every <= 1 admits every call.
func NewSampler(every int) *Sampler {
	if every <= 1 {
		return &Sampler{}
	}
	n := uint64(1)
	for n < uint64(every) {
		n <<= 1
	}
	return &Sampler{mask: n - 1}
}

// Sample reports whether this call is admitted.
func (s *Sampler) Sample() bool { return s.n.Add(1)&s.mask == 0 }

// Registry holds an ordered set of metrics and renders them for export.
// Registration takes a lock; recording never does.
type Registry struct {
	mu       sync.Mutex
	counters []*Counter
	gauges   []*Gauge
	hists    []*Histogram
	onExport []func()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Default is the process-wide registry all built-in T3 metrics register
// with (see metrics.go). cmd/t3serve exposes it at /metrics.
var Default = NewRegistry()

// NewCounter creates and registers a counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	c := NewCounter(name, help)
	r.mu.Lock()
	r.counters = append(r.counters, c)
	r.mu.Unlock()
	return c
}

// NewGauge creates and registers a gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	g := NewGauge(name, help)
	r.mu.Lock()
	r.gauges = append(r.gauges, g)
	r.mu.Unlock()
	return g
}

// NewLabeledGauge creates and registers a gauge with constant labels.
func (r *Registry) NewLabeledGauge(name, help string, labels ...Label) *Gauge {
	g := NewLabeledGauge(name, help, labels...)
	r.mu.Lock()
	r.gauges = append(r.gauges, g)
	r.mu.Unlock()
	return g
}

// OnExport registers a hook that runs at the start of every export walk
// (WritePrometheus, Snapshot, DumpText) — the place to refresh gauges that
// sample process state, like the Go runtime stats.
func (r *Registry) OnExport(fn func()) {
	r.mu.Lock()
	r.onExport = append(r.onExport, fn)
	r.mu.Unlock()
}

// runExportHooks invokes the registered export hooks outside the lock.
func (r *Registry) runExportHooks() {
	r.mu.Lock()
	hooks := append([]func(){}, r.onExport...)
	r.mu.Unlock()
	for _, fn := range hooks {
		fn()
	}
}

// NewHistogram creates and registers a histogram. unit is one of the Unit*
// constants: the value of one recorded raw unit in export units.
func (r *Registry) NewHistogram(name, help string, unit float64) *Histogram {
	h := NewHistogram(name, help, unit)
	r.mu.Lock()
	r.hists = append(r.hists, h)
	r.mu.Unlock()
	return h
}

// metrics returns stable copies of the metric lists for export walks.
func (r *Registry) metrics() ([]*Counter, []*Gauge, []*Histogram) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*Counter(nil), r.counters...),
		append([]*Gauge(nil), r.gauges...),
		append([]*Histogram(nil), r.hists...)
}
