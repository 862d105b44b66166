// Package obs is the zero-dependency observability layer: a
// concurrency-safe instrument registry (counters, gauges, fixed-bucket
// histograms, auto-ranging quantile histograms, and labeled instrument
// vectors), a probe-lifecycle tracer emitting structured span events
// with an in-process subscription fanout, and an HTTP scrape surface
// (Serve).
//
// Both halves are nil-safe: a nil *Registry hands out nil instruments,
// and every operation on a nil instrument or nil *Tracer is a no-op
// costing one pointer check. Hot paths therefore thread instruments
// unconditionally and pay nothing when observability is disabled.
//
// The registry's instruments are backed by sync/atomic operations so a
// single instance can be shared across the goroutine-per-node
// dist.Cluster without locks on the update path.
package obs

import (
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotone atomic event counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. No-op on a nil counter.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one. No-op on a nil counter.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count; 0 on a nil counter.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic last-value instrument.
type Gauge struct {
	bits atomic.Uint64
}

// Set records the gauge's current value. No-op on a nil gauge.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the last set value; 0 on a nil gauge.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets. Bucket i counts
// observations v with v <= Bounds[i] (and greater than the previous
// bound); one extra overflow bucket catches everything beyond the last
// bound. All updates are atomic.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Int64 // len(bounds)+1, last is overflow
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits, CAS-updated
}

// Observe records one sample. No-op on a nil histogram.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		sum := math.Float64frombits(old) + v
		if h.sumBits.CompareAndSwap(old, math.Float64bits(sum)) {
			return
		}
	}
}

// Count returns the total number of observations; 0 on a nil histogram.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values; 0 on a nil histogram.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Buckets returns the upper bounds and the per-bucket counts; the counts
// slice has one extra trailing overflow entry.
func (h *Histogram) Buckets() (bounds []float64, counts []int64) {
	if h == nil {
		return nil, nil
	}
	bounds = append([]float64(nil), h.bounds...)
	counts = make([]int64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return bounds, counts
}

// index is a concurrency-safe get-or-create map: the registry keeps one
// per instrument kind, keyed by name, and every vector keeps its
// children in one, keyed by joined label values.
type index[V any] struct {
	mu sync.RWMutex
	// byKey holds the members. guarded by mu
	byKey map[string]V
}

// lookup returns the member at key, if there is one.
func (x *index[V]) lookup(key string) (V, bool) {
	x.mu.RLock()
	v, ok := x.byKey[key]
	x.mu.RUnlock()
	return v, ok
}

// get returns the member at key, making it with create on first use.
func (x *index[V]) get(key string, create func() V) V {
	if v, ok := x.lookup(key); ok {
		return v
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	if v, ok := x.byKey[key]; ok {
		return v
	}
	if x.byKey == nil {
		x.byKey = make(map[string]V)
	}
	v := create()
	x.byKey[key] = v
	return v
}

// delete drops the member at key; no-op when absent.
func (x *index[V]) delete(key string) {
	x.mu.Lock()
	delete(x.byKey, key)
	x.mu.Unlock()
}

// each calls f on every member in key order under the read lock; f must
// not call back into this index.
func (x *index[V]) each(f func(key string, v V)) {
	x.mu.RLock()
	defer x.mu.RUnlock()
	for _, k := range sortedKeys(x.byKey) {
		f(k, x.byKey[k])
	}
}

// Registry names and hands out instruments. Get-or-create lookups take a
// read-write mutex per instrument kind, so resolve instruments once and
// hold the pointers on hot paths; the instruments themselves are
// lock-free.
type Registry struct {
	counters      index[*Counter]
	gauges        index[*Gauge]
	histograms    index[*Histogram]
	quantiles     index[*QHistogram]
	counterVecs   index[*CounterVec]
	gaugeVecs     index[*GaugeVec]
	histogramVecs index[*HistogramVec]

	// boundsConflicts counts Histogram calls whose bounds disagreed with
	// the bounds the named histogram was created with. Surfaced in
	// snapshots as the counter "obs.registry.histogram_bounds_conflicts"
	// once nonzero.
	boundsConflicts Counter
	// labelErrors counts vector lookups with the wrong label arity and
	// vector re-registrations with different label names. Surfaced as
	// the counter "obs.registry.label_errors" once nonzero.
	labelErrors Counter
}

// NewRegistry returns an empty instrument registry.
func NewRegistry() *Registry { return &Registry{} }

func newOf[T any]() *T { return new(T) }

// Counter returns the named counter, creating it on first use. A nil
// registry returns a nil (no-op) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	return r.counters.get(name, newOf[Counter])
}

// Gauge returns the named gauge, creating it on first use. A nil
// registry returns a nil (no-op) gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	return r.gauges.get(name, newOf[Gauge])
}

// Histogram returns the named histogram, creating it with the given
// ascending bucket upper bounds on first use. Later calls must pass the
// same bounds (in any order): the first registration wins, but a
// mismatch is recorded — not silently ignored — in the
// "obs.registry.histogram_bounds_conflicts" counter, so a dashboard
// showing misleading buckets has a tell. A nil registry returns a nil
// (no-op) histogram.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	sorted := append([]float64(nil), bounds...)
	sort.Float64s(sorted)
	h := r.histograms.get(name, func() *Histogram {
		return &Histogram{bounds: sorted, counts: make([]atomic.Int64, len(sorted)+1)}
	})
	if !slices.Equal(h.bounds, sorted) {
		r.boundsConflicts.Inc()
	}
	return h
}

// QHistogram returns the named quantile histogram, creating it on first
// use. A nil registry returns a nil (no-op) histogram.
func (r *Registry) QHistogram(name string) *QHistogram {
	if r == nil {
		return nil
	}
	return r.quantiles.get(name, NewQHistogram)
}

// CounterVec returns the named counter vector with the given label
// names, creating it on first use. The first registration's label names
// win; a later call with different names gets the existing vector and
// bumps the "obs.registry.label_errors" counter. A nil registry returns
// a nil (no-op) vector.
func (r *Registry) CounterVec(name string, labelNames ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return vecIn(r, &r.counterVecs, name, labelNames, newOf[Counter])
}

// GaugeVec returns the named gauge vector with the given label names,
// creating it on first use. Registration semantics match CounterVec.
// A nil registry returns a nil (no-op) vector.
func (r *Registry) GaugeVec(name string, labelNames ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	return vecIn(r, &r.gaugeVecs, name, labelNames, newOf[Gauge])
}

// GaugeVecFunc registers the named gauge vector as backed by collect:
// its children are read from the caller's table whenever the registry is
// read, never stored (see Collect). A name already registered is refused
// and counted as a label error, and the registry keeps what it had; the
// returned vector still reads collect, so the caller's own reads work,
// but the registry does not export it. A nil registry returns a nil
// (no-op) vector.
func (r *Registry) GaugeVecFunc(name string, collect Collect, labelNames ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	own := &GaugeVec{labels: append([]string(nil), labelNames...), newChild: newOf[Gauge], onLabelError: r.labelErrors.Inc, collect: collect}
	if r.gaugeVecs.get(name, func() *GaugeVec { return own }) != own {
		r.labelErrors.Inc()
	}
	return own
}

// HistogramVec returns the named quantile-histogram vector with the
// given label names, creating it on first use. Registration semantics
// match CounterVec. A nil registry returns a nil (no-op) vector.
func (r *Registry) HistogramVec(name string, labelNames ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	return vecIn(r, &r.histogramVecs, name, labelNames, NewQHistogram)
}

// vecIn looks up a vector in one of the registry's vector tables,
// counting a re-registration with different label names as a label
// error.
func vecIn[T any](r *Registry, x *index[*Vec[T]], name string, labelNames []string, newChild func() *T) *Vec[T] {
	v := x.get(name, func() *Vec[T] {
		return &Vec[T]{labels: append([]string(nil), labelNames...), newChild: newChild, onLabelError: r.labelErrors.Inc}
	})
	if !slices.Equal(v.labels, labelNames) {
		r.labelErrors.Inc()
	}
	return v
}

// HistogramSnapshot is one histogram's state at snapshot time.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"` // len(Bounds)+1, last is overflow
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
}

// Snapshot is a point-in-time copy of every instrument. Concurrent
// updates during the copy yield per-instrument (not cross-instrument)
// consistency, which is what monitoring needs.
type Snapshot struct {
	// AtUnixNanos is the scrape instant on the serving process's clock,
	// stamped by the /metrics.json handler (zero when the snapshot was
	// taken directly from a Registry). Consumers computing counter rates
	// must difference this server-reported timestamp between scrapes
	// rather than their own poll clock: a slow or jittery poll otherwise
	// distorts every rate it renders.
	AtUnixNanos int64 `json:"atUnixNanos,omitempty"`

	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
	// The vector and quantile maps are omitted from JSON while empty so
	// snapshots from registries predating them are byte-identical.
	Quantiles     map[string]QHistogramSnapshot   `json:"quantiles,omitempty"`
	CounterVecs   map[string]VecSnapshot          `json:"counterVecs,omitempty"`
	GaugeVecs     map[string]VecSnapshot          `json:"gaugeVecs,omitempty"`
	HistogramVecs map[string]HistogramVecSnapshot `json:"histogramVecs,omitempty"`
}

// Snapshot copies the registry's current state. A nil registry yields an
// empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:      make(map[string]int64),
		Gauges:        make(map[string]float64),
		Histograms:    make(map[string]HistogramSnapshot),
		Quantiles:     make(map[string]QHistogramSnapshot),
		CounterVecs:   make(map[string]VecSnapshot),
		GaugeVecs:     make(map[string]VecSnapshot),
		HistogramVecs: make(map[string]HistogramVecSnapshot),
	}
	if r == nil {
		return s
	}
	r.counters.each(func(name string, c *Counter) { s.Counters[name] = c.Value() })
	r.gauges.each(func(name string, g *Gauge) { s.Gauges[name] = g.Value() })
	r.histograms.each(func(name string, h *Histogram) {
		bounds, counts := h.Buckets()
		s.Histograms[name] = HistogramSnapshot{Bounds: bounds, Counts: counts, Count: h.Count(), Sum: h.Sum()}
	})
	r.quantiles.each(func(name string, q *QHistogram) { s.Quantiles[name] = q.Snapshot() })
	r.counterVecs.each(func(name string, v *CounterVec) {
		s.CounterVecs[name] = VecSnapshot{LabelNames: append([]string(nil), v.labels...), Values: vecValues(v, func(labels []string, c *Counter) LabeledValue {
			return LabeledValue{Labels: labels, Value: float64(c.Value())}
		})}
	})
	type named struct {
		name string
		v    *GaugeVec
	}
	var collected []named
	r.gaugeVecs.each(func(name string, v *GaugeVec) {
		if v.collect != nil {
			collected = append(collected, named{name, v})
			return
		}
		s.GaugeVecs[name] = VecSnapshot{LabelNames: append([]string(nil), v.labels...), Values: gaugeValues(v, 0)}
	})
	r.histogramVecs.each(func(name string, v *HistogramVec) {
		s.HistogramVecs[name] = HistogramVecSnapshot{LabelNames: append([]string(nil), v.labels...), Values: vecValues(v, func(labels []string, q *QHistogram) LabeledQHistogram {
			return LabeledQHistogram{Labels: labels, Histogram: q.Snapshot()}
		})}
	})
	// Collectors run with no registry lock held: a source takes its own
	// locks, and a holder of those may be waiting on a registry lock.
	scrape := newScrape()
	for _, c := range collected {
		s.GaugeVecs[c.name] = VecSnapshot{LabelNames: append([]string(nil), c.v.labels...), Values: gaugeValues(c.v, scrape)}
	}
	// Self-monitoring counters appear once they have something to say,
	// keeping snapshots from clean registries unchanged.
	if n := r.boundsConflicts.Value(); n > 0 {
		s.Counters["obs.registry.histogram_bounds_conflicts"] = n
	}
	if n := r.labelErrors.Value(); n > 0 {
		s.Counters["obs.registry.label_errors"] = n
	}
	return s
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
