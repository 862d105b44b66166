package obs

import "strings"

// Labeled instrument vectors: families of counters, gauges, or quantile
// histograms indexed by an ordered tuple of label values (session,
// tenant, node, ...). Each distinct label tuple materialises one child
// instrument, resolved once with With and then updated lock-free, so a
// per-session gauge costs what an unlabeled gauge costs after the first
// touch.
//
// Label cardinality is the caller's contract: children live until
// Delete, so label sets must be bounded by something the caller tears
// down (sessions, nodes) — never by unbounded values (request IDs,
// timestamps). The drift monitor and the /metrics exposition iterate
// every child.
//
// Vectors are nil-safe the same way the scalar instruments are: a nil
// vector hands out nil (no-op) children. With called with the wrong
// number of label values returns a nil child and bumps the owning
// registry's "obs.registry.label_errors" counter — a monitoring layer
// must not panic the system it watches.

// Vec is a family of instruments of one kind indexed by label values.
// Registries hand out its three instantiations: CounterVec, GaugeVec and
// HistogramVec.
type Vec[T any] struct {
	labels   []string
	newChild func() *T
	onArity  func() // bumps the registry's label-error counter
	children index[vecChild[T]]
}

// vecChild is one live child and its label values.
type vecChild[T any] struct {
	labels []string
	inst   *T
}

// CounterVec is a family of counters indexed by label values.
type CounterVec = Vec[Counter]

// GaugeVec is a family of gauges indexed by label values.
type GaugeVec = Vec[Gauge]

// HistogramVec is a family of quantile histograms indexed by label
// values. Children are QHistograms: labeled latency families need the
// auto-ranging layout, not per-family bucket bounds.
type HistogramVec = Vec[QHistogram]

// labelKey joins label values into one map key. \x1f (ASCII unit
// separator) cannot collide with reasonable label values.
func labelKey(values []string) string {
	return strings.Join(values, "\x1f")
}

// keyFor returns the child key for values; false on a nil vector or a
// wrong label arity, which is counted.
func (v *Vec[T]) keyFor(values []string) (string, bool) {
	if v == nil {
		return "", false
	}
	if len(values) != len(v.labels) {
		if v.onArity != nil {
			v.onArity()
		}
		return "", false
	}
	return labelKey(values), true
}

// With returns the child for the given label values, creating it on
// first use. Nil receiver or wrong label arity returns a nil (no-op)
// child.
func (v *Vec[T]) With(labelValues ...string) *T {
	key, ok := v.keyFor(labelValues)
	if !ok {
		return nil
	}
	return v.children.get(key, func() vecChild[T] {
		return vecChild[T]{labels: append([]string(nil), labelValues...), inst: v.newChild()}
	}).inst
}

// Get returns the child for the given label values without creating it;
// nil when absent.
func (v *Vec[T]) Get(labelValues ...string) *T {
	key, ok := v.keyFor(labelValues)
	if !ok {
		return nil
	}
	c, _ := v.children.lookup(key)
	return c.inst
}

// Delete drops the child for the given label values (e.g. at session
// teardown, keeping label cardinality bounded). No-op when absent.
func (v *Vec[T]) Delete(labelValues ...string) {
	if key, ok := v.keyFor(labelValues); ok {
		v.children.delete(key)
	}
}

// LabelValues returns the label tuples of every live child, sorted.
func (v *Vec[T]) LabelValues() [][]string {
	if v == nil {
		return nil
	}
	var out [][]string
	v.children.each(func(_ string, c vecChild[T]) {
		out = append(out, append([]string(nil), c.labels...))
	})
	return out
}

// snapshotVec reads v's label names and, in label order, every child
// through read.
func snapshotVec[T, S any](v *Vec[T], read func(labels []string, child *T) S) (labelNames []string, values []S) {
	v.children.each(func(_ string, c vecChild[T]) {
		values = append(values, read(append([]string(nil), c.labels...), c.inst))
	})
	return append([]string(nil), v.labels...), values
}

// LabeledValue is one vector child's value in a snapshot.
type LabeledValue struct {
	// Labels holds the child's label values, parallel to the vector's
	// label names.
	Labels []string `json:"labels"`
	// Value is the child's value (counters are exact in float64 up to
	// 2^53).
	Value float64 `json:"value"`
}

// VecSnapshot is one counter or gauge vector's state at snapshot time.
type VecSnapshot struct {
	// LabelNames holds the vector's label names in declaration order.
	LabelNames []string `json:"labelNames"`
	// Values holds one entry per live child, sorted by label values.
	Values []LabeledValue `json:"values"`
}

// LabeledQHistogram is one histogram-vector child in a snapshot.
type LabeledQHistogram struct {
	Labels    []string           `json:"labels"`
	Histogram QHistogramSnapshot `json:"histogram"`
}

// HistogramVecSnapshot is one histogram vector's state at snapshot time.
type HistogramVecSnapshot struct {
	LabelNames []string            `json:"labelNames"`
	Values     []LabeledQHistogram `json:"values"`
}
