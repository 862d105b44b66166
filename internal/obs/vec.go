package obs

import (
	"cmp"
	"slices"
	"strings"
	"sync/atomic"
)

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
// timestamps). Snapshots and the /metrics exposition iterate every
// child.
//
// Vectors are nil-safe the same way the scalar instruments are: a nil
// vector hands out nil (no-op) children. With called with the wrong
// number of label values returns a nil child and bumps the owning
// registry's "obs.registry.label_errors" counter — a monitoring layer
// must not panic the system it watches.

// Vec is a family of instruments of one kind indexed by label values.
// Registries hand out its three instantiations: CounterVec, GaugeVec and
// HistogramVec.
//
// A gauge vector can instead be backed by a collect function
// (Registry.GaugeVecFunc): its children are not stored but read from the
// caller's own table whenever the vector is read. With and Delete on such
// a vector return a nil child and count a label error; snapshots read the
// collected rows in the order stored children sort in.
type Vec[T any] struct {
	labels       []string
	newChild     func() *T
	onLabelError func() // bumps the registry's label-error counter
	children     index[vecChild[T]]
	// collect, when set, is where the children come from.
	collect Collect
}

// Collect is the source of a collect-backed gauge vector. It calls emit
// once per child, with the child's label values and value; emit copies
// the labels, so the source may reuse one slice. Rows may come in any
// order but must be distinct. scrape names the read the call serves:
// every collect-backed vector one Snapshot reads sees the same scrape, so
// a source behind several families can serve them all from one pass over
// its table. Collect runs with no registry lock held.
type Collect func(scrape uint64, emit func(labels []string, value float64))

// scrapes hands out scrape IDs; zero is never one. It is process-wide so
// that an ID never repeats, whichever registries a source's vectors sit in.
var scrapes atomic.Uint64

// newScrape returns a fresh scrape ID.
func newScrape() uint64 { return scrapes.Add(1) }

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

// compareLabels orders label tuples the way their labelKeys sort, joining
// them only when a value holds the separator itself.
func compareLabels(a, b []string) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		x, y := a[i], b[i]
		if x == y {
			continue
		}
		n := min(len(x), len(y))
		if c := strings.Compare(x[:n], y[:n]); c != 0 {
			return c
		}
		// One value is a prefix of the other. Past it the shorter one's
		// key ends, if it is its tuple's last value, or goes on with the
		// separator; sign is the order when the longer key is the larger.
		longer, shorterLast, sign := y, i == len(a)-1, -1
		if len(x) > len(y) {
			longer, shorterLast, sign = x, i == len(b)-1, 1
		}
		switch next := longer[n]; {
		case shorterLast || next > '\x1f':
			return sign
		case next < '\x1f':
			return -sign
		}
		return strings.Compare(labelKey(a), labelKey(b))
	}
	return cmp.Compare(len(a), len(b))
}

// keyFor returns the child key for values; false on a nil vector, a
// collect-backed one, or a wrong label arity, the last two counted.
func (v *Vec[T]) keyFor(values []string) (string, bool) {
	if v == nil {
		return "", false
	}
	if v.collect != nil || len(values) != len(v.labels) {
		if v.onLabelError != nil {
			v.onLabelError()
		}
		return "", false
	}
	return labelKey(values), true
}

// With returns the child for the given label values, creating it on
// first use. Nil receiver, a collect-backed vector or a wrong label arity
// returns a nil (no-op) child.
func (v *Vec[T]) With(labelValues ...string) *T {
	key, ok := v.keyFor(labelValues)
	if !ok {
		return nil
	}
	return v.children.get(key, func() vecChild[T] {
		return vecChild[T]{labels: append([]string(nil), labelValues...), inst: v.newChild()}
	}).inst
}

// Delete drops the child for the given label values (e.g. at session
// teardown, keeping label cardinality bounded). No-op when absent.
func (v *Vec[T]) Delete(labelValues ...string) {
	if key, ok := v.keyFor(labelValues); ok {
		v.children.delete(key)
	}
}

// vecValues reads, in label order, every stored child of v through
// read. The children's labels are copied into one array the values
// share.
func vecValues[T, S any](v *Vec[T], read func(labels []string, child *T) S) []S {
	var children []vecChild[T]
	v.children.each(func(_ string, c vecChild[T]) { children = append(children, c) })
	if len(children) == 0 {
		return nil
	}
	labels := make([]string, 0, len(children)*len(v.labels))
	values := make([]S, len(children))
	for i, c := range children {
		start := len(labels)
		labels = append(labels, c.labels...)
		values[i] = read(labels[start:len(labels):len(labels)], c.inst)
	}
	return values
}

// gaugeValues reads every child of a gauge vector once, in label order;
// scrape is handed to a collect-backed vector's source.
func gaugeValues(v *GaugeVec, scrape uint64) []LabeledValue {
	if v.collect != nil {
		return collectRows(v, scrape)
	}
	return vecValues(v, func(labels []string, g *Gauge) LabeledValue {
		return LabeledValue{Labels: labels, Value: g.Value()}
	})
}

// collectRows reads a collect-backed vector's source once and sorts the
// rows into label order. Rows of the wrong arity are dropped and counted.
func collectRows[T any](v *Vec[T], scrape uint64) []LabeledValue {
	arity := len(v.labels)
	var rows []LabeledValue
	var labels []string
	v.collect(scrape, func(values []string, value float64) {
		if len(values) != arity {
			v.onLabelError()
			return
		}
		labels = append(labels, values...)
		rows = append(rows, LabeledValue{Value: value})
	})
	for i := range rows {
		rows[i].Labels = labels[i*arity : (i+1)*arity : (i+1)*arity]
	}
	byLabels := func(a, b LabeledValue) int { return compareLabels(a.Labels, b.Labels) }
	if !slices.IsSortedFunc(rows, byLabels) {
		slices.SortFunc(rows, byLabels)
	}
	return rows
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
