package obs

import (
	"math"
	"sync/atomic"
)

// The quantile histogram's log-bucketed layout, HDR-histogram style:
// every power-of-two octave is split into qSubCount linearly-spaced
// sub-buckets, so a bucket's relative width is at most 1/qSubCount
// (~3.1%) of its value and Quantile's error is bounded by one bucket
// width with no a-priori range configuration. The covered range is
// [2^qMinExp, 2^(qMaxExp+1)); observations below it land in the first
// bucket, above it in a dedicated overflow bucket, and non-positive
// values in a dedicated zero bucket — nothing is ever lost.
const (
	qSubBits  = 5
	qSubCount = 1 << qSubBits // 32 sub-buckets per octave
	qMinExp   = -24           // 2^-24 ~ 6.0e-8: below any latency we time
	qMaxExp   = 40            // 2^40  ~ 1.1e12: above any latency we time
	qOctaves  = qMaxExp - qMinExp + 1
	qBuckets  = qOctaves * qSubCount
)

// QHistogram is a log-bucketed auto-ranging histogram with a quantile
// API. Unlike Histogram it needs no bucket bounds up front: any
// positive float64 maps to a bucket whose width is at most ~3.1% of its
// value, which makes Quantile(p) accurate to one log-bucket over the
// full range of latencies the system records (nanoseconds to hours).
//
// All updates are atomic and allocation-free; a nil *QHistogram is a
// no-op on every method, so hot paths thread it unconditionally.
type QHistogram struct {
	counts  [qBuckets]atomic.Int64
	zero    atomic.Int64 // observations <= 0
	over    atomic.Int64 // observations >= 2^(qMaxExp+1)
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits, CAS-updated
	minBits atomic.Uint64 // float64 bits of the smallest observation
	maxBits atomic.Uint64 // float64 bits of the largest observation
}

// NewQHistogram returns a standalone quantile histogram (registries
// hand them out too; see Registry.QHistogram).
func NewQHistogram() *QHistogram {
	h := &QHistogram{}
	h.minBits.Store(math.Float64bits(math.Inf(1)))
	h.maxBits.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// qBucketIndex maps a positive finite v to its bucket. The float64 bit
// pattern already is the (exponent, sub-bucket) pair: the biased
// exponent field selects the octave and the mantissa's top qSubBits
// bits the linear sub-bucket within it.
func qBucketIndex(v float64) int {
	bits := math.Float64bits(v)
	idx := int(bits>>(52-qSubBits)) - (qMinExp+1023)<<qSubBits
	if idx < 0 {
		return 0
	}
	return idx
}

// qBucketBounds returns bucket i's (lower, upper] value range.
func qBucketBounds(i int) (lo, hi float64) {
	exp := qMinExp + i/qSubCount
	sub := i % qSubCount
	scale := math.Ldexp(1, exp)
	lo = scale * (1 + float64(sub)/qSubCount)
	hi = scale * (1 + float64(sub+1)/qSubCount)
	return lo, hi
}

// Observe records one sample. No-op on a nil histogram.
func (h *QHistogram) Observe(v float64) {
	if h == nil {
		return
	}
	switch {
	case !(v > 0): // non-positive and NaN
		h.zero.Add(1)
	case v >= math.Ldexp(1, qMaxExp+1) || math.IsInf(v, 1):
		h.over.Add(1)
	default:
		h.counts[qBucketIndex(v)].Add(1)
	}
	h.count.Add(1)
	// Sum, min, and max track finite observations only: an injected
	// +Inf (e.g. an unreachable-route delay) is counted in the overflow
	// bucket above but must not poison the summary statistics, which
	// are exported as JSON (where Inf is unrepresentable).
	if !math.IsNaN(v) && !math.IsInf(v, 0) {
		for {
			old := h.sumBits.Load()
			if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
				break
			}
		}
		for {
			old := h.minBits.Load()
			if v >= math.Float64frombits(old) || h.minBits.CompareAndSwap(old, math.Float64bits(v)) {
				break
			}
		}
		for {
			old := h.maxBits.Load()
			if v <= math.Float64frombits(old) || h.maxBits.CompareAndSwap(old, math.Float64bits(v)) {
				break
			}
		}
	}
}

// Count returns the total number of observations; 0 on nil.
func (h *QHistogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values; 0 on nil.
func (h *QHistogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Min returns the smallest observation, or 0 before any.
func (h *QHistogram) Min() float64 {
	if h == nil || h.count.Load() == 0 {
		return 0
	}
	if v := math.Float64frombits(h.minBits.Load()); !math.IsInf(v, 1) {
		return v
	}
	return 0
}

// Max returns the largest observation, or 0 before any.
func (h *QHistogram) Max() float64 {
	if h == nil || h.count.Load() == 0 {
		return 0
	}
	if v := math.Float64frombits(h.maxBits.Load()); !math.IsInf(v, -1) {
		return v
	}
	return 0
}

// Quantile estimates the p-quantile (p in [0, 1]) of everything
// observed so far: the bucket containing the ceil(p*n)-th smallest
// sample, reported as the bucket midpoint clamped to the observed
// min/max. The estimate is within one log-bucket (~3.1% relative) of
// the exact sample quantile. It returns 0 before any observation and
// on a nil histogram. Concurrent Observes make the rank a snapshot,
// per-instrument consistent — what monitoring needs.
func (h *QHistogram) Quantile(p float64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	} else if p > 1 {
		p = 1
	}
	rank := int64(math.Ceil(p * float64(total)))
	if rank < 1 {
		rank = 1
	}
	min, max := h.Min(), h.Max()
	seen := h.zero.Load()
	if seen >= rank {
		if min < 0 {
			return min
		}
		return 0
	}
	for i := 0; i < qBuckets; i++ {
		if c := h.counts[i].Load(); c > 0 {
			seen += c
			if seen >= rank {
				lo, hi := qBucketBounds(i)
				return clamp((lo+hi)/2, min, max)
			}
		}
	}
	// Rank falls in the overflow bucket (or raced ahead of bucket
	// updates): the largest observation is the best answer.
	return max
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// QBucket is one occupied bucket of a QHistogram snapshot.
type QBucket struct {
	// Upper is the bucket's inclusive upper value bound.
	Upper float64 `json:"upper"`
	// Count is the number of observations in the bucket.
	Count int64 `json:"count"`
}

// QHistogramSnapshot is one quantile histogram's state at snapshot
// time: summary statistics, the standard monitoring quantiles, and the
// sparse occupied-bucket list (empty buckets are omitted — the dense
// layout has thousands).
type QHistogramSnapshot struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	P999  float64 `json:"p999"`
	// Buckets lists occupied buckets in ascending bound order. A
	// leading bucket with Upper 0 counts non-positive observations; a
	// trailing bucket with Upper MaxFloat64 counts overflow (the bound
	// is the JSON-representable stand-in for +Inf).
	Buckets []QBucket `json:"buckets,omitempty"`
}

// Snapshot copies the histogram's current state; zero value on nil.
func (h *QHistogram) Snapshot() QHistogramSnapshot {
	if h == nil {
		return QHistogramSnapshot{}
	}
	s := QHistogramSnapshot{
		Count: h.Count(),
		Sum:   h.Sum(),
		Min:   h.Min(),
		Max:   h.Max(),
		P50:   h.Quantile(0.50),
		P90:   h.Quantile(0.90),
		P99:   h.Quantile(0.99),
		P999:  h.Quantile(0.999),
	}
	if z := h.zero.Load(); z > 0 {
		s.Buckets = append(s.Buckets, QBucket{Upper: 0, Count: z})
	}
	for i := 0; i < qBuckets; i++ {
		if c := h.counts[i].Load(); c > 0 {
			_, hi := qBucketBounds(i)
			s.Buckets = append(s.Buckets, QBucket{Upper: hi, Count: c})
		}
	}
	if o := h.over.Load(); o > 0 {
		s.Buckets = append(s.Buckets, QBucket{Upper: math.MaxFloat64, Count: o})
	}
	return s
}
