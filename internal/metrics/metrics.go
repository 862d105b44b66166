// Package metrics provides the measurement instruments the experiments
// report: message-overhead counters, composition success-rate sampling,
// and time-series recording.
//
// The paper's two headline measurements are the composition success rate
// u(t) = SuccessNum(t) / RequestNum(t) over a sampling window (§3.4) and
// the control overhead in messages per minute (§4.2).
package metrics

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Counters tallies control-plane messages by kind. The paper's overhead
// figures count probes plus global-state update messages for ACP, probes
// only for RP, and exhaustive probes for Optimal.
//
// One instance may be shared across goroutines (e.g. the dist cluster's
// node goroutines): every field is an atomic, so a plain read or write
// does not compile and go vet rejects a copy. Read it with Snapshot.
type Counters struct {
	// Probes counts probe message transmissions (one per hop per probe).
	Probes atomic.Int64
	// ProbeReturns counts complete probed paths returning to the deputy.
	ProbeReturns atomic.Int64
	// StateUpdates counts threshold-triggered coarse global state
	// updates for nodes and overlay links.
	StateUpdates atomic.Int64
	// Aggregations counts virtual-link aggregation dissemination
	// messages from the rotating aggregation node.
	Aggregations atomic.Int64
	// Confirmations counts session-setup confirmation messages.
	Confirmations atomic.Int64
	// Discovery counts service-discovery lookup messages.
	Discovery atomic.Int64
}

// Counts is a plain copy of Counters, field for field.
type Counts struct {
	Probes, ProbeReturns, StateUpdates, Aggregations, Confirmations, Discovery int64
}

// Snapshot returns an atomically-read copy of a live shared instance.
func (c *Counters) Snapshot() Counts {
	return Counts{
		Probes:        c.Probes.Load(),
		ProbeReturns:  c.ProbeReturns.Load(),
		StateUpdates:  c.StateUpdates.Load(),
		Aggregations:  c.Aggregations.Load(),
		Confirmations: c.Confirmations.Load(),
		Discovery:     c.Discovery.Load(),
	}
}

// String summarises the counters.
func (c Counts) String() string {
	return fmt.Sprintf("msgs(probe=%d ret=%d state=%d agg=%d confirm=%d disc=%d)",
		c.Probes, c.ProbeReturns, c.StateUpdates, c.Aggregations, c.Confirmations, c.Discovery)
}

// SuccessSampler accumulates composition outcomes within a sampling
// window and across the whole run.
type SuccessSampler struct {
	winSuccess, winTotal int64
	cumSuccess, cumTotal int64
}

// Record notes one composition outcome.
func (s *SuccessSampler) Record(success bool) {
	s.winTotal++
	s.cumTotal++
	if success {
		s.winSuccess++
		s.cumSuccess++
	}
}

// Roll closes the current window, returning its success rate and request
// count, and starts a fresh window. An empty window reports rate 1 with
// count 0 (no requests means no failures).
func (s *SuccessSampler) Roll() (rate float64, requests int64) {
	rate, requests = windowRate(s.winSuccess, s.winTotal), s.winTotal
	s.winSuccess, s.winTotal = 0, 0
	return rate, requests
}

// Cumulative reports the whole-run success rate and request count.
func (s *SuccessSampler) Cumulative() (rate float64, requests int64) {
	return windowRate(s.cumSuccess, s.cumTotal), s.cumTotal
}

func windowRate(success, total int64) float64 {
	if total == 0 {
		return 1
	}
	return float64(success) / float64(total)
}

// Point is one sample of a time series.
type Point struct {
	At    time.Duration
	Value float64
}

// Series is an append-only time series, used for the adaptation
// experiments (Figure 8) that plot success rate and probing ratio over
// simulated time.
type Series struct {
	points []Point
}

// Add appends a sample.
func (s *Series) Add(at time.Duration, v float64) {
	s.points = append(s.points, Point{At: at, Value: v})
}

// Points returns a copy of the recorded samples.
func (s *Series) Points() []Point {
	out := make([]Point, len(s.points))
	copy(out, s.points)
	return out
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.points) }

// Mean returns the average sample value, or 0 for an empty series.
func (s *Series) Mean() float64 {
	if len(s.points) == 0 {
		return 0
	}
	sum := 0.0
	for _, p := range s.points {
		sum += p.Value
	}
	return sum / float64(len(s.points))
}

// Min returns the smallest sample value, or 0 for an empty series.
func (s *Series) Min() float64 {
	if len(s.points) == 0 {
		return 0
	}
	m := s.points[0].Value
	for _, p := range s.points[1:] {
		if p.Value < m {
			m = p.Value
		}
	}
	return m
}
