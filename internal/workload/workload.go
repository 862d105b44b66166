// Package workload generates stream processing request workloads for the
// composition experiments (§4.1): Poisson arrivals at a configurable
// request rate, templates drawn from the application library, uniformly
// distributed QoS/resource requirements, and 5–15 minute session
// durations. Piecewise-constant rate schedules reproduce the dynamic
// workload of the adaptability experiment (Figure 8).
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/component"
	"repro/internal/qos"
)

// QoSLevel selects a requirement strictness, matching Figure 5(b)'s
// low / high / very-high QoS curves: higher QoS means shorter processing
// time and lower loss-rate requirements.
type QoSLevel int

// QoS strictness levels.
const (
	QoSLow QoSLevel = iota + 1
	QoSHigh
	QoSVeryHigh
)

// Scale returns the multiplier applied to drawn QoS requirements.
func (l QoSLevel) Scale() float64 {
	switch l {
	case QoSLow:
		return 1.4
	case QoSHigh:
		return 1.0
	case QoSVeryHigh:
		return 0.85
	default:
		return 0
	}
}

// String names the level as the paper's figure legend does.
func (l QoSLevel) String() string {
	switch l {
	case QoSLow:
		return "low QoS"
	case QoSHigh:
		return "high QoS"
	case QoSVeryHigh:
		return "very high QoS"
	default:
		return fmt.Sprintf("QoSLevel(%d)", int(l))
	}
}

// Config holds the requirement distributions. All draws are uniform over
// [min, max], following the paper's setup.
type Config struct {
	// Library supplies the application templates.
	Library *component.Library
	// NumNodes is the overlay size, used to draw the client-side deputy.
	NumNodes int

	// DelayReqPerFunction bounds the per-function share of the
	// end-to-end delay requirement (ms); the request requirement is the
	// draw multiplied by the template's position count, so longer
	// applications get proportionally looser absolute bounds.
	DelayReqPerFunctionMin, DelayReqPerFunctionMax float64

	// Level scales the drawn QoS requirements (Figure 5(b)).
	Level QoSLevel
}

// The fixed requirement ranges: the per-function share of the end-to-end
// loss-rate requirement, the per-component end-system demand, the
// per-virtual-link bandwidth demand (kbps) and the session duration.
const (
	lossReqPerFunctionMin, lossReqPerFunctionMax float64 = 0.008, 0.02
	cpuReqMin, cpuReqMax                         float64 = 6, 12
	memoryReqMin, memoryReqMax                   float64 = 40, 120
	bandwidthReqMin, bandwidthReqMax             float64 = 100, 500
	sessionMin, sessionMax                               = 5 * time.Minute, 15 * time.Minute
)

// DefaultConfig returns requirement ranges calibrated so that a 400-node
// system saturates between 60 and 100 requests/minute — the regime the
// paper's efficiency figures sweep.
func DefaultConfig(lib *component.Library, numNodes int) Config {
	return Config{
		Library:                lib,
		NumNodes:               numNodes,
		DelayReqPerFunctionMin: 55,
		DelayReqPerFunctionMax: 95,
		Level:                  QoSHigh,
	}
}

func (c *Config) validate() error {
	if c.Library == nil || c.Library.Count() == 0 {
		return fmt.Errorf("workload: empty template library")
	}
	if c.NumNodes < 1 {
		return fmt.Errorf("workload: NumNodes %d < 1", c.NumNodes)
	}
	if c.DelayReqPerFunctionMin <= 0 || c.DelayReqPerFunctionMax < c.DelayReqPerFunctionMin {
		return fmt.Errorf("workload: invalid DelayReqPerFunction range [%v, %v]", c.DelayReqPerFunctionMin, c.DelayReqPerFunctionMax)
	}
	if c.Level.Scale() <= 0 {
		return fmt.Errorf("workload: invalid QoS level %d", c.Level)
	}
	return nil
}

// Generator draws composition requests.
type Generator struct {
	cfg    Config
	rng    *rand.Rand
	nextID int64
}

// NewGenerator validates the config and returns a generator drawing from
// rng.
func NewGenerator(cfg Config, rng *rand.Rand) (*Generator, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Generator{cfg: cfg, rng: rng}, nil
}

func (g *Generator) uniform(min, max float64) float64 {
	return min + g.rng.Float64()*(max-min)
}

// Next draws one request: a random template, uniform QoS/resource
// requirements scaled by the QoS level, a random client node, and a
// uniform session duration.
func (g *Generator) Next() *component.Request {
	cfg := &g.cfg
	_, graph := cfg.Library.Pick(g.rng)
	n := graph.NumPositions()
	scale := cfg.Level.Scale()

	g.nextID++
	req := &component.Request{
		ID:    g.nextID,
		Graph: graph,
		QoSReq: qos.Vector{
			Delay:    g.uniform(cfg.DelayReqPerFunctionMin, cfg.DelayReqPerFunctionMax) * float64(n) * scale,
			LossCost: qos.LossCost(math.Min(0.999, g.uniform(lossReqPerFunctionMin, lossReqPerFunctionMax)*float64(n)*scale)),
		},
		ResReq:       make([]qos.Resources, n),
		BandwidthReq: g.uniform(bandwidthReqMin, bandwidthReqMax),
		Client:       g.rng.Intn(cfg.NumNodes),
		Duration:     sessionMin + time.Duration(g.rng.Int63n(int64(sessionMax-sessionMin)+1)),
	}
	for i := range req.ResReq {
		req.ResReq[i] = qos.Resources{
			CPU:    g.uniform(cpuReqMin, cpuReqMax),
			Memory: g.uniform(memoryReqMin, memoryReqMax),
		}
	}
	return req
}

// Phase is one segment of a piecewise-constant request-rate schedule.
type Phase struct {
	// Until is the virtual time this phase ends (exclusive).
	Until time.Duration
	// RatePerMinute is the Poisson arrival rate during the phase.
	RatePerMinute float64
}

// Arrivals produces Poisson arrival times following a rate schedule.
type Arrivals struct {
	phases []Phase
	rng    *rand.Rand
}

// NewArrivals builds an arrival process. Phases must be ordered by
// strictly increasing Until with positive rates; the last phase's rate
// extends beyond its Until forever.
func NewArrivals(phases []Phase, rng *rand.Rand) (*Arrivals, error) {
	if len(phases) == 0 {
		return nil, fmt.Errorf("workload: no phases")
	}
	prev := time.Duration(-1)
	for i, p := range phases {
		if p.Until <= prev {
			return nil, fmt.Errorf("workload: phase %d Until %v not increasing", i, p.Until)
		}
		if p.RatePerMinute <= 0 {
			return nil, fmt.Errorf("workload: phase %d rate %v <= 0", i, p.RatePerMinute)
		}
		prev = p.Until
	}
	return &Arrivals{phases: append([]Phase(nil), phases...), rng: rng}, nil
}

// RateAt returns the schedule's rate at virtual time t.
func (a *Arrivals) RateAt(t time.Duration) float64 {
	for _, p := range a.phases {
		if t < p.Until {
			return p.RatePerMinute
		}
	}
	return a.phases[len(a.phases)-1].RatePerMinute
}

// NextAfter returns the next arrival instant strictly after t, drawing an
// exponential inter-arrival gap at the rate in force at t. Rate changes
// mid-gap are approximated by the rate at the gap's start, which is
// accurate for the minutes-long phases the experiments use.
func (a *Arrivals) NextAfter(t time.Duration) time.Duration {
	rate := a.RateAt(t) // requests per minute
	gapMinutes := a.rng.ExpFloat64() / rate
	gap := time.Duration(gapMinutes * float64(time.Minute))
	if gap <= 0 {
		gap = time.Nanosecond
	}
	return t + gap
}
