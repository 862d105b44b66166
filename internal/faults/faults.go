// Package faults is the deterministic fault-injection layer: a seeded
// injector the distributed engine consults on every message send. It can
// drop a message, delay its delivery, duplicate it, and take whole nodes
// down and back up on a schedule — the failure modes the paper's probing
// protocol (§3.3) is supposed to tolerate (a deputy decides from whatever
// probes return within the collection window; transient allocations
// decay by TTL).
//
// The outage schedule is one type, Crash, drawn up front by RandomCrashes,
// ZoneCrashes or PoissonCrashes. The dist engine, the multi-application
// scenario's zone blackouts and the experiment simulator's node crashes
// (§1 of the paper) all read it; dist and experiment through an
// Injector's Down.
//
// The injector is seeded and self-contained, so a fixed seed yields a
// reproducible decision sequence; under concurrent senders the
// *interleaving* of those decisions still varies with goroutine
// scheduling, which is exactly the nondeterminism the dist engine is
// supposed to survive.
//
// Everything is nil-safe: a nil *Injector answers "no fault" to every
// question at the cost of one pointer check, so the dist hot path pays
// nothing when fault injection is disabled.
package faults

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/harness/clock"
)

// Kind classifies a message for injection purposes. Session-teardown
// messages (release of committed resources) are deliberately not a
// kind: teardown is modeled as a reliable control channel, the fault
// model covers the composition protocol itself.
type Kind int

const (
	// KindProbe is a probe hop or a probe return travelling back to the
	// deputy (§3.3 steps 2-3).
	KindProbe Kind = iota
	// KindProtocol is a commit-phase message: commit, commit ack.
	KindProtocol
	// KindState is a best-effort coarse global-state broadcast (§3.2).
	KindState
)

// Crash takes one node down at At for Downtime, measured from the
// injector's start (the cluster's start).
type Crash struct {
	Node     int
	At       time.Duration
	Downtime time.Duration
}

// Config parameterises an Injector. The zero value injects nothing.
type Config struct {
	// Seed drives every probabilistic decision. Zero means seed 1.
	Seed int64
	// DropProb is the per-message loss probability in [0, 1].
	DropProb float64
	// DupProb is the per-message duplication probability in [0, 1]; a
	// duplicated message is delivered twice.
	DupProb float64
	// MaxDelay, when positive, delays each delivery by a uniform random
	// jitter in [0, MaxDelay).
	MaxDelay time.Duration
	// Crashes schedules node outages. During an outage the node
	// processes nothing and messages toward it are lost; on restart it
	// comes back with its volatile state (holds, in-flight requests)
	// gone.
	Crashes []Crash
	// Clock measures the outage schedule. Nil means the wall clock; the
	// simulation harness substitutes a virtual clock so crash windows
	// elapse in simulated time.
	Clock clock.Clock
}

// Action is the injector's verdict for one message send.
type Action struct {
	// Drop loses the message silently: the sender believes it was sent.
	Drop bool
	// Duplicate delivers the message twice.
	Duplicate bool
	// Delay postpones delivery.
	Delay time.Duration
}

// Injector makes fault decisions. Safe for concurrent use; obtain one
// from New.
type Injector struct {
	cfg   Config
	clk   clock.Clock
	start time.Time

	mu sync.Mutex
	// rng drives every probabilistic decision. guarded by mu
	rng *rand.Rand

	// crashes is the per-node outage schedule, sorted by start time.
	crashes map[int][]Crash
}

// New validates cfg and returns an injector whose crash clock starts
// now. A nil return with nil error means cfg injects nothing at all and
// the caller can skip the injection path entirely.
func New(cfg Config) (*Injector, error) {
	if cfg.DropProb < 0 || cfg.DropProb > 1 {
		return nil, fmt.Errorf("faults: drop probability %v out of [0, 1]", cfg.DropProb)
	}
	if cfg.DupProb < 0 || cfg.DupProb > 1 {
		return nil, fmt.Errorf("faults: duplication probability %v out of [0, 1]", cfg.DupProb)
	}
	if cfg.MaxDelay < 0 {
		return nil, fmt.Errorf("faults: negative delay jitter %v", cfg.MaxDelay)
	}
	for _, cr := range cfg.Crashes {
		if cr.Node < 0 {
			return nil, fmt.Errorf("faults: crash schedules negative node %d", cr.Node)
		}
		if cr.At < 0 || cr.Downtime <= 0 {
			return nil, fmt.Errorf("faults: crash for node %d needs At >= 0 and Downtime > 0", cr.Node)
		}
	}
	if cfg.DropProb == 0 && cfg.DupProb == 0 && cfg.MaxDelay == 0 && len(cfg.Crashes) == 0 {
		return nil, nil
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	clk := clock.Or(cfg.Clock)
	in := &Injector{
		cfg:     cfg,
		clk:     clk,
		start:   clk.Now(),
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		crashes: make(map[int][]Crash, len(cfg.Crashes)),
	}
	for _, cr := range cfg.Crashes {
		in.crashes[cr.Node] = append(in.crashes[cr.Node], cr)
	}
	for node := range in.crashes {
		s := in.crashes[node]
		sort.Slice(s, func(i, j int) bool { return s[i].At < s[j].At })
	}
	return in, nil
}

// Enabled reports whether any fault can ever fire.
func (in *Injector) Enabled() bool { return in != nil }

// OnSend decides the fate of one message of the given kind. A nil
// injector returns the zero Action (deliver normally).
func (in *Injector) OnSend(kind Kind) Action {
	if in == nil {
		return Action{}
	}
	_ = kind // all current kinds share one fault distribution
	var a Action
	in.mu.Lock()
	if in.cfg.DropProb > 0 && in.rng.Float64() < in.cfg.DropProb {
		a.Drop = true
	}
	if !a.Drop {
		if in.cfg.DupProb > 0 && in.rng.Float64() < in.cfg.DupProb {
			a.Duplicate = true
		}
		if in.cfg.MaxDelay > 0 {
			a.Delay = time.Duration(in.rng.Int63n(int64(in.cfg.MaxDelay)))
		}
	}
	in.mu.Unlock()
	return a
}

// Down reports whether the node is inside a scheduled outage right now.
// A nil injector reports false.
func (in *Injector) Down(node int) bool {
	if in == nil {
		return false
	}
	s, ok := in.crashes[node]
	if !ok {
		return false
	}
	elapsed := in.clk.Since(in.start)
	for _, cr := range s {
		if elapsed >= cr.At && elapsed < cr.At+cr.Downtime {
			return true
		}
	}
	return false
}

// RandomCrashes builds a seeded schedule of count outages spread over
// distinct random nodes in [0, nodes), starting uniformly within the
// window and each lasting downtime. count is capped at nodes.
func RandomCrashes(seed int64, nodes, count int, window, downtime time.Duration) []Crash {
	if nodes <= 0 || count <= 0 || downtime <= 0 {
		return nil
	}
	if count > nodes {
		count = nodes
	}
	if window <= 0 {
		window = time.Second
	}
	rng := rand.New(rand.NewSource(seed))
	picked := rng.Perm(nodes)[:count]
	out := make([]Crash, 0, count)
	for _, node := range picked {
		out = append(out, Crash{
			Node:     node,
			At:       time.Duration(rng.Int63n(int64(window))),
			Downtime: downtime,
		})
	}
	return out
}

// PoissonCrashes draws a seeded outage schedule over nodes [0, nodes):
// crashes arrive as a Poisson process at ratePerMinute over [0, horizon),
// each on a node drawn uniformly from those the schedule has not already
// taken down at that instant, and each lasting downtime. An arrival that
// finds every node down is dropped. A fixed seed yields a fixed schedule.
func PoissonCrashes(seed int64, nodes int, ratePerMinute float64, horizon, downtime time.Duration) []Crash {
	if nodes <= 0 || ratePerMinute <= 0 || horizon <= 0 || downtime <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	upAt := make([]time.Duration, nodes) // when each node's last outage ends
	up := make([]int, 0, nodes)
	var out []Crash
	for at := time.Duration(0); ; {
		gap := time.Duration(rng.ExpFloat64() / ratePerMinute * float64(time.Minute))
		at += max(gap, time.Nanosecond)
		if at >= horizon {
			return out
		}
		up = up[:0]
		for node, t := range upAt {
			if t <= at {
				up = append(up, node)
			}
		}
		if len(up) == 0 {
			continue
		}
		node := up[rng.Intn(len(up))]
		upAt[node] = at + downtime
		out = append(out, Crash{Node: node, At: at, Downtime: downtime})
	}
}
