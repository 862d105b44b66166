package state

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/overlay"
	"repro/internal/qos"
)

// GlobalConfig controls the coarse-grain global state maintenance rules
// of §3.2.
type GlobalConfig struct {
	// UpdateThreshold is the fraction of a metric's maximum value a node
	// or link state must drift before a global update is triggered. The
	// paper's experiments use 10%.
	UpdateThreshold float64
}

// aggregationPeriod is how often the aggregation node recomputes the
// virtual-link states between all node pairs (paper example: 10 min).
const aggregationPeriod = 10 * time.Minute

// DefaultGlobalConfig mirrors the paper's simulation settings.
func DefaultGlobalConfig() GlobalConfig {
	return GlobalConfig{UpdateThreshold: 0.10}
}

// Global is the coarse-grain global state: every node's and overlay
// link's last *reported* resource availability, plus a periodically
// aggregated snapshot used for virtual-link queries.
//
// Reported values update only when the true committed availability drifts
// more than UpdateThreshold of the metric's capacity from the last report,
// filtering out insignificant variations (§3.2). Virtual-link bandwidth
// queries use the aggregation snapshot, which is stale up to a full
// aggregation period — the price of scalable state maintenance that the
// probes' precise on-path measurements compensate for.
type Global struct {
	cfg    GlobalConfig
	ledger *Ledger
	mesh   *overlay.Mesh

	nodeView []qos.Resources // last threshold-triggered node reports
	linkView []float64       // last threshold-triggered link reports
	aggView  []float64       // link view frozen at the last aggregation

	// version counts changes to what a Replica copies (nodeView and
	// aggView). Written with mu held, so a reader holding mu pairs it
	// with the views it belongs to; loaded without mu by Refresh.
	version atomic.Uint64

	counters *metrics.Counters

	// mu guards the view slices for concurrent readers against
	// observer-driven updates. It is always taken; only the ledger's lock
	// is optional. A plain mutex: walks read their replicas, so nobody reads
	// here often enough to share. The lock order is always ledger before
	// global: observers fire under the ledger lock (when enabled) and then
	// take this one, so nothing here may call back into locked ledger
	// methods while holding it.
	mu sync.Mutex
}

// NewGlobal wires a global state to the ledger and subscribes to its
// change notifications. Counters may be nil when overhead accounting is
// not needed.
func NewGlobal(ledger *Ledger, mesh *overlay.Mesh, cfg GlobalConfig, counters *metrics.Counters) (*Global, error) {
	if cfg.UpdateThreshold < 0 || cfg.UpdateThreshold >= 1 {
		return nil, fmt.Errorf("state: UpdateThreshold %v out of [0,1)", cfg.UpdateThreshold)
	}
	if counters == nil {
		counters = &metrics.Counters{}
	}
	g := &Global{
		cfg:      cfg,
		ledger:   ledger,
		mesh:     mesh,
		nodeView: make([]qos.Resources, ledger.NumNodes()),
		linkView: make([]float64, ledger.NumLinks()),
		aggView:  make([]float64, ledger.NumLinks()),
		counters: counters,
	}
	g.ForceRefresh() // version 1: a zero Replica is behind every Global
	ledger.nodes.onChange, ledger.links.onChange = g.nodeChanged, g.linkChanged
	return g, nil
}

// nodeChanged applies the threshold rule after a committed change on
// node. It runs under the ledger lock (when enabled), so it reads the
// ledger through the unlocked internals.
func (g *Global) nodeChanged(node int) {
	truth := g.ledger.nodes.committedAvailable(node)
	capacity := g.ledger.NodeCapacity(node)
	g.mu.Lock()
	defer g.mu.Unlock()
	view := g.nodeView[node]
	if exceeds(view.CPU, truth.CPU, capacity.CPU, g.cfg.UpdateThreshold) ||
		exceeds(view.Memory, truth.Memory, capacity.Memory, g.cfg.UpdateThreshold) {
		g.nodeView[node] = truth
		g.version.Add(1)
		g.counters.StateUpdates.Add(1)
	}
}

// linkChanged applies the threshold rule after a committed change on an
// overlay link. A triggered link update is a report to the aggregation
// node (one message); dissemination happens at the aggregation period.
func (g *Global) linkChanged(link int) {
	truth := g.ledger.links.committedAvailable(link)
	capacity := g.ledger.LinkCapacity(link)
	g.mu.Lock()
	defer g.mu.Unlock()
	if exceeds(g.linkView[link], truth, capacity, g.cfg.UpdateThreshold) {
		g.linkView[link] = truth
		g.counters.StateUpdates.Add(1)
	}
}

func exceeds(view, truth, max, threshold float64) bool {
	if max <= 0 {
		return view != truth
	}
	return math.Abs(view-truth) > threshold*max
}

// Aggregate recomputes the virtual-link snapshot from the reported link
// states. The experiment loop schedules this every Period; the
// dissemination counts one message per system node. Which node
// aggregates (§3.2 rotates the role) changes no count or decision, so
// none is tracked.
func (g *Global) Aggregate() {
	g.mu.Lock()
	defer g.mu.Unlock()
	copy(g.aggView, g.linkView)
	g.version.Add(1)
	g.counters.Aggregations.Add(int64(g.mesh.NumNodes()))
}

// Period returns the aggregation period.
func (g *Global) Period() time.Duration { return aggregationPeriod }

// ForceRefresh resets every reported value to the current truth, as if
// every threshold fired. The ablation benchmarks use it to emulate a
// centralized always-fresh global state. Ledger reads happen before the
// global lock is taken, preserving the ledger-before-global lock order.
func (g *Global) ForceRefresh() {
	nodes := make([]qos.Resources, len(g.nodeView))
	for i := range nodes {
		nodes[i] = g.ledger.NodeCommittedAvailable(i)
	}
	links := make([]float64, len(g.linkView))
	for i := range links {
		links[i] = g.ledger.LinkCommittedAvailable(i)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	copy(g.nodeView, nodes)
	copy(g.linkView, links)
	copy(g.aggView, g.linkView)
	g.version.Add(1)
}

// Replica is one reader's copy of the disseminated coarse state (§3.2:
// every node keeps its own, stale by design): the node reports and the
// aggregated link snapshot as of the reader's last Refresh. The zero
// value is an empty replica that the first Refresh fills. A Replica
// belongs to one goroutine at a time.
type Replica struct {
	// Nodes is each node's coarse available resources: its last
	// threshold-triggered report, possibly stale within the threshold.
	Nodes []qos.Resources
	// Agg is each overlay link's aggregated available bandwidth, the
	// snapshot RouteAvailable takes its bottleneck over.
	Agg []float64

	threshold float64 // the Global's UpdateThreshold: how far a node report may lag
	version   uint64
}

// Ceiling bounds from above what the node can have available, per
// dimension: its report plus the update threshold's share of capacity,
// and never more than capacity. The threshold rule (nodeChanged) runs
// after every committed change and rewrites a report that has drifted
// further than that, so at the instant of the Refresh the node's committed
// availability was not above the ceiling; and what one request sees
// (Ledger.NodeAvailableForAt) is committed availability less other
// requests' holds — no higher, outside a migration window, whose credit
// the coarse state knows nothing of. A commitment released after the
// Refresh can overrun it: a reader that goes on to read precise state
// compares (the probe walk does, on first touch of a node).
func (r *Replica) Ceiling(node int, capacity qos.Resources) qos.Resources {
	return minRes(capacity, r.Nodes[node].Add(capacity.Scale(r.threshold)))
}

// RouteAvailable returns the coarse-grain available bandwidth of a
// virtual link: the bottleneck over the aggregation snapshot of its
// constituent overlay links, +Inf for a route without links (co-located).
func (r *Replica) RouteAvailable(route overlay.Route) float64 {
	avail := math.Inf(1)
	for _, id := range route.Links {
		avail = min(avail, r.Agg[id])
	}
	return avail
}

// Refresh brings r up to date and reports whether it had to copy: when
// no replicated view changed since r's last Refresh it costs one atomic
// load and takes no lock, so readers that refresh between their reads
// (a composer, once per walk) never share a cache line that is written
// per read.
func (g *Global) Refresh(r *Replica) bool {
	if r.version == g.version.Load() {
		return false
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	r.Nodes = append(r.Nodes[:0], g.nodeView...)
	r.Agg = append(r.Agg[:0], g.aggView...)
	r.threshold = g.cfg.UpdateThreshold
	r.version = g.version.Load()
	return true
}
