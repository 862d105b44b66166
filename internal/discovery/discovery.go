// Package discovery provides the decentralized service discovery the
// probing protocol uses to locate candidate components for each next-hop
// function (§3.3 step 2, referencing the SpiderNet peer-to-peer discovery
// system). The real SpiderNet is a DHT; composition only needs the
// resulting candidate list plus a per-lookup message cost, which this
// registry models with an O(log N) hop count per lookup.
package discovery

import (
	"math"

	"repro/internal/component"
	"repro/internal/faults"
	"repro/internal/metrics"
)

// Registry resolves stream processing functions to the candidate
// components currently deployed in the system.
type Registry struct {
	catalog  *component.Catalog
	hopCost  int64
	counters *metrics.Counters
	outages  *faults.Injector // nodes it reports down offer nothing; nil: all up
}

// NewRegistry builds a registry over the deployed catalog. numNodes sizes
// the simulated DHT: each lookup costs ceil(log2(numNodes)) messages.
// Counters may be nil to disable accounting.
func NewRegistry(catalog *component.Catalog, numNodes int, counters *metrics.Counters) *Registry {
	if counters == nil {
		counters = &metrics.Counters{}
	}
	hop := int64(1)
	if numNodes > 1 {
		hop = int64(math.Ceil(math.Log2(float64(numNodes))))
	}
	return &Registry{catalog: catalog, hopCost: hop, counters: counters}
}

// SetOutages hides the components of every node the injector reports
// down from later lookups. A nil injector (the default) reports every
// node up.
func (r *Registry) SetOutages(in *faults.Injector) { r.outages = in }

// Lookup returns the IDs of components providing function f that are
// currently reachable (their hosting node is up), charging one DHT
// traversal to the discovery counter. The returned slice is shared
// storage; callers must not modify it.
func (r *Registry) Lookup(f component.FunctionID) []component.ComponentID {
	r.counters.Discovery.Add(r.hopCost)
	candidates := r.catalog.Candidates(f)
	if r.outages == nil {
		return candidates
	}
	usable := make([]component.ComponentID, 0, len(candidates))
	for _, id := range candidates {
		if !r.outages.Down(r.catalog.Component(id).Node) {
			usable = append(usable, id)
		}
	}
	return usable
}
