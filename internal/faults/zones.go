package faults

import (
	"math/rand"
	"time"
)

// ZoneNodes lists the members of one zone of the partition of overlay
// nodes into racks/availability zones for correlated-outage schedules:
// node n belongs to zone n mod zones. The assignment is structural, not
// drawn, so a zone's membership is the same in every component that
// consults it (workload plans, harness audits, capacity blackouts).
func ZoneNodes(zone, zones, nodes int) []int {
	var out []int
	for n := zone; n < nodes; n += zones {
		out = append(out, n)
	}
	return out
}

// ZoneCrashes draws a correlated rack/zone outage schedule: count zones
// are picked (without replacement) and every node of a picked zone
// crashes at the same instant for the same downtime — the failure mode
// a top-of-rack switch or a power domain produces, which independent
// per-node crash draws (RandomCrashes) never exercise. Start times are
// uniform over [0, window). A fixed seed yields a fixed schedule.
func ZoneCrashes(seed int64, nodes, zones, count int, window, downtime time.Duration) []Crash {
	if nodes <= 0 || zones <= 0 || count <= 0 || downtime <= 0 {
		return nil
	}
	if zones > nodes {
		zones = nodes
	}
	if count > zones {
		count = zones
	}
	if window <= 0 {
		window = time.Second
	}
	rng := rand.New(rand.NewSource(seed))
	picked := rng.Perm(zones)[:count]
	out := make([]Crash, 0, count*(nodes/zones+1))
	for _, z := range picked {
		at := time.Duration(rng.Int63n(int64(window)))
		for _, node := range ZoneNodes(z, zones, nodes) {
			out = append(out, Crash{Node: node, At: at, Downtime: downtime})
		}
	}
	return out
}
