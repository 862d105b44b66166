package faults

import (
	"reflect"
	"testing"
	"time"
)

func TestZonePartition(t *testing.T) {
	// Round-robin partition: membership is total and disjoint.
	const nodes, zones = 10, 3
	seen := make(map[int]int)
	for z := 0; z < zones; z++ {
		for _, n := range ZoneNodes(z, zones, nodes) {
			if prev, dup := seen[n]; dup {
				t.Fatalf("node %d in zones %d and %d", n, prev, z)
			}
			seen[n] = z
			if n%zones != z {
				t.Errorf("node %d listed in zone %d, want %d (n mod zones)", n, z, n%zones)
			}
		}
	}
	if len(seen) != nodes {
		t.Fatalf("partition covers %d of %d nodes", len(seen), nodes)
	}
}

func TestZoneCrashesCorrelated(t *testing.T) {
	const nodes, zones = 12, 4
	crashes := ZoneCrashes(7, nodes, zones, 2, time.Minute, 5*time.Second)
	if len(crashes) == 0 {
		t.Fatal("no crashes drawn")
	}
	// Crashes group into exactly 2 zones, each zone's members crashing
	// at one shared instant for one shared downtime.
	byZone := make(map[int][]Crash)
	for _, c := range crashes {
		byZone[c.Node%zones] = append(byZone[c.Node%zones], c)
	}
	if len(byZone) != 2 {
		t.Fatalf("crashes span %d zones, want 2", len(byZone))
	}
	for z, group := range byZone {
		if len(group) != len(ZoneNodes(z, zones, nodes)) {
			t.Errorf("zone %d: %d crashes for %d members", z, len(group), len(ZoneNodes(z, zones, nodes)))
		}
		for _, c := range group {
			if c.At != group[0].At || c.Downtime != group[0].Downtime {
				t.Errorf("zone %d: crash %+v not synchronised with %+v", z, c, group[0])
			}
			if c.At < 0 || c.At >= time.Minute {
				t.Errorf("zone %d: crash at %v outside window", z, c.At)
			}
		}
	}
}

func TestZoneCrashesDeterministic(t *testing.T) {
	a := ZoneCrashes(3, 16, 4, 2, time.Minute, time.Second)
	b := ZoneCrashes(3, 16, 4, 2, time.Minute, time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different schedules")
	}
	c := ZoneCrashes(4, 16, 4, 2, time.Minute, time.Second)
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds produced identical schedules")
	}
}

func TestZoneCrashesClamping(t *testing.T) {
	// count > zones clamps; zones > nodes clamps; degenerate inputs nil.
	if got := ZoneCrashes(1, 4, 8, 100, time.Minute, time.Second); len(got) != 4 {
		t.Errorf("full blackout drew %d crashes, want all 4 nodes", len(got))
	}
	if ZoneCrashes(1, 0, 4, 1, time.Minute, time.Second) != nil {
		t.Error("zero nodes should yield nil")
	}
	if ZoneCrashes(1, 4, 4, 0, time.Minute, time.Second) != nil {
		t.Error("zero count should yield nil")
	}
	if ZoneCrashes(1, 4, 4, 1, time.Minute, 0) != nil {
		t.Error("zero downtime should yield nil")
	}
}
