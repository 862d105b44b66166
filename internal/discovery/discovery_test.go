package discovery

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/component"
	"repro/internal/faults"
	"repro/internal/harness/clock"
	"repro/internal/metrics"
)

func testCatalog(t *testing.T) *component.Catalog {
	t.Helper()
	cat, err := component.Place(160, component.DefaultPlacementConfig(), rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

func TestLookupReturnsCandidates(t *testing.T) {
	cat := testCatalog(t)
	reg := NewRegistry(cat, 160, nil)
	for f := 0; f < cat.NumFunctions(); f++ {
		got := reg.Lookup(component.FunctionID(f))
		want := cat.Candidates(component.FunctionID(f))
		if len(got) != len(want) {
			t.Fatalf("function %d: %d candidates, want %d", f, len(got), len(want))
		}
		for _, id := range got {
			if cat.Component(id).Function != component.FunctionID(f) {
				t.Fatalf("lookup(%d) returned component of function %d", f, cat.Component(id).Function)
			}
		}
	}
}

func TestLookupAccounting(t *testing.T) {
	cat := testCatalog(t)
	var c metrics.Counters
	reg := NewRegistry(cat, 256, &c)
	reg.Lookup(0)
	if got := c.Discovery.Load(); got != 8 { // log2(256)
		t.Errorf("Discovery after one lookup = %d, want 8", got)
	}
	reg.Lookup(1)
	if got := c.Discovery.Load(); got != 16 {
		t.Errorf("Discovery = %d, want 16", got)
	}
}

func TestLookupCostSmallSystems(t *testing.T) {
	cat := testCatalog(t)
	for _, nodes := range []int{1, 0} {
		var c metrics.Counters
		NewRegistry(cat, nodes, &c).Lookup(0)
		if got := c.Discovery.Load(); got != 1 {
			t.Errorf("lookup cost with %d nodes = %d, want 1", nodes, got)
		}
	}
}

func TestLookupUnknownFunction(t *testing.T) {
	cat := testCatalog(t)
	reg := NewRegistry(cat, 160, nil)
	if got := reg.Lookup(component.FunctionID(-1)); got != nil {
		t.Errorf("Lookup(-1) = %v, want nil", got)
	}
}

func TestLookupFiltersDownNodes(t *testing.T) {
	cat := testCatalog(t)
	reg := NewRegistry(cat, 160, nil)
	f := component.FunctionID(0)
	before := len(reg.Lookup(f))
	if before == 0 {
		t.Fatal("no candidates for function 0")
	}
	// Take one candidate's node down for a minute: it must vanish from
	// lookups inside the outage and return after it.
	victim := cat.Candidates(f)[0]
	clk := clock.NewVirtual()
	outages, err := faults.New(faults.Config{
		Crashes: []faults.Crash{{Node: cat.Component(victim).Node, At: time.Minute, Downtime: time.Minute}},
		Clock:   clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	reg.SetOutages(outages)
	if got := len(reg.Lookup(f)); got != before {
		t.Fatalf("lookup before the outage = %d, want %d", got, before)
	}
	clk.Advance(time.Minute)
	after := reg.Lookup(f)
	if len(after) >= before {
		t.Fatalf("lookup returned %d candidates with a node down, had %d", len(after), before)
	}
	for _, id := range after {
		if id == victim {
			t.Error("candidate on a down node still returned")
		}
	}
	// Repair restores it.
	clk.Advance(time.Minute)
	if got := len(reg.Lookup(f)); got != before {
		t.Errorf("lookup after repair = %d, want %d", got, before)
	}
}
