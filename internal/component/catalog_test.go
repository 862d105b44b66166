package component

import (
	"math/rand"
	"testing"

	"repro/internal/qos"
)

func TestPlaceValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tests := []struct {
		name     string
		numNodes int
		mutate   func(*PlacementConfig)
	}{
		{name: "zero nodes", numNodes: 0, mutate: func(c *PlacementConfig) {}},
		{name: "zero functions", numNodes: 10, mutate: func(c *PlacementConfig) { c.NumFunctions = 0 }},
		{name: "zero per node", numNodes: 10, mutate: func(c *PlacementConfig) { c.ComponentsPerNode = 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultPlacementConfig()
			tt.mutate(&cfg)
			if _, err := Place(tt.numNodes, cfg, rng); err == nil {
				t.Error("Place accepted invalid config")
			}
		})
	}
}

func TestPlaceEvenFunctionCoverage(t *testing.T) {
	cfg := DefaultPlacementConfig()
	cat, err := Place(400, cfg, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	if got := cat.NumComponents(); got != 400 {
		t.Fatalf("NumComponents = %d, want 400", got)
	}
	// 400 components over 80 functions: exactly 5 candidates each.
	for f := 0; f < cfg.NumFunctions; f++ {
		if got := len(cat.Candidates(FunctionID(f))); got != 5 {
			t.Errorf("function %d has %d candidates, want 5", f, got)
		}
	}
}

func TestPlaceProportionalScaling(t *testing.T) {
	// The scalability experiment (§4.2) relies on candidates growing
	// proportionally with node count.
	cfg := DefaultPlacementConfig()
	for _, n := range []int{200, 400, 600} {
		cat, err := Place(n, cfg, rand.New(rand.NewSource(3)))
		if err != nil {
			t.Fatal(err)
		}
		want := n / cfg.NumFunctions
		for f := 0; f < cfg.NumFunctions; f++ {
			got := len(cat.Candidates(FunctionID(f)))
			if got < want || got > want+1 {
				t.Fatalf("n=%d: function %d has %d candidates, want %d or %d", n, f, got, want, want+1)
			}
		}
	}
}

func TestPlacePerNodeCount(t *testing.T) {
	cfg := DefaultPlacementConfig()
	cfg.ComponentsPerNode = 3
	cat, err := Place(50, cfg, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	for node := 0; node < 50; node++ {
		if got := len(cat.OnNode(node)); got != 3 {
			t.Errorf("node %d hosts %d components, want 3", node, got)
		}
		for _, id := range cat.OnNode(node) {
			if cat.Component(id).Node != node {
				t.Errorf("component %d indexed on node %d but placed on %d", id, node, cat.Component(id).Node)
			}
		}
	}
}

func TestPlaceQoSInRange(t *testing.T) {
	cfg := DefaultPlacementConfig()
	cat, err := Place(100, cfg, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cat.NumComponents(); i++ {
		c := cat.Component(ComponentID(i))
		if c.QoS.Delay < minProcDelay || c.QoS.Delay > maxProcDelay {
			t.Errorf("component %d delay %v out of range", i, c.QoS.Delay)
		}
		loss := qos.LossProb(c.QoS.LossCost)
		if loss < minLoss-1e-12 || loss > maxLoss+1e-12 {
			t.Errorf("component %d loss %v out of range", i, loss)
		}
	}
}

func TestCandidatesOutOfRange(t *testing.T) {
	cat, err := Place(10, DefaultPlacementConfig(), rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	if got := cat.Candidates(-1); got != nil {
		t.Errorf("Candidates(-1) = %v", got)
	}
	if got := cat.Candidates(FunctionID(cat.NumFunctions())); got != nil {
		t.Errorf("Candidates(out of range) = %v", got)
	}
	if got := cat.OnNode(-1); got != nil {
		t.Errorf("OnNode(-1) = %v", got)
	}
	if got := cat.OnNode(10); got != nil {
		t.Errorf("OnNode(10) = %v", got)
	}
}

func TestPlaceDeterministic(t *testing.T) {
	c1, err := Place(50, DefaultPlacementConfig(), rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	c2, err := Place(50, DefaultPlacementConfig(), rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < c1.NumComponents(); i++ {
		if c1.Component(ComponentID(i)) != c2.Component(ComponentID(i)) {
			t.Fatalf("component %d differs across identical seeds", i)
		}
	}
}

func TestSecurityLevelsAssigned(t *testing.T) {
	cat, err := Place(300, DefaultPlacementConfig(), rand.New(rand.NewSource(8)))
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]int)
	for i := 0; i < cat.NumComponents(); i++ {
		lvl := cat.Component(ComponentID(i)).Security
		if lvl < 1 || lvl > 3 {
			t.Fatalf("component %d has security level %d", i, lvl)
		}
		seen[lvl]++
	}
	for lvl := 1; lvl <= 3; lvl++ {
		if seen[lvl] < 50 {
			t.Errorf("level %d drawn only %d times of 300", lvl, seen[lvl])
		}
	}
}

func TestCatalogMoveUpdatesIndexes(t *testing.T) {
	cat, err := Place(20, DefaultPlacementConfig(), rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	id := cat.OnNode(0)[0]
	if err := cat.Move(id, 5); err != nil {
		t.Fatal(err)
	}
	if cat.Component(id).Node != 5 {
		t.Errorf("component node = %d", cat.Component(id).Node)
	}
	for _, cid := range cat.OnNode(0) {
		if cid == id {
			t.Error("component still indexed on old node")
		}
	}
	found := false
	for _, cid := range cat.OnNode(5) {
		if cid == id {
			found = true
		}
	}
	if !found {
		t.Error("component not indexed on new node")
	}
	// Idempotent move and error cases.
	if err := cat.Move(id, 5); err != nil {
		t.Errorf("same-node move: %v", err)
	}
	if err := cat.Move(ComponentID(-1), 5); err == nil {
		t.Error("unknown component accepted")
	}
	if err := cat.Move(id, 999); err == nil {
		t.Error("out-of-range node accepted")
	}
}
