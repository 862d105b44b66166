package acp_test

import (
	"errors"
	"slices"
	"testing"

	acp "repro"
)

func testClusterConfig() acp.ClusterConfig {
	cfg := acp.DefaultClusterConfig()
	cfg.IPNodes = 256
	cfg.OverlayNodes = 32
	cfg.NumFunctions = 8
	return cfg
}

func TestFacadeEndToEnd(t *testing.T) {
	cluster, err := acp.NewCluster(testClusterConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Shutdown()

	cluster.RegisterFunction(1, func(u acp.DataUnit) []acp.DataUnit {
		u.Payload = u.Payload.(int) + 100
		return []acp.DataUnit{u}
	})

	graph := acp.NewPathGraph([]acp.FunctionID{0, 1})
	id, err := cluster.Find(graph,
		acp.QoS{Delay: 100000, LossCost: acp.LossCost(0.9)},
		[]acp.Resources{{CPU: 5, Memory: 50}, {CPU: 5, Memory: 50}},
		100)
	if err != nil {
		t.Fatal(err)
	}
	in, out, err := cluster.Process(id)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		in <- acp.DataUnit{Seq: 1, Payload: 7}
		close(in)
	}()
	got := <-out
	if got.Payload.(int) != 107 {
		t.Errorf("payload = %v, want 107", got.Payload)
	}
	if _, open := <-out; open {
		t.Error("output channel not closed after drain")
	}
	if err := cluster.Close(id); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeBranchGraph(t *testing.T) {
	g, err := acp.NewBranchGraph(0, []acp.FunctionID{1}, []acp.FunctionID{2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumPositions() != 4 {
		t.Errorf("positions = %d", g.NumPositions())
	}
}

func TestFacadeLossRoundTrip(t *testing.T) {
	if got := acp.LossProb(acp.LossCost(0.25)); got < 0.2499 || got > 0.2501 {
		t.Errorf("round trip = %v", got)
	}
}

func TestReproduceFigureUnknown(t *testing.T) {
	_, err := acp.ReproduceFigure("99z", acp.FigureOptions{})
	var unknown *acp.UnknownFigureError
	if !errors.As(err, &unknown) || unknown.Name != "99z" {
		t.Errorf("err = %v", err)
	}
}

func TestFigureNames(t *testing.T) {
	names := acp.FigureNames()
	want := []string{"5a", "5b", "6", "6a", "6b", "7", "7a", "7b", "8a", "8b"}
	if !slices.Equal(names, want) {
		t.Errorf("FigureNames = %v, want the paper's figures %v", names, want)
	}
}

func TestAlgorithmConstants(t *testing.T) {
	if acp.ACP.String() != "ACP" || acp.Optimal.String() != "Optimal" {
		t.Error("algorithm constants miswired")
	}
	if acp.SP.String() != "SP" || acp.RP.String() != "RP" {
		t.Error("probing baselines miswired")
	}
	if acp.Random.String() != "Random" || acp.Static.String() != "Static" {
		t.Error("heuristic baselines miswired")
	}
}
