package component

import (
	"math/rand"
	"testing"
)

func TestGenerateLibraryValidation(t *testing.T) {
	t.Run("too few functions", func(t *testing.T) {
		if _, err := GenerateLibrary(3, rand.New(rand.NewSource(1))); err == nil {
			t.Error("GenerateLibrary accepted invalid config")
		}
	})
}

func TestGenerateLibraryShapes(t *testing.T) {
	paths, dags := 0, 0
	for seed := int64(2); seed < 7; seed++ {
		lib, err := GenerateLibrary(DefaultNumFunctions, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		if lib.Count() != templateCount {
			t.Fatalf("Count = %d, want %d", lib.Count(), templateCount)
		}
		for i := 0; i < lib.Count(); i++ {
			g := lib.Graph(i)
			if err := g.Validate(); err != nil {
				t.Fatalf("template %d invalid: %v", i, err)
			}
			if g.IsPath() {
				paths++
				if n := g.NumPositions(); n < minPathLen || n > maxPathLen {
					t.Errorf("path template %d has %d positions, want [%d,%d]", i, n, minPathLen, maxPathLen)
				}
			} else {
				dags++
				for _, p := range g.Paths() {
					if len(p) < minPathLen || len(p) > maxPathLen {
						t.Errorf("DAG template %d has branch path of %d nodes, want [%d,%d]",
							i, len(p), minPathLen, maxPathLen)
					}
				}
				if got := len(g.Paths()); got != 2 {
					t.Errorf("DAG template %d has %d branch paths, want 2", i, got)
				}
			}
		}
	}
	if paths == 0 || dags == 0 {
		t.Errorf("shape mix degenerate: %d paths, %d DAGs", paths, dags)
	}
}

func TestGenerateLibraryDistinctFunctions(t *testing.T) {
	lib, err := GenerateLibrary(DefaultNumFunctions, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < lib.Count(); i++ {
		g := lib.Graph(i)
		seen := make(map[FunctionID]bool)
		for _, f := range g.Functions {
			if seen[f] {
				t.Fatalf("template %d repeats function %d", i, f)
			}
			seen[f] = true
			if int(f) < 0 || int(f) >= DefaultNumFunctions {
				t.Fatalf("template %d uses out-of-range function %d", i, f)
			}
		}
	}
}

func TestLibraryPick(t *testing.T) {
	lib, err := GenerateLibrary(DefaultNumFunctions, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	seen := make(map[int]bool)
	for i := 0; i < 200; i++ {
		idx, g := lib.Pick(rng)
		if g != lib.Graph(idx) {
			t.Fatal("Pick returned mismatched index and graph")
		}
		seen[idx] = true
	}
	if len(seen) < templateCount/2 {
		t.Errorf("Pick visited only %d of %d templates", len(seen), templateCount)
	}
}
