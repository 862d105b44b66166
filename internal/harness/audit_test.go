package harness

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/qos"
)

// TestAuditRules: each of Audit's three rules refuses the books that
// break it and passes the books that keep it.
func TestAuditRules(t *testing.T) {
	books := func(used float64, down bool) *Books {
		return &Books{
			NodeCap:  []qos.Resources{{CPU: 10, Memory: 10}},
			NodeUsed: []qos.Resources{{CPU: used, Memory: 1}},
			LinkCap:  []float64{10},
			LinkUsed: []float64{1},
			Down:     []bool{down},
		}
	}
	withWant := func(b *Books, node qos.Resources, link float64) *Books {
		b.NodeWant, b.LinkWant = []qos.Resources{node}, []float64{link}
		return b
	}
	for _, tc := range []struct {
		name      string
		prev, cur *Books
		err       string // "" when the books keep every rule
	}{
		{"within capacity", nil, books(10, false), ""},
		{"above capacity", nil, books(10.1, false), "outside [0, capacity"},
		{"negative", nil, books(-0.1, false), "outside [0, capacity"},
		{"footprint kept", nil, withWant(books(2, false), qos.Resources{CPU: 2, Memory: 1}, 1), ""},
		{"node footprint broken", nil, withWant(books(2, false), qos.Resources{CPU: 1, Memory: 1}, 1), "live footprint"},
		{"link footprint broken", nil, withWant(books(2, false), qos.Resources{CPU: 2, Memory: 1}, 0), "live footprint"},
		{"down node frees", books(3, true), books(2, true), ""},
		{"down node gains", books(2, true), books(3, true), "down since the last audit point"},
		{"node gains before it goes down", books(2, false), books(3, true), ""},
		{"node gains as it comes back", books(2, true), books(3, false), ""},
	} {
		err := Audit(tc.prev, tc.cur)
		switch {
		case tc.err == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)):
			t.Errorf("%s: got %v, want an error naming %q", tc.name, err, tc.err)
		}
	}
}

// TestNoCommitOnADownDistNode holds Audit's down-node rule where dist
// can break it: every node but the deputy crashes one nanosecond after
// the deputy decides, while its commits wait in the participants'
// mailboxes. A down node must drop them; the deputy's commit timeout
// then rolls the request back, and the books end pristine.
func TestNoCommitOnADownDistNode(t *testing.T) {
	cut, n := 0, seedCount(t, 5) // cut: decisions whose commits the crash caught in flight
	for seed := int64(1); seed <= int64(n); seed++ {
		cfg := scenarioCluster(seed)
		cfg.ProbingRatio = 1
		req := randomRequest(rand.New(rand.NewSource(seed)), cfg)
		var crashes []faults.Crash
		for node := 0; node < cfg.OverlayNodes; node++ {
			if node != req.Client {
				crashes = append(crashes, faults.Crash{Node: node, At: cfg.CollectTimeout + time.Nanosecond, Downtime: time.Hour})
			}
		}
		cfg.Faults = &faults.Config{Crashes: crashes}
		s, err := NewSim(cfg, seed)
		if err != nil {
			t.Fatal(err)
		}
		h, err := s.Cluster.ComposeAsync(req)
		if err != nil {
			t.Fatal(err)
		}
		// Step up to the deputy's decide, which its collect window's
		// timer enqueues.
		for decided := false; !decided; {
			progressed, err := s.step()
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if progressed {
				decided = strings.Contains(s.log[len(s.log)-1], "decide req=")
				continue
			}
			if _, ok := s.Clock.AdvanceToNext(); !ok {
				t.Fatalf("seed %d: no decide", seed)
			}
		}
		s.Clock.Advance(time.Nanosecond)
		if err := s.audit(nil); err != nil {
			t.Fatalf("seed %d: after the crash: %v", seed, err)
		}
		if err := s.RunToQuiescence(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		o, err := resolve(req, h)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// The commit timeout fires only for a decision with a participant
		// other than the deputy, all of which were down.
		if slices.ContainsFunc(s.log, func(l string) bool { return strings.Contains(l, "commit-timeout req=") }) {
			if o.Admitted {
				t.Fatalf("seed %d: admitted although its commits reached only down nodes", seed)
			}
			cut++
		}
		if err := s.audit([]SessionOutcome{o}); err != nil {
			t.Fatalf("seed %d: at quiescence: %v", seed, err)
		}
	}
	t.Logf("the crash caught the commits of %d of %d decisions in flight", cut, n)
	if cut == 0 {
		t.Fatal("no seed's crash caught a commit in flight")
	}
}
