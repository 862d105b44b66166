package faults

import (
	"reflect"
	"testing"
	"time"
)

func TestNewValidation(t *testing.T) {
	bad := []Config{
		{DropProb: -0.1},
		{DropProb: 1.1},
		{DupProb: -1},
		{DupProb: 2},
		{MaxDelay: -time.Second},
		{Crashes: []Crash{{Node: -1, At: 0, Downtime: time.Second}}},
		{Crashes: []Crash{{Node: 0, At: -time.Second, Downtime: time.Second}}},
		{Crashes: []Crash{{Node: 0, At: 0, Downtime: 0}}},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d (%+v) accepted", i, cfg)
		}
	}
}

func TestNewNilForNoFaults(t *testing.T) {
	in, err := New(Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if in != nil {
		t.Fatal("fault-free config should yield a nil injector")
	}
	// The nil injector answers "no fault" everywhere.
	if in.Enabled() {
		t.Error("nil injector reports enabled")
	}
	if a := in.OnSend(KindProbe); a != (Action{}) {
		t.Errorf("nil injector action = %+v", a)
	}
	if in.Down(3) {
		t.Error("nil injector reports a node down")
	}
}

func TestSeededDeterminism(t *testing.T) {
	mk := func() *Injector {
		in, err := New(Config{Seed: 7, DropProb: 0.3, DupProb: 0.2, MaxDelay: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	a, b := mk(), mk()
	for i := 0; i < 1000; i++ {
		if av, bv := a.OnSend(KindProbe), b.OnSend(KindProbe); av != bv {
			t.Fatalf("decision %d diverged: %+v vs %+v", i, av, bv)
		}
	}
}

func TestDropRateRoughlyMatches(t *testing.T) {
	in, err := New(Config{Seed: 3, DropProb: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	const n = 20000
	drops := 0
	for i := 0; i < n; i++ {
		if in.OnSend(KindProtocol).Drop {
			drops++
		}
	}
	got := float64(drops) / n
	if got < 0.22 || got > 0.28 {
		t.Errorf("empirical drop rate %.3f far from configured 0.25", got)
	}
}

func TestDroppedMessagesAreNotDuplicatedOrDelayed(t *testing.T) {
	in, err := New(Config{Seed: 5, DropProb: 0.5, DupProb: 1, MaxDelay: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		a := in.OnSend(KindProbe)
		if a.Drop && (a.Duplicate || a.Delay != 0) {
			t.Fatalf("dropped message also duplicated/delayed: %+v", a)
		}
		if !a.Drop && !a.Duplicate {
			t.Fatalf("DupProb=1 but surviving message not duplicated: %+v", a)
		}
	}
}

func TestCrashWindows(t *testing.T) {
	in, err := New(Config{
		Seed:    1,
		Crashes: []Crash{{Node: 2, At: 0, Downtime: 50 * time.Millisecond}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !in.Down(2) {
		t.Error("node 2 should be down at t=0")
	}
	if in.Down(1) {
		t.Error("node 1 has no outage scheduled")
	}
	deadline := time.Now().Add(2 * time.Second)
	for in.Down(2) {
		if time.Now().After(deadline) {
			t.Fatal("node 2 never restarted")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestRandomCrashes(t *testing.T) {
	a := RandomCrashes(9, 32, 5, time.Second, 100*time.Millisecond)
	b := RandomCrashes(9, 32, 5, time.Second, 100*time.Millisecond)
	if len(a) != 5 {
		t.Fatalf("len = %d, want 5", len(a))
	}
	seen := make(map[int]bool)
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("schedule not deterministic at %d: %+v vs %+v", i, a[i], b[i])
		}
		if a[i].Node < 0 || a[i].Node >= 32 {
			t.Errorf("node %d out of range", a[i].Node)
		}
		if seen[a[i].Node] {
			t.Errorf("node %d crashed twice", a[i].Node)
		}
		seen[a[i].Node] = true
		if a[i].At < 0 || a[i].At >= time.Second {
			t.Errorf("crash time %v outside window", a[i].At)
		}
	}
	if got := RandomCrashes(1, 4, 100, time.Second, time.Millisecond); len(got) != 4 {
		t.Errorf("count not capped at node count: %d", len(got))
	}
	if got := RandomCrashes(1, 0, 3, time.Second, time.Millisecond); got != nil {
		t.Errorf("zero nodes should yield nil, got %v", got)
	}
}

func TestPoissonCrashes(t *testing.T) {
	const horizon, downtime = 100 * time.Minute, 5 * time.Minute
	a := PoissonCrashes(3, 400, 1, horizon, downtime)
	if b := PoissonCrashes(3, 400, 1, horizon, downtime); !reflect.DeepEqual(a, b) {
		t.Fatal("same seed drew two schedules")
	}
	if reflect.DeepEqual(a, PoissonCrashes(4, 400, 1, horizon, downtime)) {
		t.Error("seeds 3 and 4 drew the same schedule")
	}

	// Four nodes, five-minute outages arriving twice a minute: most
	// arrivals find their node down, so the schedule must skip to one
	// that is up, or drop the arrival when none is.
	for seed := int64(1); seed <= 20; seed++ {
		crashes := PoissonCrashes(seed, 4, 2, horizon, downtime)
		if len(crashes) == 0 {
			t.Fatalf("seed %d: no crashes", seed)
		}
		for i, cr := range crashes {
			if cr.Node < 0 || cr.Node >= 4 || cr.Downtime != downtime {
				t.Fatalf("seed %d: crash %+v", seed, cr)
			}
			if cr.At < 0 || cr.At >= horizon {
				t.Errorf("seed %d: crash at %v outside [0, %v)", seed, cr.At, horizon)
			}
			for _, prev := range crashes[:i] {
				if prev.At > cr.At {
					t.Fatalf("seed %d: crashes out of order: %v after %v", seed, cr.At, prev.At)
				}
				if prev.Node == cr.Node && cr.At < prev.At+prev.Downtime {
					t.Errorf("seed %d: node %d crashes at %v inside its outage from %v",
						seed, cr.Node, cr.At, prev.At)
				}
			}
		}
	}

	// On 400 nodes nearly every arrival finds its node up, so the count
	// is Poisson with mean rate × horizon = 100 (sd 10).
	total := 0
	for seed := int64(1); seed <= 20; seed++ {
		n := len(PoissonCrashes(seed, 400, 1, horizon, downtime))
		if n < 50 || n > 150 {
			t.Errorf("seed %d: %d crashes, want about 100", seed, n)
		}
		total += n
	}
	if mean := float64(total) / 20; mean < 90 || mean > 110 {
		t.Errorf("mean crash count %.1f over 20 seeds, want about 100", mean)
	}

	if got := PoissonCrashes(1, 400, 0, horizon, downtime); got != nil {
		t.Errorf("rate 0 drew %d crashes", len(got))
	}
}
