package harness

import (
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/qos"
)

// seedCount reads ACP_SIM_SEEDS: how many randomized seeds each
// simulation test sweeps. CI's sim-harness job sets 50, the nightly
// variant 500; the local default keeps `go test ./...` quick.
func seedCount(t *testing.T, def int) int {
	t.Helper()
	v := os.Getenv("ACP_SIM_SEEDS")
	if v == "" {
		return def
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 1 {
		t.Fatalf("ACP_SIM_SEEDS=%q is not a positive integer", v)
	}
	return n
}

// replaySeed reads ACP_SIM_SEED: when set, every sweep runs only that
// seed — the one-liner replay for a failing run:
//
//	ACP_SIM_SEED=<seed> go test ./internal/harness -run TestRandomizedScenarios -v
func replaySeed(t *testing.T) (int64, bool) {
	t.Helper()
	v := os.Getenv("ACP_SIM_SEED")
	if v == "" {
		return 0, false
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		t.Fatalf("ACP_SIM_SEED=%q is not an integer", v)
	}
	return n, true
}

// reportFailure prints the failing seed and the tail of its step log so
// the schedule position of the violation is visible without rerunning.
func reportFailure(t *testing.T, rep *Report, err error) {
	t.Helper()
	const tail = 40
	log := rep.Log
	if len(log) > tail {
		log = log[len(log)-tail:]
	}
	t.Errorf("seed %d failed after %d steps: %v\nreplay: ACP_SIM_SEED=%d go test ./internal/harness -run %s -v\nlast %d schedule entries:\n%s",
		rep.Seed, rep.Steps, err, rep.Seed, t.Name(), len(log), strings.Join(log, "\n"))
}

func TestRandomizedScenarios(t *testing.T) {
	if seed, ok := replaySeed(t); ok {
		rep, err := RunScenario(ScenarioConfig{Seed: seed})
		if err != nil {
			reportFailure(t, rep, err)
		}
		return
	}
	n := seedCount(t, 10)
	for seed := int64(1); seed <= int64(n); seed++ {
		rep, err := RunScenario(ScenarioConfig{Seed: seed})
		if err != nil {
			reportFailure(t, rep, err)
			return
		}
		if rep.Steps == 0 {
			t.Fatalf("seed %d: scenario dispatched no messages", seed)
		}
	}
}

func TestOracleParity(t *testing.T) {
	if seed, ok := replaySeed(t); ok {
		rep, err := RunScenario(ScenarioConfig{Seed: seed, Oracle: true})
		if err != nil {
			reportFailure(t, rep, err)
		}
		return
	}
	n := seedCount(t, 5)
	if n > 50 {
		n = 50 // the exhaustive oracle is the expensive half; cap the nightly sweep
	}
	admitted := 0
	for seed := int64(1); seed <= int64(n); seed++ {
		rep, err := RunScenario(ScenarioConfig{Seed: seed, Oracle: true, Requests: 10})
		if err != nil {
			reportFailure(t, rep, err)
			return
		}
		admitted += rep.Admitted
	}
	if admitted == 0 {
		t.Fatal("oracle sweep admitted nothing; scenario workload is degenerate")
	}
}

// TestSchedulerDeterminism is the bit-reproducibility contract: the
// same seed must replay the identical schedule, step for step. The
// replays are long enough for release passes to see several live
// sessions at once, so the order those are released in is part of what
// is replayed (a map-order release diverges at seed 2).
func TestSchedulerDeterminism(t *testing.T) {
	for _, seed := range []int64{42, 1, 2, 3, 4, 5} {
		cfg := ScenarioConfig{Seed: seed, Requests: 64}
		first, err := RunScenario(cfg)
		if err != nil {
			reportFailure(t, first, err)
			return
		}
		second, err := RunScenario(cfg)
		if err != nil {
			reportFailure(t, second, err)
			return
		}
		if len(first.Log) != len(second.Log) {
			t.Fatalf("seed %d: different schedule lengths: %d vs %d", seed, len(first.Log), len(second.Log))
		}
		for i := range first.Log {
			if first.Log[i] != second.Log[i] {
				t.Fatalf("seed %d diverged at schedule entry %d:\n  run 1: %s\n  run 2: %s",
					seed, i, first.Log[i], second.Log[i])
			}
		}
		if first.Admitted != second.Admitted || first.Steps != second.Steps {
			t.Fatalf("seed %d: different outcomes: admitted %d vs %d, steps %d vs %d",
				seed, first.Admitted, second.Admitted, first.Steps, second.Steps)
		}
	}
}

// TestDistinctSeedsDiverge guards the other direction: different seeds
// must explore different schedules (this is what the splitmix seed
// derivation in dist exists for — the old affine derivation made seed
// families collide).
func TestDistinctSeedsDiverge(t *testing.T) {
	a, err := RunScenario(ScenarioConfig{Seed: 1, Requests: 8})
	if err != nil {
		reportFailure(t, a, err)
		return
	}
	b, err := RunScenario(ScenarioConfig{Seed: 2, Requests: 8})
	if err != nil {
		reportFailure(t, b, err)
		return
	}
	if strings.Join(a.Log, "\n") == strings.Join(b.Log, "\n") {
		t.Fatal("seeds 1 and 2 produced identical schedules")
	}
}

// TestSimQuiescenceResolvesEverything: an oracle-mode run (no faults)
// must admit a healthy share of a feasible workload.
func TestSimAdmitsFeasibleWorkload(t *testing.T) {
	rep, err := RunScenario(ScenarioConfig{Seed: 7, Oracle: true, Requests: 10})
	if err != nil {
		reportFailure(t, rep, err)
		return
	}
	if rep.Admitted == 0 {
		t.Fatalf("zero of %d feasible requests admitted under zero faults", rep.Requests)
	}
}

// TestSortedLiveOrdersByOwner: the scenario releases live sessions in the
// order sortedLive gives, drawing one rng value per session, so a map-order
// list would release a different set on every run of the same seed.
func TestSortedLiveOrdersByOwner(t *testing.T) {
	live := make(map[int64]int)
	for i := 0; i < 64; i++ {
		live[int64(1000-7*i)] = 63 - i // owner 559 holds index 0, owner 1000 index 63
	}
	for i, idx := range sortedLive(live) {
		if idx != i {
			t.Fatalf("sortedLive = %v, want indices in owner order", sortedLive(live))
		}
	}
}

// TestSumCommitsIsReproducible: a node's commit sum must not depend on
// map order. Float addition does not associate: 1e16 swallows a 1 added
// after it, so only owner order gives the same bits on every call.
func TestSumCommitsIsReproducible(t *testing.T) {
	commits := map[int64]qos.Resources{0: {CPU: 1e16}}
	for owner := int64(1); owner <= 64; owner++ {
		commits[owner] = qos.Resources{CPU: 1}
	}
	var want qos.Resources
	for owner := int64(0); owner <= 64; owner++ {
		want = want.Add(commits[owner])
	}
	for i := 0; i < 20; i++ {
		if got := sumCommits(commits); got != want {
			t.Fatalf("sumCommits = %v, want the owner-order sum %v", got, want)
		}
	}
}
