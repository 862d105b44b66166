package experiment

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
)

// TestRunConcurrentMatchesSerial: runs are independent — each builds its
// own engine, ledger, outage schedule and composer over the shared
// read-only platform — so the concurrent driver must reproduce the serial
// results exactly, in input order. The last two cells crash nodes, one of
// them recomposing the disrupted sessions: node failures live in each
// run's own schedule, never in the shared catalog.
func TestRunConcurrentMatchesSerial(t *testing.T) {
	p := smallPlatform(t, 3)
	algs := []core.Algorithm{core.AlgACP, core.AlgRP, core.AlgSP, core.AlgACP, core.AlgACP, core.AlgACP}
	rcs := make([]RunConfig, len(algs))
	for i, alg := range algs {
		rc := shortRun(20)
		rc.Seed = int64(i + 1)
		rc.Algorithm = alg
		rcs[i] = rc
	}
	for i, recompose := range []bool{false, true} {
		rc := &rcs[len(rcs)-2+i]
		rc.FailuresPerMinute = 1
		rc.RepairTime = 5 * time.Minute
		rc.RecomposeOnFailure = recompose
	}

	serial := make([]*Result, len(rcs))
	for i, rc := range rcs {
		r, err := Run(p, rc)
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = r
	}
	concurrent, err := RunConcurrent(p, rcs, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(concurrent) != len(serial) {
		t.Fatalf("RunConcurrent returned %d results, want %d", len(concurrent), len(serial))
	}
	for i := range serial {
		s, c := serial[i], concurrent[i]
		if c == nil {
			t.Fatalf("run %d: nil concurrent result", i)
		}
		if s.SuccessRate != c.SuccessRate || s.Requests != c.Requests {
			t.Errorf("run %d (%s): concurrent admission %v/%d, serial %v/%d",
				i, algs[i], c.SuccessRate, c.Requests, s.SuccessRate, s.Requests)
		}
		if s.OverheadPerMinute != c.OverheadPerMinute {
			t.Errorf("run %d: overhead %v != %v", i, c.OverheadPerMinute, s.OverheadPerMinute)
		}
		if s.PhaseBreakdown != c.PhaseBreakdown {
			t.Errorf("run %d: phase breakdown %+v != %+v", i, c.PhaseBreakdown, s.PhaseBreakdown)
		}
		if !reflect.DeepEqual(s.SuccessSeries, c.SuccessSeries) {
			t.Errorf("run %d: success series diverged", i)
		}
		if s.MeanProbeLatency != c.MeanProbeLatency {
			t.Errorf("run %d: probe latency %v != %v", i, c.MeanProbeLatency, s.MeanProbeLatency)
		}
		if s.Failures != c.Failures || s.Disrupted != c.Disrupted || s.Recomposed != c.Recomposed {
			t.Errorf("run %d: concurrent failures/disrupted/recomposed %d/%d/%d, serial %d/%d/%d",
				i, c.Failures, c.Disrupted, c.Recomposed, s.Failures, s.Disrupted, s.Recomposed)
		}
	}
	if last := serial[len(serial)-1]; last.Failures == 0 || last.Disrupted == 0 || last.Recomposed == 0 {
		t.Errorf("the recomposing failure cell crashed %d nodes, disrupted %d and recomposed %d: it exercises nothing",
			last.Failures, last.Disrupted, last.Recomposed)
	}

	// workers <= 0 selects a sensible default rather than failing.
	again, err := RunConcurrent(p, rcs[:2], 0)
	if err != nil {
		t.Fatal(err)
	}
	if again[0].SuccessRate != serial[0].SuccessRate {
		t.Error("default-worker run diverged from serial")
	}
}
