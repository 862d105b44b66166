package metrics

import (
	"math"
	"sync"
	"testing"
	"time"
)

// TestCountersConcurrentAdds shares one instance across goroutines the
// way dist node goroutines do; with -race this is the counter race test.
func TestCountersConcurrentAdds(t *testing.T) {
	var c Counters
	const workers, iters = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				c.Probes.Add(1)
				c.ProbeReturns.Add(1)
				c.StateUpdates.Add(1)
				c.Aggregations.Add(1)
				c.Confirmations.Add(1)
				c.Discovery.Add(1)
				if i%200 == 0 {
					_ = c.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	const n = workers * iters
	if s, want := c.Snapshot(), (Counts{n, n, n, n, n, n}); s != want {
		t.Errorf("Snapshot = %+v, want %d per field", s, n)
	}
}

func TestSuccessSamplerWindows(t *testing.T) {
	var s SuccessSampler
	for i := 0; i < 8; i++ {
		s.Record(i%2 == 0) // 4 of 8 succeed
	}
	rate, n := s.Roll()
	if rate != 0.5 || n != 8 {
		t.Errorf("Roll = (%v, %d), want (0.5, 8)", rate, n)
	}
	// The window restarts; cumulative is preserved.
	s.Record(true)
	s.Record(true)
	if rate, n := s.Roll(); rate != 1 || n != 2 {
		t.Errorf("second Roll = (%v, %d), want (1, 2)", rate, n)
	}
	if rate, n := s.Cumulative(); math.Abs(rate-0.6) > 1e-12 || n != 10 {
		t.Errorf("Cumulative = (%v, %d), want (0.6, 10)", rate, n)
	}
}

func TestSuccessSamplerEmptyWindow(t *testing.T) {
	var s SuccessSampler
	if rate, n := s.Roll(); rate != 1 || n != 0 {
		t.Errorf("empty Roll = (%v, %d), want (1, 0)", rate, n)
	}
}

func TestSeries(t *testing.T) {
	var s Series
	if s.Len() != 0 || s.Mean() != 0 || s.Min() != 0 {
		t.Error("empty series not zero-valued")
	}
	s.Add(time.Minute, 0.9)
	s.Add(2*time.Minute, 0.5)
	s.Add(3*time.Minute, 0.7)
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	if got := s.Mean(); math.Abs(got-0.7) > 1e-12 {
		t.Errorf("Mean = %v, want 0.7", got)
	}
	if got := s.Min(); got != 0.5 {
		t.Errorf("Min = %v, want 0.5", got)
	}
	pts := s.Points()
	if len(pts) != 3 || pts[1] != (Point{At: 2 * time.Minute, Value: 0.5}) {
		t.Errorf("Points = %v", pts)
	}
	// Points must be a copy.
	pts[0].Value = 99
	if s.Points()[0].Value == 99 {
		t.Error("Points exposes internal storage")
	}
}
