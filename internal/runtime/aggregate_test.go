package runtime

import (
	goruntime "runtime"
	"testing"
	"time"

	"repro/internal/state"
)

// TestClusterReaggregatesEveryPeriod: a live cluster must disseminate
// link load the way the experiment loop does — the aggregated snapshot a
// walk's replica copies (Replica.Agg, what the coarse bandwidth
// qualification and W(c)'s link term read) follows the reported link
// states once per aggregation period, for as long as the cluster lives,
// and Shutdown leaves no timer and no goroutine behind.
func TestClusterReaggregatesEveryPeriod(t *testing.T) {
	goroutines := goruntime.NumGoroutine()
	c, _, vc := adaptCluster(t)
	period := c.global.Period()
	const link = 0
	capacity := c.ledger.LinkCapacity(link)
	agg := func() float64 {
		var rep state.Replica
		c.global.Refresh(&rep)
		return rep.Agg[link]
	}
	if got := agg(); got != capacity {
		t.Fatalf("fresh cluster aggregates link %d at %v, capacity %v", link, got, capacity)
	}

	// Half the link committed: reported at once (past the update
	// threshold), disseminated only when the period comes round.
	if err := c.ledger.CommitSession(-1, nil, map[int]float64{link: capacity / 2}); err != nil {
		t.Fatal(err)
	}
	vc.Advance(period - time.Second)
	if got := agg(); got != capacity {
		t.Fatalf("aggregate moved to %v before the period was up", got)
	}
	vc.Advance(time.Second)
	if got := agg(); got != capacity/2 {
		t.Fatalf("aggregate %v one period after half of %v was committed: the cluster does not re-aggregate", got, capacity)
	}
	// And again: the timer re-arms.
	c.ledger.ReleaseSession(-1)
	vc.Advance(period)
	if got := agg(); got != capacity {
		t.Fatalf("aggregate %v one period after the release, want %v: the aggregation did not re-arm", got, capacity)
	}

	c.Shutdown()
	if n := vc.PendingTimers(); n != 0 {
		t.Fatalf("%d timers pending after Shutdown", n)
	}
	done := c.Counters().Aggregations
	vc.Advance(3 * period)
	if got := c.Counters().Aggregations; got != done {
		t.Fatalf("aggregation messages went from %d to %d after Shutdown", done, got)
	}
	if n := goruntime.NumGoroutine(); n > goroutines {
		t.Fatalf("%d goroutines after Shutdown, %d before the cluster was built", n, goroutines)
	}
}
