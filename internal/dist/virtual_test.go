package dist

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/harness/clock"
)

// virtualCluster starts a cluster on an auto-advanced virtual clock: a
// driver goroutine fires the next pending timer whenever the network is
// quiet (no message queued or mid-dispatch), so every protocol wait —
// collect windows, hold TTLs, sweep ticks, retry backoffs — elapses in
// microseconds of wall time. The inflight credit makes the quiet check
// sound: a collect or commit timeout can never fire while the round it
// bounds still has messages in play, which is exactly the ordering the
// wall clock guarantees with time to spare.
func virtualCluster(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	v := clock.NewVirtual()
	cfg.Clock = v
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			c.mu.Lock()
			closed := c.closed
			c.mu.Unlock()
			// After Shutdown the node goroutines are gone, so queued
			// messages keep their credits forever; advance regardless —
			// Shutdown itself waits on delayed-delivery timers.
			if closed || c.inflight.Load() == 0 {
				if _, ok := v.AdvanceToNext(); ok {
					// Keep draining timers back-to-back while quiet: a
					// fault-heavy run parks one timer per delayed
					// message, far too many to pace at sleep granularity.
					runtime.Gosched()
					continue
				}
			}
			time.Sleep(50 * time.Microsecond)
		}
	}()
	t.Cleanup(func() {
		c.Shutdown() // needs the driver alive: pending virtual timers must fire
		close(stop)
		wg.Wait()
	})
	return c
}
