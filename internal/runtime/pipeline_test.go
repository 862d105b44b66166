package runtime

import (
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/component"
	"repro/internal/qos"
)

// TestPropertyPathPipelinePreservesUnits: identity pipelines of random
// length deliver every unit exactly once, in order.
func TestPropertyPathPipelinePreservesUnits(t *testing.T) {
	c := testCluster(t)
	rng := rand.New(rand.NewSource(21))
	f := func(seed int64) bool {
		n := 2 + rng.Intn(4)
		fns := make([]component.FunctionID, n)
		for i, v := range rng.Perm(8)[:n] {
			fns[i] = component.FunctionID(v)
		}
		graph := component.NewPathGraph(fns)
		qosReq, _, bw := easyArgs(n)
		resReq := makeRes(n)
		id, err := c.Find(graph, qosReq, resReq, bw)
		if err != nil {
			t.Logf("find: %v", err)
			return false
		}
		in, out, err := c.Process(id)
		if err != nil {
			return false
		}
		units := 20 + rng.Intn(80)
		go func() {
			for i := 0; i < units; i++ {
				in <- DataUnit{Seq: int64(i)}
			}
			close(in)
		}()
		got := 0
		ordered := true
		for u := range out {
			if u.Seq != int64(got) {
				ordered = false
			}
			got++
		}
		if err := c.Close(id); err != nil {
			return false
		}
		return got == units && ordered
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func makeRes(n int) []qos.Resources {
	res := make([]qos.Resources, n)
	for i := range res {
		res[i] = qos.Resources{CPU: 2, Memory: 20}
	}
	return res
}

// TestNoGoroutineLeaks: repeated session lifecycles (graceful and
// forced) must not accumulate goroutines.
func TestNoGoroutineLeaks(t *testing.T) {
	c := testCluster(t)
	graph := component.NewPathGraph([]component.FunctionID{0, 1, 2})
	qosReq, resReq, bw := easyArgs(3)

	runOne := func(graceful bool) {
		id, err := c.Find(graph, qosReq, resReq, bw)
		if err != nil {
			t.Fatal(err)
		}
		in, out, err := c.Process(id)
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			for i := 0; i < 50; i++ {
				in <- DataUnit{Seq: int64(i)}
			}
			if graceful {
				close(in)
			}
		}()
		if graceful {
			for range out {
			}
		}
		if err := c.Close(id); err != nil {
			t.Fatal(err)
		}
	}

	runOne(true) // warm up
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		runOne(i%2 == 0)
	}
	// Give forced-teardown stragglers a moment to exit.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+4 {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Errorf("goroutines grew from %d to %d over 20 session lifecycles", before, runtime.NumGoroutine())
}
