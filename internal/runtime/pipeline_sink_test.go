package runtime

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/component"
)

// TestPipelineMultiSinkSingleClose fabricates a two-sink session —
// Graph.Validate rejects the shape today, so the panic was latent — and
// checks the shared output channel is closed exactly once after both
// sinks drain. Under the old per-goroutine close this panicked with
// "close of closed channel".
func TestPipelineMultiSinkSingleClose(t *testing.T) {
	g := &component.Graph{
		Functions: []component.FunctionID{0, 1, 2},
		Edges:     []component.Edge{{From: 0, To: 1}, {From: 0, To: 2}},
	}
	s := &session{
		id:      999,
		request: &component.Request{Graph: g},
		running: true,
		procFn:  make([]ProcessorFunc, 3),
		perComp: make([]atomic.Int64, 3),
		input:   make(chan DataUnit, 8),
		output:  make(chan DataUnit, 16),
		quit:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	startPipeline(s)

	const units = 5
	go func() {
		for i := 0; i < units; i++ {
			s.input <- DataUnit{Seq: int64(i)}
		}
		close(s.input)
	}()
	var emitted int
	for range s.output { // ranges until the single close
		emitted++
	}
	<-s.done
	if emitted != 2*units {
		t.Fatalf("sinks emitted %d units, want %d", emitted, 2*units)
	}
}

// TestPipelineMultiSinkForcedTeardown drives the same two-sink shape
// through the forced-quit path: closing quit with the input still open
// must also resolve to exactly one output close.
func TestPipelineMultiSinkForcedTeardown(t *testing.T) {
	g := &component.Graph{
		Functions: []component.FunctionID{0, 1, 2},
		Edges:     []component.Edge{{From: 0, To: 1}, {From: 0, To: 2}},
	}
	s := &session{
		id:      998,
		request: &component.Request{Graph: g},
		running: true,
		procFn:  make([]ProcessorFunc, 3),
		perComp: make([]atomic.Int64, 3),
		input:   make(chan DataUnit, 8),
		output:  make(chan DataUnit, 16),
		quit:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	startPipeline(s)
	s.input <- DataUnit{Seq: 1}
	s.quitOnce.Do(func() { close(s.quit) })
	go func() {
		for range s.output {
		}
	}()
	<-s.done
}

// TestShutdownCloseRace races Shutdown against individual Closes (and a
// concurrent Find): Shutdown must tolerate sessions vanishing under it,
// stay idempotent, and leave the ledger empty. Run under -race in CI.
func TestShutdownCloseRace(t *testing.T) {
	cfg := DefaultConfig()
	cfg.IPNodes = 256
	cfg.OverlayNodes = 32
	cfg.NumFunctions = 8
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}

	graph := component.NewPathGraph([]component.FunctionID{0, 1, 2})
	qosReq, resReq, bw := easyArgs(3)
	var ids []SessionID
	for i := 0; i < 8; i++ {
		id, err := c.Find(graph, qosReq, resReq, bw)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}

	var wg sync.WaitGroup
	for _, id := range ids {
		wg.Add(1)
		go func(id SessionID) {
			defer wg.Done()
			_ = c.Close(id) // either this or Shutdown wins; both are fine
		}(id)
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		c.Shutdown()
	}()
	go func() {
		defer wg.Done()
		// A Find racing Shutdown either composes (and is then closed by
		// nobody — so close it here) or is refused.
		if id, err := c.Find(graph, qosReq, resReq, bw); err == nil {
			_ = c.Close(id)
		}
	}()
	wg.Wait()

	c.Shutdown() // idempotent
	if got := c.ActiveSessions(); got != 0 {
		t.Fatalf("ActiveSessions after shutdown = %d", got)
	}
	if _, err := c.Find(graph, qosReq, resReq, bw); err == nil {
		t.Fatal("Find succeeded on a shut-down cluster")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := c.ledger.ActiveSessions(); got != 0 {
		t.Fatalf("ledger sessions after shutdown = %d", got)
	}
}
