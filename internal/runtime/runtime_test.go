package runtime

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/component"
	"repro/internal/obs"
	"repro/internal/qos"
)

func testCluster(t *testing.T) *Cluster {
	t.Helper()
	cfg := DefaultConfig()
	cfg.IPNodes = 256
	cfg.OverlayNodes = 32
	cfg.NumFunctions = 8
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)
	return c
}

func easyArgs(n int) (qos.Vector, []qos.Resources, float64) {
	res := make([]qos.Resources, n)
	for i := range res {
		res[i] = qos.Resources{CPU: 5, Memory: 50}
	}
	return qos.Vector{Delay: 100000, LossCost: qos.LossCost(0.9)}, res, 50
}

func TestFindComposesSession(t *testing.T) {
	c := testCluster(t)
	graph := component.NewPathGraph([]component.FunctionID{0, 1, 2})
	qosReq, resReq, bw := easyArgs(3)
	id, err := c.Find(graph, qosReq, resReq, bw)
	if err != nil {
		t.Fatal(err)
	}
	if id == 0 {
		t.Fatal("zero session id")
	}
	desc, err := c.Describe(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(desc.Components) != 3 {
		t.Fatalf("composition has %d components", len(desc.Components))
	}
	for pos, pc := range desc.Components {
		if pc.Function != graph.Functions[pos] {
			t.Errorf("position %d provides function %d, want %d", pos, pc.Function, graph.Functions[pos])
		}
	}
	if desc.Phi <= 0 {
		t.Errorf("phi = %v", desc.Phi)
	}
	if c.ActiveSessions() != 1 {
		t.Errorf("ActiveSessions = %d", c.ActiveSessions())
	}
	if err := c.Close(id); err != nil {
		t.Fatal(err)
	}
	if c.ActiveSessions() != 0 {
		t.Errorf("ActiveSessions after close = %d", c.ActiveSessions())
	}
}

func TestFindNoComposition(t *testing.T) {
	c := testCluster(t)
	graph := component.NewPathGraph([]component.FunctionID{0, 1})
	qosReq, _, bw := easyArgs(2)
	// Impossible resource demand.
	res := []qos.Resources{{CPU: 1e9}, {CPU: 1e9}}
	if _, err := c.Find(graph, qosReq, res, bw); !errors.Is(err, ErrNoComposition) {
		t.Fatalf("err = %v, want ErrNoComposition", err)
	}
}

func TestProcessIdentityPipeline(t *testing.T) {
	c := testCluster(t)
	graph := component.NewPathGraph([]component.FunctionID{0, 1, 2})
	qosReq, resReq, bw := easyArgs(3)
	id, err := c.Find(graph, qosReq, resReq, bw)
	if err != nil {
		t.Fatal(err)
	}
	in, out, err := c.Process(id)
	if err != nil {
		t.Fatal(err)
	}
	const units = 100
	go func() {
		for i := 0; i < units; i++ {
			in <- DataUnit{Seq: int64(i), Payload: i}
		}
		close(in)
	}()
	var got []DataUnit
	for u := range out {
		got = append(got, u)
	}
	if len(got) != units {
		t.Fatalf("received %d units, want %d", len(got), units)
	}
	// A pure path pipeline preserves order.
	for i, u := range got {
		if u.Seq != int64(i) {
			t.Fatalf("unit %d has seq %d", i, u.Seq)
		}
	}
	st, err := c.Stats(id)
	if err != nil || st.SinkEmitted != units {
		t.Errorf("SinkEmitted = %d, %v", st.SinkEmitted, err)
	}
	if err := c.Close(id); err != nil {
		t.Fatal(err)
	}
}

func TestProcessWithFunctions(t *testing.T) {
	c := testCluster(t)
	// Function 0: double the value. Function 1: filter odd values.
	c.RegisterFunction(0, func(u DataUnit) []DataUnit {
		u.Payload = u.Payload.(int) * 2
		return []DataUnit{u}
	})
	c.RegisterFunction(1, func(u DataUnit) []DataUnit {
		if u.Payload.(int)%4 == 0 {
			return []DataUnit{u}
		}
		return nil
	})
	graph := component.NewPathGraph([]component.FunctionID{0, 1})
	qosReq, resReq, bw := easyArgs(2)
	id, err := c.Find(graph, qosReq, resReq, bw)
	if err != nil {
		t.Fatal(err)
	}
	in, out, err := c.Process(id)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for i := 0; i < 10; i++ {
			in <- DataUnit{Seq: int64(i), Payload: i}
		}
		close(in)
	}()
	var vals []int
	for u := range out {
		vals = append(vals, u.Payload.(int))
	}
	// Inputs 0..9 doubled: 0,2,4,...,18; filtered to multiples of 4.
	want := []int{0, 4, 8, 12, 16}
	if len(vals) != len(want) {
		t.Fatalf("values = %v, want %v", vals, want)
	}
	for i := range want {
		if vals[i] != want[i] {
			t.Fatalf("values = %v, want %v", vals, want)
		}
	}
	if err := c.Close(id); err != nil {
		t.Fatal(err)
	}
}

func TestProcessDAGPipeline(t *testing.T) {
	c := testCluster(t)
	graph, err := component.NewBranchGraph(0, []component.FunctionID{1}, []component.FunctionID{2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Tag each branch so the join sees both copies.
	c.RegisterFunction(1, func(u DataUnit) []DataUnit {
		return []DataUnit{{Seq: u.Seq, Payload: "left"}}
	})
	c.RegisterFunction(2, func(u DataUnit) []DataUnit {
		return []DataUnit{{Seq: u.Seq, Payload: "right"}}
	})
	qosReq, resReq, bw := easyArgs(4)
	id, err := c.Find(graph, qosReq, resReq, bw)
	if err != nil {
		t.Fatal(err)
	}
	in, out, err := c.Process(id)
	if err != nil {
		t.Fatal(err)
	}
	const units = 50
	go func() {
		for i := 0; i < units; i++ {
			in <- DataUnit{Seq: int64(i)}
		}
		close(in)
	}()
	counts := map[string]int{}
	total := 0
	for u := range out {
		counts[u.Payload.(string)]++
		total++
	}
	// The split duplicates every unit down both branches; the join merges
	// them: 2x units at the sink.
	if total != 2*units {
		t.Fatalf("sink received %d units, want %d", total, 2*units)
	}
	if counts["left"] != units || counts["right"] != units {
		t.Fatalf("branch counts = %v", counts)
	}
	if err := c.Close(id); err != nil {
		t.Fatal(err)
	}
}

func TestProcessTwiceFails(t *testing.T) {
	c := testCluster(t)
	graph := component.NewPathGraph([]component.FunctionID{0, 1})
	qosReq, resReq, bw := easyArgs(2)
	id, err := c.Find(graph, qosReq, resReq, bw)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Process(id); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Process(id); err == nil {
		t.Error("second Process accepted")
	}
}

func TestUnknownSessionErrors(t *testing.T) {
	c := testCluster(t)
	if _, err := c.Describe(99); !errors.Is(err, ErrUnknownSession) {
		t.Errorf("Describe: %v", err)
	}
	if _, _, err := c.Process(99); !errors.Is(err, ErrUnknownSession) {
		t.Errorf("Process: %v", err)
	}
	if err := c.Close(99); !errors.Is(err, ErrUnknownSession) {
		t.Errorf("Close: %v", err)
	}
	if _, err := c.Stats(99); !errors.Is(err, ErrUnknownSession) {
		t.Errorf("Stats: %v", err)
	}
}

func TestCloseReleasesResources(t *testing.T) {
	c := testCluster(t)
	graph := component.NewPathGraph([]component.FunctionID{0, 1, 2})
	qosReq, resReq, bw := easyArgs(3)

	// Compose and close repeatedly: resources must not leak, so the
	// same request keeps succeeding indefinitely.
	for i := 0; i < 30; i++ {
		id, err := c.Find(graph, qosReq, resReq, bw)
		if err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		if err := c.Close(id); err != nil {
			t.Fatalf("iteration %d close: %v", i, err)
		}
	}
}

func TestConcurrentSessions(t *testing.T) {
	c := testCluster(t)
	graph := component.NewPathGraph([]component.FunctionID{0, 1})
	qosReq, resReq, bw := easyArgs(2)

	const sessions = 8
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			id, err := c.Find(graph, qosReq, resReq, bw)
			if err != nil {
				errs <- fmt.Errorf("session %d find: %w", s, err)
				return
			}
			in, out, err := c.Process(id)
			if err != nil {
				errs <- fmt.Errorf("session %d process: %w", s, err)
				return
			}
			go func() {
				for i := 0; i < 50; i++ {
					in <- DataUnit{Seq: int64(i)}
				}
				close(in)
			}()
			count := 0
			for range out {
				count++
			}
			if count != 50 {
				errs <- fmt.Errorf("session %d drained %d units", s, count)
				return
			}
			errs <- c.Close(id)
		}(s)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

func TestShutdownClosesSessions(t *testing.T) {
	cfg := DefaultConfig()
	cfg.IPNodes = 256
	cfg.OverlayNodes = 32
	cfg.NumFunctions = 8
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	graph := component.NewPathGraph([]component.FunctionID{0, 1})
	qosReq, resReq, bw := easyArgs(2)
	if _, err := c.Find(graph, qosReq, resReq, bw); err != nil {
		t.Fatal(err)
	}
	c.Shutdown()
	if c.ActiveSessions() != 0 {
		t.Errorf("sessions after shutdown = %d", c.ActiveSessions())
	}
	if _, err := c.Find(graph, qosReq, resReq, bw); err == nil {
		t.Error("Find accepted after shutdown")
	}
}

// TestShutdownClosesSessionsInIDOrder holds Shutdown to session-ID order.
// It collects the session table, a map, and releases each session in turn;
// without the sort the ledger releases run in Go's per-range random map
// order. The tracer's SessionReleased events show the order.
func TestShutdownClosesSessionsInIDOrder(t *testing.T) {
	sink := &obs.MemorySink{}
	cfg := DefaultConfig()
	cfg.IPNodes = 256
	cfg.OverlayNodes = 32
	cfg.NumFunctions = 8
	cfg.Tracer = obs.New(sink)
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	graph := component.NewPathGraph([]component.FunctionID{0, 1})
	qosReq, resReq, bw := easyArgs(2)
	for i := 0; i < 16; i++ {
		if _, err := c.Find(graph, qosReq, resReq, bw); err != nil {
			t.Fatal(err)
		}
	}
	audit := c.AuditSessions()
	slices.SortFunc(audit, func(a, b SessionAudit) int { return cmp.Compare(a.ID, b.ID) })
	var want, got []int64
	for _, a := range audit {
		want = append(want, a.RequestID)
	}
	c.Shutdown()
	for _, e := range sink.Events() {
		if e.Type == obs.EventSessionReleased {
			got = append(got, e.Req)
		}
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("Shutdown released requests %v, want session-ID order %v", got, want)
	}
}

func TestNewClusterValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.OverlayNodes = cfg.IPNodes + 1
	if _, err := NewCluster(cfg); err == nil {
		t.Error("oversized overlay accepted")
	}
}

func TestCountersAdvance(t *testing.T) {
	c := testCluster(t)
	before := c.Counters()
	graph := component.NewPathGraph([]component.FunctionID{0, 1})
	qosReq, resReq, bw := easyArgs(2)
	id, err := c.Find(graph, qosReq, resReq, bw)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close(id)
	after := c.Counters()
	if after.Probes <= before.Probes {
		t.Error("probe counter did not advance")
	}
	if after.Confirmations != before.Confirmations+2 {
		t.Errorf("confirmations advanced by %d, want 2", after.Confirmations-before.Confirmations)
	}
}

func TestStatsPerComponent(t *testing.T) {
	c := testCluster(t)
	// Function 1 filters out odd sequence numbers.
	c.RegisterFunction(1, func(u DataUnit) []DataUnit {
		if u.Seq%2 == 0 {
			return []DataUnit{u}
		}
		return nil
	})
	graph := component.NewPathGraph([]component.FunctionID{0, 1, 2})
	qosReq, resReq, bw := easyArgs(3)
	id, err := c.Find(graph, qosReq, resReq, bw)
	if err != nil {
		t.Fatal(err)
	}
	// Before Process there is no data plane, and nothing was emitted.
	st, err := c.Stats(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Emitted) != 3 || st.Emitted[0] != 0 || st.Emitted[2] != 0 || st.SinkEmitted != 0 {
		t.Fatalf("stats before Process = %+v, want three zero positions", st)
	}
	in, out, err := c.Process(id)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for i := 0; i < 100; i++ {
			in <- DataUnit{Seq: int64(i)}
		}
		close(in)
	}()
	for range out {
	}
	st, err = c.Stats(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.Emitted[0] != 100 {
		t.Errorf("position 0 emitted %d, want 100", st.Emitted[0])
	}
	if st.Emitted[1] != 50 {
		t.Errorf("position 1 emitted %d, want 50 (filter)", st.Emitted[1])
	}
	if st.Emitted[2] != 50 || st.SinkEmitted != 50 {
		t.Errorf("sink emitted %d/%d, want 50", st.Emitted[2], st.SinkEmitted)
	}
	if err := c.Close(id); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stats(id); err == nil {
		t.Error("Stats after close accepted")
	}
}

func TestCloseWithoutDrainingOutput(t *testing.T) {
	c := testCluster(t)
	graph := component.NewPathGraph([]component.FunctionID{0, 1})
	qosReq, resReq, bw := easyArgs(2)
	id, err := c.Find(graph, qosReq, resReq, bw)
	if err != nil {
		t.Fatal(err)
	}
	in, _, err := c.Process(id)
	if err != nil {
		t.Fatal(err)
	}
	// Push far more units than the queues hold, never read the output,
	// and close: teardown must not deadlock.
	go func() {
		for i := 0; i < 1000; i++ {
			in <- DataUnit{Seq: int64(i)}
		}
		close(in)
	}()
	done := make(chan error, 1)
	go func() { done <- c.Close(id) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close deadlocked on an undrained session")
	}
}

// TestSessionGaugesLifecycle checks the per-session observability
// plane: Find publishes phi and Eq. 3 standing gauges labeled by
// session, refreshSessionGauges re-derives phi from current ledger
// residuals, and Close takes the session's series away.
func TestSessionGaugesLifecycle(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := DefaultConfig()
	cfg.IPNodes = 256
	cfg.OverlayNodes = 32
	cfg.NumFunctions = 8
	cfg.Registry = reg
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)

	graph := component.NewPathGraph([]component.FunctionID{0, 1, 2})
	qosReq, resReq, bw := easyArgs(3)
	id, err := c.Find(graph, qosReq, resReq, bw)
	if err != nil {
		t.Fatal(err)
	}
	sess := sessionLabel(id)

	s := reg.Snapshot()
	find := func(vec string) (float64, bool) {
		for _, lv := range s.GaugeVecs[vec].Values {
			if len(lv.Labels) == 1 && lv.Labels[0] == sess {
				return lv.Value, true
			}
		}
		return 0, false
	}
	phi, ok := find("session.phi")
	if !ok || phi <= 0 {
		t.Fatalf("session.phi{%s} = %v, %v", sess, phi, ok)
	}
	observed, ok := find("session.qos.observed")
	if !ok || observed <= 0 || observed > 1 {
		// The session was admitted, so Eq. 3 holds: MaxRatio <= 1.
		t.Fatalf("session.qos.observed{%s} = %v, %v", sess, observed, ok)
	}
	if req, ok := find("session.qos.required"); !ok || req != 1 {
		t.Fatalf("session.qos.required{%s} = %v, %v", sess, req, ok)
	}

	// The quantile companion saw the same find.
	if q := s.Quantiles["runtime.find.latency_quantiles_ms"]; q.Count != 1 {
		t.Fatalf("find quantile count = %d, want 1", q.Count)
	}

	// A refresh recomputes phi against the live ledger; with this
	// session still the only load the value stays finite and positive.
	c.refreshSessionGauges()
	s = reg.Snapshot()
	if phi, ok := find("session.phi"); !ok || phi <= 0 {
		t.Fatalf("refreshed session.phi{%s} = %v, %v", sess, phi, ok)
	}

	if err := c.Close(id); err != nil {
		t.Fatal(err)
	}
	s = reg.Snapshot()
	for _, vec := range []string{"session.phi", "session.qos.observed", "session.qos.required"} {
		if _, ok := find(vec); ok {
			t.Errorf("%s{%s} survived Close", vec, sess)
		}
	}
}
