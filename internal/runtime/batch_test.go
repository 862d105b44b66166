package runtime

import (
	"errors"
	"math"
	"sync"
	"testing"

	"repro/internal/component"
	"repro/internal/obs"
	"repro/internal/qos"
)

// findResult is one FindApp outcome of a find batch.
type findResult struct {
	Session SessionID
	Err     error
}

// findBatch runs reqs through FindApp from workers goroutines at once —
// the concurrent callers FindApp serves, each walking on its own pooled
// composer outside Cluster.mu — and returns the outcomes in request
// order.
func findBatch(c *Cluster, reqs []FindRequest, workers int) []findResult {
	results := make([]findResult, len(reqs))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				results[i].Session, results[i].Err = c.FindApp(reqs[i])
			}
		}()
	}
	for i := range reqs {
		next <- i
	}
	close(next)
	wg.Wait()
	return results
}

// TestFindBatchComposesSessions drives concurrent composition through
// the locked ledger (exercised for data races under -race) and checks
// every admitted session is fully registered and usable.
func TestFindBatchComposesSessions(t *testing.T) {
	c := testCluster(t)
	graph := component.NewPathGraph([]component.FunctionID{0, 1, 2})
	qosReq, resReq, bw := easyArgs(3)

	reqs := make([]FindRequest, 12)
	for i := range reqs {
		reqs[i] = FindRequest{Graph: graph, QoSReq: qosReq, ResReq: resReq, BandwidthKbps: bw}
	}
	results := findBatch(c, reqs, 4)
	admitted := 0
	seen := make(map[SessionID]bool)
	for i, r := range results {
		if r.Err != nil {
			continue
		}
		admitted++
		if r.Session == 0 {
			t.Fatalf("result %d: admitted with zero session id", i)
		}
		if seen[r.Session] {
			t.Fatalf("duplicate session id %d", r.Session)
		}
		seen[r.Session] = true
		desc, err := c.Describe(r.Session)
		if err != nil {
			t.Fatalf("session %d not registered: %v", r.Session, err)
		}
		if len(desc.Components) != 3 {
			t.Fatalf("session %d has %d components", r.Session, len(desc.Components))
		}
	}
	// The cluster is lightly loaded; concurrent contention may reject a
	// few requests, but most must land.
	if admitted < len(reqs)/2 {
		t.Fatalf("only %d/%d requests admitted", admitted, len(reqs))
	}

	// A lone caller still composes after the batch.
	if _, err := c.Find(graph, qosReq, resReq, bw); err != nil {
		t.Fatalf("serial Find after the batch: %v", err)
	}
	for id := range seen {
		if err := c.Close(id); err != nil {
			t.Fatalf("close %d: %v", id, err)
		}
	}
}

// TestFindBatchSessionStreams is the regression test for sessions
// admitted by concurrent callers missing their data-plane parameters (the
// first unit through Process once indexed an empty paceNs slice and
// panicked the process): each must leave a session that streams, its
// gauges, and one find-latency quantile observation per request.
func TestFindBatchSessionStreams(t *testing.T) {
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
	reqs := make([]FindRequest, 4)
	for i := range reqs {
		reqs[i] = FindRequest{Graph: graph, QoSReq: qosReq, ResReq: resReq, BandwidthKbps: bw}
	}
	results := findBatch(c, reqs, 2)
	snap := reg.Snapshot()
	if q := snap.Quantiles["runtime.find.latency_quantiles_ms"]; q.Count != int64(len(reqs)) {
		t.Errorf("find quantile count = %d, want %d", q.Count, len(reqs))
	}
	streamed := 0
	for _, r := range results {
		if r.Err != nil {
			continue
		}
		for _, vec := range []string{"session.phi", "session.qos.observed", "session.qos.required", "session.phi.required"} {
			if _, ok := vecValue(snap.GaugeVecs[vec], sessionLabel(r.Session)); !ok {
				t.Errorf("%s{%d} missing after concurrent admission", vec, r.Session)
			}
		}
		in, out, err := c.Process(r.Session)
		if err != nil {
			t.Fatal(err)
		}
		const units = 10
		go func() {
			for i := 0; i < units; i++ {
				in <- DataUnit{Seq: int64(i), Payload: i}
			}
			close(in)
		}()
		got := 0
		for range out {
			got++
		}
		if got != units {
			t.Errorf("session %d streamed %d units, want %d", r.Session, got, units)
		}
		streamed++
		if err := c.Close(r.Session); err != nil {
			t.Fatal(err)
		}
	}
	if streamed == 0 {
		t.Fatal("no batch request was admitted")
	}
}

// TestFindBatchContendedWalksNeverOverAdmit runs concurrent callers whose
// walk-scoped availability views go stale under one another (run under
// -race in CI): each request wants over a third of a node, eight
// functions on a 16-node overlay put every walk on the same few nodes,
// and six workers hold and commit while the others still score from
// what they read earlier. The holds and the commit are the authority: a
// stale view may cost a refusal, never an over-admission — the ledger
// stays sound round after round, and closing everything returns it and
// the quota books to where they began.
func TestFindBatchContendedWalksNeverOverAdmit(t *testing.T) {
	cfg := DefaultConfig()
	cfg.IPNodes = 256
	cfg.OverlayNodes = 16
	cfg.NumFunctions = 8
	cfg.ProbingRatio = 1
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)

	tenants := []string{"t0", "t1"}
	qosReq := qos.Vector{Delay: 100000, LossCost: qos.LossCost(0.9)}
	var admitted, refused int
	for round := 0; round < 4; round++ {
		reqs := make([]FindRequest, 24)
		for i := range reqs {
			f := component.FunctionID((round + i) % 7)
			reqs[i] = FindRequest{
				Tenant:        tenants[i%2],
				Graph:         component.NewPathGraph([]component.FunctionID{f, f + 1}),
				QoSReq:        qosReq,
				ResReq:        []qos.Resources{{CPU: 35, Memory: 350}, {CPU: 35, Memory: 350}},
				BandwidthKbps: 200,
			}
		}
		results := findBatch(c, reqs, 6)
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		var live []SessionID
		for i, r := range results {
			switch {
			case r.Err == nil:
				live = append(live, r.Session)
			case errors.Is(r.Err, ErrNoComposition):
				refused++
			default:
				t.Fatalf("round %d request %d: %v", round, i, r.Err)
			}
		}
		admitted += len(live)
		// Every transient hold is gone once the batch returns: what is
		// available is exactly what is not committed.
		for n := 0; n < c.NumNodes(); n++ {
			if avail, residual := c.ledger.NodeAvailable(n), c.NodeResidual(n); avail != residual {
				t.Fatalf("round %d: node %d has %v available but %v uncommitted: a hold outlived its walk", round, n, avail, residual)
			}
			if residual := c.NodeResidual(n); residual.CPU < -1e-9 || residual.Memory < -1e-9 {
				t.Fatalf("round %d: node %d over-admitted, residual %v", round, n, residual)
			}
		}
		for _, id := range live {
			if err := c.Close(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	if admitted == 0 || refused == 0 {
		t.Fatalf("admitted %d, refused %d: the batches did not contend", admitted, refused)
	}

	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := c.ActiveSessions(); got != 0 {
		t.Fatalf("%d sessions still live", got)
	}
	for n := 0; n < c.NumNodes(); n++ {
		want, got := c.NodeCapacity(n), c.ledger.NodeAvailable(n)
		if math.Abs(got.CPU-want.CPU) > 1e-6 || math.Abs(got.Memory-want.Memory) > 1e-6 {
			t.Fatalf("node %d has %v available after teardown, want capacity %v", n, got, want)
		}
	}
	for k := 0; k < c.NumLinks(); k++ {
		if want, got := c.mesh.Link(k).Capacity, c.ledger.LinkAvailable(k); math.Abs(got-want) > 1e-6 {
			t.Fatalf("link %d has %v available after teardown, want %v", k, got, want)
		}
	}
	for _, tenant := range tenants {
		u := c.TenantUsageFor(tenant)
		if u.Sessions != 0 || math.Abs(u.CPU) > 1e-9 || math.Abs(u.Memory) > 1e-9 || math.Abs(u.BandwidthKbps) > 1e-9 {
			t.Fatalf("tenant %q usage %+v after teardown, want zero", tenant, u)
		}
	}
}

// TestFindBatchAfterShutdown: every caller of a shut-down cluster fails
// cleanly.
func TestFindBatchAfterShutdown(t *testing.T) {
	cfg := DefaultConfig()
	cfg.IPNodes = 256
	cfg.OverlayNodes = 32
	cfg.NumFunctions = 8
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Shutdown()
	graph := component.NewPathGraph([]component.FunctionID{0, 1})
	qosReq, resReq, bw := easyArgs(2)
	req := FindRequest{Graph: graph, QoSReq: qosReq, ResReq: resReq, BandwidthKbps: bw}
	for i, r := range findBatch(c, []FindRequest{req, req}, 2) {
		if !errors.Is(r.Err, errShutDown) {
			t.Fatalf("caller %d on a shut-down cluster: %v", i, r.Err)
		}
	}
}
