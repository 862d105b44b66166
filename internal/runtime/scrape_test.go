package runtime

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/component"
	"repro/internal/harness/clock"
	"repro/internal/obs"
	"repro/internal/qos"
)

// TestSessionSeriesGolden pins both metric exports of a seeded cluster —
// two tenants, an anonymous caller, recompose flips, closes, and one
// adaptation step (gauge refresh, drift tick, drift-triggered flips)
// under injected load — to testdata/session_series_golden.txt, written
// while the per-session families were still stored registry children.
// Reading them from the session table at scrape time must not move a
// byte, and a closed session's series must be gone from the scrape.
// Regenerate (only for a deliberate format change) with
// ACP_WRITE_RUNTIME_GOLDEN=1.
func TestSessionSeriesGolden(t *testing.T) {
	reg := obs.NewRegistry()
	vc := clock.NewVirtual()
	cfg := DefaultConfig()
	cfg.Seed = 5
	cfg.IPNodes = 256
	cfg.OverlayNodes = 32
	cfg.NumFunctions = 8
	cfg.Registry = reg
	cfg.Clock = vc
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)
	c.SetTenantQuota("acme", TenantQuota{MaxSessions: 8})
	c.SetTenantQuota("beta", TenantQuota{MaxSessions: 8})

	var live []SessionID
	for i := 0; i < 14; i++ {
		fns := []component.FunctionID{component.FunctionID(i % 8), component.FunctionID((i + 3) % 8), component.FunctionID((i + 5) % 8)}
		qosReq, resReq, bw := easyArgs(len(fns))
		for pos := range resReq {
			resReq[pos].CPU += float64(i % 4)
		}
		id, err := c.FindApp(FindRequest{
			Tenant:        []string{"acme", "beta", ""}[i%3],
			Weight:        []float64{0, 2, 0}[i%3],
			Graph:         component.NewPathGraph(fns),
			QoSReq:        qosReq,
			ResReq:        resReq,
			BandwidthKbps: bw,
		})
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		live = append(live, id)
	}
	closed := []SessionID{live[1], live[4], live[9]}
	for _, id := range closed[:2] {
		if err := c.Close(id); err != nil {
			t.Fatal(err)
		}
	}
	ctrl, err := c.EnableAdaptation(AdaptConfig{Tolerance: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Stop()
	for _, id := range []SessionID{live[0], live[5], live[10], live[12]} {
		if err := c.Recompose(id); err != nil && !errors.Is(err, ErrNoBetterComposition) {
			t.Fatalf("recompose %d: %v", id, err)
		}
	}
	load := make(map[int]qos.Resources)
	for node := 0; node < c.NumNodes(); node += 3 {
		load[node] = qos.Resources{CPU: 45, Memory: 450}
	}
	if err := c.InjectLoad(-1, load); err != nil {
		t.Fatal(err)
	}
	ctrl.Step()
	if err := c.Close(closed[2]); err != nil {
		t.Fatal(err)
	}

	handler := obs.Handler(obs.ServeConfig{Registry: reg, Clock: vc})
	var out bytes.Buffer
	for _, path := range []string{"/metrics", "/metrics.json"} {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s status %d", path, rec.Code)
		}
		out.WriteString("== " + path + "\n")
		out.Write(rec.Body.Bytes())
	}
	for _, id := range closed {
		label := `session="` + sessionLabel(id) + `"`
		if strings.Contains(out.String(), label) {
			t.Errorf("closed session %d still has a series", id)
		}
	}
	for _, want := range []string{"runtime_migrations ", "obs_drift_exceeded_total ", "adapt_migrations "} {
		if strings.Contains(out.String(), want+"0\n") || !strings.Contains(out.String(), want) {
			t.Errorf("the scenario pins no %s", strings.TrimSpace(want))
		}
	}

	path := filepath.Join("testdata", "session_series_golden.txt")
	if os.Getenv("ACP_WRITE_RUNTIME_GOLDEN") != "" {
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with ACP_WRITE_RUNTIME_GOLDEN=1): %v", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		gotLines, wantLines := strings.Split(out.String(), "\n"), strings.Split(string(want), "\n")
		for i := range gotLines {
			if i >= len(wantLines) || gotLines[i] != wantLines[i] {
				t.Fatalf("exports moved from the golden at line %d:\n got %s\nwant %s", i+1, gotLines[i], wantLines[min(i, len(wantLines)-1)])
			}
		}
		t.Fatalf("exports are %d lines, golden has %d", len(gotLines), len(wantLines))
	}
}

// TestSessionScrapeLockOrder pins the scrape's place in the lock order:
// a registry read calls the session families' source with no registry
// lock held, and the source takes the scrape lock, then Cluster.mu. So a
// Cluster.mu holder may use the registry — here it registers a gauge
// vector, which waits for the vector table's write lock — while scrapes,
// the Prometheus export and a drift monitor's ticks race callers that
// find, recompose and close. A source called under the table's read lock
// deadlocks the scrape (waiting for mu) against the registration (waiting
// for the read lock to go); the watchdog fails the test instead of
// hanging the binary.
func TestSessionScrapeLockOrder(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := DefaultConfig()
	cfg.IPNodes = 256
	cfg.OverlayNodes = 16
	cfg.NumFunctions = 8
	cfg.ProbingRatio = 1
	cfg.Registry = reg
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// No t.Cleanup(c.Shutdown): after a deadlock it would wait on mu.
	monitor := obs.NewDriftMonitor(obs.DriftConfig{
		Observed: reg.GaugeVec("session.phi", "session"),
		Required: reg.GaugeVec("session.phi.required", "session"),
		Registry: reg,
	})

	const callers, cycles = 3, 60
	var callersDone sync.WaitGroup
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < callers; w++ {
		callersDone.Add(1)
		go func(w int) {
			defer callersDone.Done()
			for i := 0; i < cycles; i++ {
				id, err := c.FindApp(contendedRequest([]string{"t0", "t1", ""}[w], w+i))
				if errors.Is(err, ErrNoComposition) {
					continue
				}
				if err != nil {
					t.Error(err)
					return
				}
				if err := c.Recompose(id); err != nil && !errors.Is(err, ErrNoBetterComposition) {
					t.Error(err)
					return
				}
				if err := c.Close(id); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	readers := []func(i int){
		func(int) { reg.Snapshot() },
		func(int) { _ = obs.WritePrometheus(io.Discard, reg.Snapshot()) },
		func(int) { monitor.Tick() },
		func(i int) {
			c.mu.Lock()
			reg.GaugeVec("late."+strconv.Itoa(i), "k")
			c.mu.Unlock()
		},
	}
	for _, read := range readers {
		wg.Add(1)
		go func(read func(int)) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
					read(i)
				}
			}
		}(read)
	}
	done := make(chan struct{})
	go func() {
		callersDone.Wait()
		close(stop)
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("scrapes, drift ticks, registrations and callers did not finish in 10 s: a lock-order inversion deadlocked them")
	}
	c.Shutdown()
	if got := reg.Snapshot().Counters["obs.registry.label_errors"]; got != 0 {
		t.Fatalf("label_errors = %d: something wrote a session family", got)
	}
}
