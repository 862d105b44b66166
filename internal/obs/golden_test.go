package obs

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/harness/clock"
)

// TestExportsGolden pins the bytes of both metric exports — Prometheus
// /metrics and the /metrics.json snapshot — for a registry holding every
// instrument kind, two children per vector, one label-arity error and
// one histogram bounds conflict, to testdata/exports_golden.txt. A
// virtual clock at the epoch zeroes the snapshot's scrape stamp.
// Regenerate (only for a deliberate format change) with
// ACP_WRITE_OBS_GOLDEN=1.
func TestExportsGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("core.probes.sent").Add(12)
	r.Gauge("runtime.sessions.active").Set(2.5)
	h := r.Histogram("dist.probe.delay_ms", []float64{1, 5, 10})
	for _, v := range []float64{0.5, 5, 7, 99} {
		h.Observe(v)
	}
	r.Histogram("dist.probe.delay_ms", []float64{2, 4}) // bounds conflict
	q := r.QHistogram("core.walk.rtt_ms")
	for i := 1; i <= 50; i++ {
		q.Observe(float64(i) / 4)
	}
	cv := r.CounterVec("server.ops", "op")
	cv.With("compose").Add(7)
	cv.With("teardown").Add(3)
	cv.With("compose", "extra") // label-arity error
	gv := r.GaugeVec("session.tenant", "session", "tenant")
	gv.With("1", "acme").Set(1)
	gv.With("2", `quo"te`).Set(0.25)
	hv := r.HistogramVec("server.phase.latency_ms", "phase")
	hv.With("decode").Observe(0.125)
	hv.With("handle").Observe(3)
	hv.With("handle").Observe(9)

	handler := Handler(ServeConfig{Registry: r, Clock: clock.NewVirtual()})
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

	path := filepath.Join("testdata", "exports_golden.txt")
	if os.Getenv("ACP_WRITE_OBS_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with ACP_WRITE_OBS_GOLDEN=1): %v", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("exports moved from the golden:\n%s", out.Bytes())
	}
}
