package obs

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

func serveFixture(t *testing.T) (*Server, *Registry, *Tracer) {
	t.Helper()
	r := fullRegistry()
	tr := NewLive()
	srv, err := Serve("127.0.0.1:0", ServeConfig{Registry: r, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return srv, r, tr
}

func get(t *testing.T, url string) (int, string, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body), resp.Header.Get("Content-Type")
}

func TestServeMetricsEndpoints(t *testing.T) {
	srv, _, _ := serveFixture(t)

	code, body, ctype := get(t, srv.URL()+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	if !strings.Contains(ctype, "version=0.0.4") {
		t.Errorf("/metrics content type %q", ctype)
	}
	if err := CheckExposition(strings.NewReader(body)); err != nil {
		t.Fatalf("/metrics not valid exposition: %v\n%s", err, body)
	}
	if !strings.Contains(body, `core_walk_rtt_ms{quantile="0.999"}`) {
		t.Errorf("/metrics missing p999 sample:\n%s", body)
	}

	code, body, ctype = get(t, srv.URL()+"/metrics.json")
	if code != http.StatusOK || !strings.Contains(ctype, "application/json") {
		t.Fatalf("/metrics.json status %d type %q", code, ctype)
	}
	var s Snapshot
	if err := json.Unmarshal([]byte(body), &s); err != nil {
		t.Fatalf("/metrics.json not a Snapshot: %v", err)
	}
	if s.Counters["core.probes.sent"] != 12 {
		t.Errorf("snapshot counters = %+v", s.Counters)
	}
	if s.AtUnixNanos == 0 {
		t.Error("/metrics.json snapshot missing server scrape timestamp")
	}

	code, body, _ = get(t, srv.URL()+"/healthz")
	if code != http.StatusOK || strings.TrimSpace(body) != "ok" {
		t.Fatalf("/healthz = %d %q", code, body)
	}

	// Two exports, no more: expvar is not served.
	code, _, _ = get(t, srv.URL()+"/debug/vars")
	if code != http.StatusNotFound {
		t.Fatalf("/debug/vars status %d, want 404", code)
	}
	code, _, _ = get(t, srv.URL()+"/debug/pprof/cmdline")
	if code != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline status %d", code)
	}
}

func TestServeTraceStream(t *testing.T) {
	srv, _, tr := serveFixture(t)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL()+"/trace", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/trace status %d", resp.StatusCode)
	}

	// The subscription races the handler's setup; emit until the first
	// line arrives.
	lines := make(chan string, 16)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	emit := time.NewTicker(10 * time.Millisecond)
	defer emit.Stop()
	var line string
	for line == "" {
		select {
		case <-ctx.Done():
			t.Fatal("no trace line before timeout")
		case <-emit.C:
			tr.Committed(42, 7)
		case l, ok := <-lines:
			if !ok {
				t.Fatal("trace stream closed early")
			}
			line = l
		}
	}
	var ev Event
	if err := json.Unmarshal([]byte(line), &ev); err != nil {
		t.Fatalf("trace line %q: %v", line, err)
	}
	if ev.Type != EventCommitted || ev.Req != 42 {
		t.Fatalf("trace event = %+v", ev)
	}
}

// TestServeTraceUnsubscribesOnDisconnect is the /trace leak gate: every
// client connect/disconnect cycle must drop the tracer's live
// subscription count back to zero — and with it Enabled() for a
// sink-less tracer, so the engine's emit path returns to its two-atomic-
// load disabled cost. A leaked subscription would buffer (and drop)
// events forever on behalf of a client that is long gone.
func TestServeTraceUnsubscribesOnDisconnect(t *testing.T) {
	srv, _, tr := serveFixture(t)

	if tr.Enabled() {
		t.Fatal("sink-less tracer reports enabled before any subscriber")
	}
	const cycles = 8
	for i := 0; i < cycles; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL()+"/trace", nil)
		if err != nil {
			cancel()
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			cancel()
			t.Fatal(err)
		}
		// Wait for the handler's subscription to attach, emit one event
		// through it, then disconnect abruptly (context cancel closes the
		// client side mid-stream).
		deadline := time.Now().Add(5 * time.Second)
		for tr.subscribers() == 0 {
			if time.Now().After(deadline) {
				cancel()
				t.Fatalf("cycle %d: handler never subscribed", i)
			}
			time.Sleep(time.Millisecond)
		}
		tr.Committed(int64(i), 0)
		cancel()
		resp.Body.Close()
		for tr.subscribers() != 0 {
			if time.Now().After(deadline) {
				t.Fatalf("cycle %d: %d subscriptions still live after disconnect", i, tr.subscribers())
			}
			time.Sleep(time.Millisecond)
		}
	}
	if tr.Enabled() {
		t.Fatalf("sink-less tracer still enabled after %d disconnect cycles", cycles)
	}
}

func TestServeTraceWithoutTracer(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", ServeConfig{Registry: NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	code, _, _ := get(t, srv.URL()+"/trace")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("/trace without tracer = %d, want 503", code)
	}
}

func TestServeNilServerAccessors(t *testing.T) {
	var s *Server
	if s.Addr() != "" || s.URL() != "" || s.Close() != nil {
		t.Fatal("nil Server accessors not inert")
	}
}

func TestServeBadAddress(t *testing.T) {
	if _, err := Serve("256.256.256.256:0", ServeConfig{}); err == nil {
		t.Fatal("unbindable address accepted")
	}
}

// subscribers returns the number of live subscriptions attached to the
// tracer; 0 on nil. The /trace endpoint's leak test asserts this
// returns to zero after its clients disconnect.
func (t *Tracer) subscribers() int {
	if t == nil {
		return 0
	}
	list := t.subs.Load()
	if list == nil {
		return 0
	}
	return len(*list)
}
