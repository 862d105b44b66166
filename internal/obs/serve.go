package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"

	"repro/internal/harness/clock"
)

// The HTTP scrape surface. Handler builds a mux exposing a registry
// and tracer; Serve binds it to a listener so acpsim (or a future
// network service) can expose live state with one call:
//
//	/metrics       Prometheus text exposition
//	/metrics.json  the full registry Snapshot as JSON (acpmon's feed)
//	/healthz       liveness ("ok")
//	/trace         live span events streamed as chunked JSONL
//	/debug/pprof/  the runtime profiler family
//
// Everything is stdlib; the only cost when nobody scrapes is the
// listener goroutine.

// ServeConfig wires the observability endpoints.
type ServeConfig struct {
	// Registry feeds /metrics and /metrics.json; nil serves empty
	// snapshots.
	Registry *Registry
	// Tracer feeds /trace via Subscribe; nil returns 503 there.
	Tracer *Tracer
	// Clock stamps /metrics.json snapshots with the scrape instant so
	// pollers (acpmon) difference server-reported elapsed rather than
	// their own jittery poll clock. nil means the wall clock.
	Clock clock.Clock
}

// Handler returns the observability mux for cfg.
func Handler(cfg ServeConfig) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = WritePrometheus(w, cfg.Registry.Snapshot())
	})
	clk := clock.Or(cfg.Clock)
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		s := cfg.Registry.Snapshot()
		s.AtUnixNanos = clk.Now().UnixNano()
		_ = enc.Encode(s)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/trace", traceHandler(cfg.Tracer))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// traceHandler streams live span events as chunked JSONL until the
// client disconnects. Each client gets its own bounded-ring
// subscription: a slow reader loses its own oldest events (surfaced as
// trace.dropped lines) and never backpressures the engine.
func traceHandler(t *Tracer) http.HandlerFunc {
	const traceBuffer = 1024 // each client's ring capacity
	return func(w http.ResponseWriter, r *http.Request) {
		if t == nil {
			http.Error(w, "tracing disabled", http.StatusServiceUnavailable)
			return
		}
		sub := t.Subscribe(traceBuffer)
		defer sub.Close()
		w.Header().Set("Content-Type", "application/jsonl; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		fl, _ := w.(http.Flusher)
		if fl != nil {
			fl.Flush()
		}
		enc := json.NewEncoder(w)
		ctx := r.Context()
		for {
			select {
			case <-ctx.Done():
				return
			case <-sub.Ready():
				for _, e := range sub.Drain() {
					if err := enc.Encode(e); err != nil {
						return
					}
				}
				if fl != nil {
					fl.Flush()
				}
				// A subscription closed from the tracer side stops
				// filling its ring; linger no further once it is drained.
				if sub.Closed() {
					return
				}
			}
		}
	}
}

// Server is a running observability HTTP server.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Serve binds the observability mux to addr (e.g. ":9090" or
// "127.0.0.1:0") and serves it on a background goroutine.
func Serve(addr string, cfg ServeConfig) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: Handler(cfg)}
	s := &Server{ln: ln, srv: srv}
	go func() { _ = srv.Serve(ln) }()
	return s, nil
}

// Addr returns the server's bound address (useful with ":0").
func (s *Server) Addr() string {
	if s == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// URL returns the server's base URL.
func (s *Server) URL() string {
	if s == nil {
		return ""
	}
	return "http://" + s.Addr()
}

// Close stops the server immediately, terminating in-flight requests
// (the /trace stream is endless, so a graceful drain would never
// finish). No-op on nil.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	return s.srv.Close()
}
