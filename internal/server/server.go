package server

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"time"

	"repro/internal/component"
	"repro/internal/harness/clock"
	"repro/internal/obs"
	"repro/internal/qos"
	"repro/internal/runtime"
)

// Config wires a Server to its cluster and policies.
type Config struct {
	// Cluster is the live composition engine the server fronts.
	// Required; the server never shuts it down — the owner does.
	Cluster *runtime.Cluster
	// Clock drives commit/heartbeat deadlines and the reaper. nil means
	// the wall clock; tests substitute a Virtual clock so expiry is
	// deterministic.
	Clock clock.Clock
	// CommitTimeout bounds how long a composed session may stay pending
	// before the reaper releases its resources (default 10s).
	CommitTimeout time.Duration
	// HeartbeatTimeout bounds the gap between heartbeats (or other
	// liveness-proving ops) on a committed session (default 30s).
	HeartbeatTimeout time.Duration
	// ReapInterval is the reaper's scan period (default 1s).
	ReapInterval time.Duration
	// MaxSessions caps live wire sessions (pending + committed) across
	// all connections; composes beyond it get CodeBusy. 0 = unlimited.
	MaxSessions int
	// MaxInflight caps concurrently dispatched composes; excess gets
	// CodeBusy instead of queueing behind the composer (default 32).
	MaxInflight int
	// Registry receives the server's instruments; nil disables.
	Registry *obs.Registry
}

// wireSession is one session's server-side state. All fields are
// guarded by Server.mu after creation.
type wireSession struct {
	id        runtime.SessionID
	owner     *conn
	committed bool
	// deadline is when the reaper may take the session: compose sets
	// now+CommitTimeout, commit and each heartbeat set
	// now+HeartbeatTimeout.
	deadline time.Time
}

// conn is one client connection. owned is guarded by Server.mu; the
// rest is only touched by the connection's handler goroutine, which
// serialises the connection's frames.
type conn struct {
	nc      net.Conn
	helloed bool
	tenant  string
	owned   map[runtime.SessionID]*wireSession

	// The handler's scratch, reused frame after frame: a frame is
	// answered before the next is read, and NewPathGraph and FindApp
	// copy what a session keeps. Every slice but wbuf holds at most
	// maxFunctions entries.
	wbuf   []byte                 // the last response frame
	fns    []int                  // a compose frame's decoded functions
	fids   []component.FunctionID // its path, for NewPathGraph
	res    []qos.Resources        // its per-position demand, for FindApp
	comp   runtime.Composition    // DescribeInto's result
	placed []PlacedComponent      // the reply's components
}

// Server accepts session-protocol connections and multiplexes them
// over one runtime.Cluster.
type Server struct {
	cfg      Config
	clk      clock.Clock
	cluster  *runtime.Cluster
	ln       net.Listener
	inflight chan struct{}

	ops     [numOpKinds]*obs.Counter    // server.ops{op}, by kind
	latency [numOpKinds]*obs.QHistogram // server.phase.<op>; nil for hello and unknown
	errorsC *obs.CounterVec
	reapedC *obs.CounterVec
	connsG  *obs.Gauge
	pendG   *obs.Gauge
	commG   *obs.Gauge

	wg sync.WaitGroup

	mu       sync.Mutex
	sessions map[runtime.SessionID]*wireSession
	// committed counts the sessions with committed set, so the two
	// session gauges cost no scan: pending is len(sessions)-committed.
	// guarded by mu
	committed int
	conns     map[*conn]struct{}
	composing int // composes admitted against MaxSessions but not yet in sessions
	reapT     clock.Timer
	closed    bool
}

// Listen binds addr (e.g. "127.0.0.1:0") and serves the session
// protocol until Close.
func Listen(addr string, cfg Config) (*Server, error) {
	if cfg.Cluster == nil {
		return nil, errors.New("server: Config.Cluster is required")
	}
	if cfg.CommitTimeout <= 0 {
		cfg.CommitTimeout = 10 * time.Second
	}
	if cfg.HeartbeatTimeout <= 0 {
		cfg.HeartbeatTimeout = 30 * time.Second
	}
	if cfg.ReapInterval <= 0 {
		cfg.ReapInterval = time.Second
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 32
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("server: listen %s: %w", addr, err)
	}
	s := &Server{
		cfg:      cfg,
		clk:      clock.Or(cfg.Clock),
		cluster:  cfg.Cluster,
		ln:       ln,
		inflight: make(chan struct{}, cfg.MaxInflight),
		sessions: make(map[runtime.SessionID]*wireSession),
		conns:    make(map[*conn]struct{}),

		errorsC: cfg.Registry.CounterVec("server.errors", "code"),
		reapedC: cfg.Registry.CounterVec("server.reaped", "reason"),
		connsG:  cfg.Registry.Gauge("server.conns"),
		pendG:   cfg.Registry.Gauge("server.sessions.pending"),
		commG:   cfg.Registry.Gauge("server.sessions.committed"),
	}
	ops := cfg.Registry.CounterVec("server.ops", "op")
	for k, name := range opNames {
		s.ops[k] = ops.With(name)
		if opKind(k) != opHello && opKind(k) != opUnknown {
			s.latency[k] = cfg.Registry.QHistogram("server.phase." + name + ".latency_quantiles_ms")
		}
	}
	s.mu.Lock()
	s.reapT = s.clk.AfterFunc(cfg.ReapInterval, s.reap)
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Sessions returns the live wire-session count (pending + committed).
func (s *Server) Sessions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

// Close stops accepting, severs every connection (their handlers tear
// down the sessions they own), and waits for the handlers to drain.
// The cluster is left running.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	if s.reapT != nil {
		s.reapT.Stop()
	}
	conns := make([]*conn, 0, len(s.conns))
	// Severing order is unobservable: each handler tears down its own sessions independently and Close joins them all via wg.Wait
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	err := s.ln.Close()
	for _, c := range conns {
		_ = c.nc.Close()
	}
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		c := &conn{nc: nc, owned: make(map[runtime.SessionID]*wireSession)}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = nc.Close()
			return
		}
		s.conns[c] = struct{}{}
		s.connsG.Set(float64(len(s.conns)))
		s.mu.Unlock()
		s.wg.Add(1)
		go s.handleConn(c)
	}
}

// handleConn runs one connection's serial request loop. Any exit —
// clean EOF, transport error, fatal protocol violation — releases
// every session the connection owns.
func (s *Server) handleConn(c *conn) {
	defer s.wg.Done()
	defer s.releaseConn(c)
	defer c.nc.Close()

	sc := bufio.NewScanner(c.nc)
	sc.Buffer(make([]byte, 0, 4096), maxFrameBytes)
	var req Request
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if err := c.decode(line, &req); err != nil {
			_ = c.send(s.fail(Response{Op: "?"}, CodeProtocol, "malformed frame: "+err.Error()))
			return
		}
		resp, fatal := s.dispatch(c, &req)
		if err := c.send(resp); err != nil || fatal {
			return
		}
	}
	if errors.Is(sc.Err(), bufio.ErrTooLong) {
		_ = c.send(s.fail(Response{Op: "?"}, CodeProtocol, fmt.Sprintf("frame exceeds %d bytes", maxFrameBytes)))
	}
}

// decode reads one request frame into req, its functions into the
// connection's scratch. The scratch is kept for the next frame unless
// a hostile frame grew it past maxFunctions, so a connection never
// holds a larger one.
func (c *conn) decode(line []byte, req *Request) error {
	err := decodeRequest(line, req, c.fns)
	if n := cap(req.Functions); n > cap(c.fns) && n <= maxFunctions {
		c.fns = req.Functions
	}
	return err
}

// send writes one response frame with a single Write.
func (c *conn) send(resp Response) (err error) {
	if c.wbuf, err = appendResponse(c.wbuf[:0], &resp); err != nil {
		return err
	}
	_, err = c.nc.Write(c.wbuf)
	return err
}

// fail stamps a failure response and counts it.
func (s *Server) fail(r Response, code, msg string) Response {
	r.OK = false
	r.Code = code
	r.Error = msg
	s.errorsC.With(code).Inc()
	return r
}

// dispatch executes one request. fatal=true closes the connection
// after the response is written: framing-level violations mean the
// peer cannot be trusted with session state.
func (s *Server) dispatch(c *conn, req *Request) (resp Response, fatal bool) {
	resp = Response{Op: req.Op, Seq: req.Seq}
	kind := opKindOf(req.Op)
	s.ops[kind].Inc()

	switch {
	case kind == opHello:
		if c.helloed {
			return s.fail(resp, CodeProtocol, "duplicate hello"), true
		}
		if req.Proto != ProtoVersion {
			return s.fail(resp, CodeProtocol, fmt.Sprintf("unsupported proto %d (want %d)", req.Proto, ProtoVersion)), true
		}
		c.helloed = true
		c.tenant = req.Tenant
		resp.OK = true
		resp.Proto = ProtoVersion
		return resp, false
	case !c.helloed:
		return s.fail(resp, CodeProtocol, "hello required before "+req.Op), true
	case kind == opUnknown:
		return s.fail(resp, CodeProtocol, "unknown op "+req.Op), true
	}

	start := s.clk.Now()
	if kind == opCompose {
		resp = s.opCompose(c, req, resp)
	} else {
		resp = s.opSession(c, kind, req, resp)
	}
	s.latency[kind].Observe(float64(s.clk.Since(start)) / float64(time.Millisecond))
	return resp, false
}

// opCompose admits, composes, and registers a pending session.
func (s *Server) opCompose(c *conn, req *Request, resp Response) Response {
	if len(req.Functions) == 0 || len(req.Functions) > maxFunctions {
		return s.fail(resp, CodeProtocol, fmt.Sprintf("compose needs 1..%d functions, got %d", maxFunctions, len(req.Functions)))
	}
	c.fids, c.res = c.fids[:0], c.res[:0]
	for _, f := range req.Functions {
		if f < 0 {
			return s.fail(resp, CodeProtocol, fmt.Sprintf("negative function id %d", f))
		}
		c.fids = append(c.fids, component.FunctionID(f))
		c.res = append(c.res, qos.Resources{CPU: req.CPU, Memory: req.MemoryMB})
	}
	if req.CPU < 0 || req.MemoryMB < 0 || req.BandwidthKbps < 0 || req.Weight < 0 {
		return s.fail(resp, CodeProtocol, "negative resource requirement")
	}
	if req.Delay <= 0 || req.LossProb <= 0 || req.LossProb >= 1 {
		return s.fail(resp, CodeProtocol, "compose needs delay > 0 and lossProb in (0,1)")
	}

	// Admission control: reserve a MaxSessions slot and an in-flight
	// dispatch slot, or refuse with busy before anything is charged.
	select {
	case s.inflight <- struct{}{}:
		defer func() { <-s.inflight }()
	default:
		return s.fail(resp, CodeBusy, "compose dispatch limit reached")
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return s.fail(resp, CodeInternal, "server shutting down")
	}
	if s.cfg.MaxSessions > 0 && len(s.sessions)+s.composing >= s.cfg.MaxSessions {
		s.mu.Unlock()
		return s.fail(resp, CodeBusy, fmt.Sprintf("session limit %d reached", s.cfg.MaxSessions))
	}
	s.composing++
	s.mu.Unlock()

	id, err := s.cluster.FindApp(runtime.FindRequest{
		Tenant: c.tenant,
		Weight: req.Weight,
		Graph:  component.NewPathGraph(c.fids),
		QoSReq: qos.Vector{Delay: req.Delay, LossCost: qos.LossCost(req.LossProb)},
		ResReq: c.res,

		BandwidthKbps: req.BandwidthKbps,
	})
	if err != nil {
		s.mu.Lock()
		s.composing--
		s.mu.Unlock()
		var qerr *runtime.QuotaError
		switch {
		case errors.As(err, &qerr):
			r := s.fail(resp, CodeQuota, err.Error())
			r.Dimension = qerr.Dimension
			return r
		case errors.Is(err, runtime.ErrNoComposition):
			return s.fail(resp, CodeCapacity, err.Error())
		default:
			return s.fail(resp, CodeInternal, err.Error())
		}
	}
	s.describe(c, id, &resp)
	ws := &wireSession{id: id, owner: c, deadline: s.clk.Now().Add(s.cfg.CommitTimeout)}
	s.mu.Lock()
	s.composing--
	s.sessions[id] = ws
	c.owned[id] = ws
	s.setSessionGaugesLocked()
	s.mu.Unlock()

	resp.OK = true
	resp.Session = int64(id)
	resp.CommitDeadlineMs = s.cfg.CommitTimeout.Milliseconds()
	return resp
}

// describe sets resp's phi and components from the session's
// composition, rendered in c's scratch; a session gone meanwhile
// leaves them unset.
func (s *Server) describe(c *conn, id runtime.SessionID, resp *Response) {
	if s.cluster.DescribeInto(id, &c.comp) != nil {
		return
	}
	c.placed = appendWire(c.placed[:0], c.comp.Components)
	resp.Phi, resp.Components = c.comp.Phi, c.placed
}

// opSession handles the ops addressed to a live session.
func (s *Server) opSession(c *conn, kind opKind, req *Request, resp Response) Response {
	id := runtime.SessionID(req.Session)
	s.mu.Lock()
	ws, ok := s.sessions[id]
	if !ok {
		s.mu.Unlock()
		return s.fail(resp, CodeUnknownSession, fmt.Sprintf("session %d not live", req.Session))
	}
	if ws.owner != c {
		s.mu.Unlock()
		return s.fail(resp, CodeProtocol, fmt.Sprintf("session %d owned by another connection", req.Session))
	}
	resp.Session = req.Session

	switch kind {
	case opCommit:
		if ws.committed {
			s.mu.Unlock()
			return s.fail(resp, CodeProtocol, fmt.Sprintf("session %d already committed", req.Session))
		}
		ws.committed = true
		s.committed++
		ws.deadline = s.clk.Now().Add(s.cfg.HeartbeatTimeout)
		s.setSessionGaugesLocked()
		s.mu.Unlock()
		resp.OK = true
		return resp

	case opHeartbeat:
		if !ws.committed {
			s.mu.Unlock()
			return s.fail(resp, CodeProtocol, fmt.Sprintf("session %d not committed; commit before heartbeat", req.Session))
		}
		ws.deadline = s.clk.Now().Add(s.cfg.HeartbeatTimeout)
		s.mu.Unlock()
		resp.OK = true
		return resp

	case opRecompose:
		if !ws.committed {
			s.mu.Unlock()
			return s.fail(resp, CodeProtocol, fmt.Sprintf("session %d not committed; commit before recompose", req.Session))
		}
		s.mu.Unlock()
		err := s.cluster.Recompose(id)
		switch {
		case errors.Is(err, runtime.ErrNoBetterComposition):
			return s.fail(resp, CodeNoBetter, err.Error())
		case errors.Is(err, runtime.ErrUnknownSession):
			return s.fail(resp, CodeUnknownSession, err.Error())
		case err != nil:
			return s.fail(resp, CodeInternal, err.Error())
		}
		// A successful re-probe proves the client is live; extend the
		// deadline as a heartbeat would. The session may have been
		// reaped while Recompose ran unlocked — only touch it if not.
		s.mu.Lock()
		if cur, live := s.sessions[id]; live && cur == ws {
			ws.deadline = s.clk.Now().Add(s.cfg.HeartbeatTimeout)
		}
		s.mu.Unlock()
		s.describe(c, id, &resp)
		resp.OK = true
		return resp

	default: // opTeardown
		s.dropLocked(ws)
		s.setSessionGaugesLocked()
		s.mu.Unlock()
		if err := s.cluster.Close(id); err != nil {
			return s.fail(resp, CodeInternal, err.Error())
		}
		resp.OK = true
		return resp
	}
}

// dropLocked takes ws out of the session table and its owner's set,
// keeping the committed count in step; caller holds s.mu. Every path
// that ends a lease — teardown, disconnect, reap — goes through here.
func (s *Server) dropLocked(ws *wireSession) {
	delete(s.sessions, ws.id)
	delete(ws.owner.owned, ws.id)
	if ws.committed {
		s.committed--
	}
}

// setSessionGaugesLocked refreshes the pending/committed gauges;
// caller holds s.mu.
func (s *Server) setSessionGaugesLocked() {
	s.pendG.Set(float64(len(s.sessions) - s.committed))
	s.commG.Set(float64(s.committed))
}

// releaseConn tears down every session the departing connection owns
// — the disconnect path of the lifecycle. Holds are released and
// quotas refunded by cluster.Close, exactly as an explicit teardown
// would.
func (s *Server) releaseConn(c *conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.connsG.Set(float64(len(s.conns)))
	ids := make([]runtime.SessionID, 0, len(c.owned))
	for id, ws := range c.owned {
		ids = append(ids, id)
		s.dropLocked(ws)
	}
	c.owned = nil
	slices.Sort(ids)
	s.setSessionGaugesLocked()
	s.mu.Unlock()
	for _, id := range ids {
		s.reapedC.With("disconnect").Inc()
		_ = s.cluster.Close(id)
	}
}

// reap releases every session past its deadline — pending sessions
// whose commit window lapsed, committed sessions whose heartbeats
// stopped — then re-arms. Sessions are scanned and released in ID
// order so virtual-clock runs are deterministic.
func (s *Server) reap() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	now := s.clk.Now()
	ids := make([]runtime.SessionID, 0, len(s.sessions))
	for id, ws := range s.sessions {
		if !ws.deadline.After(now) {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	due := make([]*wireSession, 0, len(ids))
	for _, id := range ids {
		ws := s.sessions[id]
		due = append(due, ws)
		s.dropLocked(ws)
	}
	s.setSessionGaugesLocked()
	s.mu.Unlock()

	for _, ws := range due {
		reason := "heartbeat-timeout"
		if !ws.committed {
			reason = "commit-timeout"
		}
		s.reapedC.With(reason).Inc()
		_ = s.cluster.Close(ws.id)
	}

	s.mu.Lock()
	if !s.closed {
		s.reapT = s.clk.AfterFunc(s.cfg.ReapInterval, s.reap)
	}
	s.mu.Unlock()
}
