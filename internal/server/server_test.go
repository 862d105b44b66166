package server

import (
	"bufio"
	"bytes"
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/harness/clock"
	"repro/internal/obs"
	"repro/internal/runtime"
)

// testCluster builds a small live cluster; shut down via t.Cleanup.
func testCluster(t *testing.T, clk clock.Clock, reg *obs.Registry) *runtime.Cluster {
	t.Helper()
	cfg := runtime.DefaultConfig()
	cfg.IPNodes = 128
	cfg.OverlayNodes = 24
	cfg.NeighborsPerNode = 4
	cfg.NumFunctions = 8
	cfg.ComponentsPerNode = 3
	cfg.Clock = clk
	cfg.Registry = reg
	c, err := runtime.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)
	return c
}

func testServer(t *testing.T, c *runtime.Cluster, mutate func(*Config)) *Server {
	t.Helper()
	// Every test server carries a registry, so auditCounters can hold
	// the session gauges against the table.
	cfg := Config{Cluster: c, Registry: obs.NewRegistry()}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := Listen("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

func dialHello(t *testing.T, s *Server, tenant string) *Client {
	t.Helper()
	cl, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cl.Close() })
	resp, err := cl.Hello(tenant)
	if err != nil || !resp.OK {
		t.Fatalf("hello = %+v, %v", resp, err)
	}
	return cl
}

// composeReq is the canonical modest request every test composes: a
// 3-function path with the harness's generous QoS requirement.
func composeReq() Request {
	return Request{
		Functions:     []int{1, 2, 3},
		CPU:           4,
		MemoryMB:      40,
		Delay:         1e5,
		LossProb:      0.9,
		BandwidthKbps: 30,
	}
}

// mustCompose drives compose (and optionally commit) to success.
func mustCompose(t *testing.T, cl *Client, commit bool) int64 {
	t.Helper()
	resp, err := cl.Compose(composeReq())
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK {
		t.Fatalf("compose refused: %+v", resp)
	}
	if resp.Session == 0 || resp.Phi <= 0 || len(resp.Components) != 3 {
		t.Fatalf("compose response malformed: %+v", resp)
	}
	if commit {
		c, err := cl.Commit(resp.Session)
		if err != nil || !c.OK {
			t.Fatalf("commit = %+v, %v", c, err)
		}
	}
	return resp.Session
}

// auditPristine asserts the PR 8 teardown audit over the wire paths:
// ledger residuals back at capacity, quota books at seed values, no
// live sessions.
func auditPristine(t *testing.T, c *runtime.Cluster, tenants ...string) {
	t.Helper()
	if err := c.CheckInvariants(); err != nil {
		t.Fatalf("ledger invariants violated: %v", err)
	}
	if got := c.ActiveSessions(); got != 0 {
		t.Fatalf("%d sessions still live", got)
	}
	for n := 0; n < c.NumNodes(); n++ {
		want, got := c.NodeCapacity(n), c.NodeResidual(n)
		if math.Abs(got.CPU-want.CPU) > 1e-6 || math.Abs(got.Memory-want.Memory) > 1e-6 {
			t.Fatalf("node %d residual %+v, want capacity %+v", n, got, want)
		}
	}
	for l := 0; l < c.NumLinks(); l++ {
		if want := c.Mesh().Link(l).Capacity; math.Abs(c.LinkResidual(l)-want) > 1e-6 {
			t.Fatalf("link %d residual %v, want %v", l, c.LinkResidual(l), want)
		}
	}
	for _, tenant := range tenants {
		u := c.TenantUsageFor(tenant)
		if u.Sessions != 0 || math.Abs(u.CPU) > 1e-9 || math.Abs(u.Memory) > 1e-9 || math.Abs(u.BandwidthKbps) > 1e-9 {
			t.Fatalf("tenant %q usage %+v after teardown, want zero", tenant, u)
		}
	}
}

// checkCounters recounts the session table under mu and holds the
// O(1) bookkeeping against it: the committed counter, the two session
// gauges set from it, and the owners' sets.
func checkCounters(s *Server) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	committed, owned := 0, 0
	for id, ws := range s.sessions {
		if ws.committed {
			committed++
		}
		if ws.owner.owned[id] != ws {
			return fmt.Errorf("session %d is not in its owner's set", id)
		}
	}
	for c := range s.conns {
		owned += len(c.owned)
	}
	pending := len(s.sessions) - committed
	if s.committed != committed || owned != len(s.sessions) ||
		s.commG.Value() != float64(committed) || s.pendG.Value() != float64(pending) {
		return fmt.Errorf("table has %d pending + %d committed, %d owned; counter says %d committed, gauges %v pending %v committed",
			pending, committed, owned, s.committed, s.pendG.Value(), s.commG.Value())
	}
	return nil
}

// auditCounters is checkCounters plus the counts the step should have
// left behind.
func auditCounters(t *testing.T, s *Server, pending, committed int) {
	t.Helper()
	if err := checkCounters(s); err != nil {
		t.Fatal(err)
	}
	if p, c := s.pendG.Value(), s.commG.Value(); p != float64(pending) || c != float64(committed) {
		t.Fatalf("gauges read %v pending, %v committed; want %d, %d", p, c, pending, committed)
	}
}

// waitSessions polls until the cluster has n live sessions (the
// disconnect path races the poll; teardown runs on the server's
// handler goroutine).
func waitSessions(t *testing.T, c *runtime.Cluster, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for c.ActiveSessions() != n {
		if time.Now().After(deadline) {
			t.Fatalf("cluster still at %d sessions, want %d", c.ActiveSessions(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSessionLifecycle(t *testing.T) {
	c := testCluster(t, nil, nil)
	s := testServer(t, c, nil)
	cl := dialHello(t, s, "t0")

	auditCounters(t, s, 0, 0)
	id := mustCompose(t, cl, false)
	auditCounters(t, s, 1, 0)
	if cm, err := cl.Commit(id); err != nil || !cm.OK {
		t.Fatalf("commit = %+v, %v", cm, err)
	}
	auditCounters(t, s, 0, 1)
	if got := c.ActiveSessions(); got != 1 {
		t.Fatalf("cluster sessions = %d, want 1", got)
	}
	if u := c.TenantUsageFor("t0"); u.Sessions != 1 {
		t.Fatalf("tenant usage = %+v, want 1 session", u)
	}
	hb, err := cl.Heartbeat(id)
	if err != nil || !hb.OK {
		t.Fatalf("heartbeat = %+v, %v", hb, err)
	}
	auditCounters(t, s, 0, 1)
	td, err := cl.Teardown(id)
	if err != nil || !td.OK {
		t.Fatalf("teardown = %+v, %v", td, err)
	}
	auditCounters(t, s, 0, 0)
	auditPristine(t, c, "t0")

	// The session is gone; a second teardown is a typed refusal.
	td, err = cl.Teardown(id)
	if err != nil {
		t.Fatal(err)
	}
	if td.OK || td.Code != CodeUnknownSession {
		t.Fatalf("re-teardown = %+v, want code %q", td, CodeUnknownSession)
	}
	auditCounters(t, s, 0, 0)
}

func TestTypedErrorCodes(t *testing.T) {
	c := testCluster(t, nil, nil)
	c.SetTenantQuota("q", runtime.TenantQuota{MaxSessions: 1})
	s := testServer(t, c, nil)

	t.Run("compose before hello is fatal", func(t *testing.T) {
		cl, err := Dial(s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		resp, err := cl.Compose(composeReq())
		if err != nil {
			t.Fatal(err)
		}
		if resp.OK || resp.Code != CodeProtocol {
			t.Fatalf("compose before hello = %+v, want code %q", resp, CodeProtocol)
		}
		if _, err := cl.Heartbeat(1); err == nil {
			t.Fatal("connection survived a fatal protocol violation")
		}
	})

	t.Run("quota rejection carries dimension", func(t *testing.T) {
		cl := dialHello(t, s, "q")
		id := mustCompose(t, cl, true)
		resp, err := cl.Compose(composeReq())
		if err != nil {
			t.Fatal(err)
		}
		if resp.OK || resp.Code != CodeQuota || resp.Dimension != "sessions" {
			t.Fatalf("over-quota compose = %+v, want code %q dimension sessions", resp, CodeQuota)
		}
		if td, _ := cl.Teardown(id); !td.OK {
			t.Fatalf("teardown = %+v", td)
		}
	})

	t.Run("capacity refusal", func(t *testing.T) {
		cl := dialHello(t, s, "t0")
		req := composeReq()
		req.CPU = 1e9 // no node can host this
		resp, err := cl.Compose(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.OK || resp.Code != CodeCapacity {
			t.Fatalf("impossible compose = %+v, want code %q", resp, CodeCapacity)
		}
	})

	t.Run("invalid fields", func(t *testing.T) {
		cl := dialHello(t, s, "t0")
		for _, req := range []Request{
			{CPU: 4, MemoryMB: 40, Delay: 1e5, LossProb: 0.9},                          // no functions
			{Functions: []int{1, -2}, CPU: 4, MemoryMB: 40, Delay: 1e5, LossProb: 0.9}, // negative function
			{Functions: []int{1, 2}, CPU: 4, MemoryMB: 40, LossProb: 0.9},              // no delay
			{Functions: []int{1, 2}, CPU: 4, MemoryMB: 40, Delay: 1e5, LossProb: 1.5},  // bad loss
			{Functions: []int{1, 2}, CPU: -4, MemoryMB: 40, Delay: 1e5, LossProb: 0.9}, // negative cpu
		} {
			resp, err := cl.Compose(req)
			if err != nil {
				t.Fatal(err)
			}
			if resp.OK || resp.Code != CodeProtocol {
				t.Fatalf("invalid compose %+v accepted: %+v", req, resp)
			}
		}
	})

	t.Run("unknown session", func(t *testing.T) {
		cl := dialHello(t, s, "t0")
		for _, do := range []func() (Response, error){
			func() (Response, error) { return cl.Commit(9999) },
			func() (Response, error) { return cl.Heartbeat(9999) },
			func() (Response, error) { return cl.Teardown(9999) },
		} {
			resp, err := do()
			if err != nil {
				t.Fatal(err)
			}
			if resp.OK || resp.Code != CodeUnknownSession {
				t.Fatalf("op on unknown session = %+v, want code %q", resp, CodeUnknownSession)
			}
		}
	})

	t.Run("foreign session is a protocol violation", func(t *testing.T) {
		owner := dialHello(t, s, "t0")
		id := mustCompose(t, owner, true)
		thief := dialHello(t, s, "t1")
		resp, err := thief.Teardown(id)
		if err != nil {
			t.Fatal(err)
		}
		if resp.OK || resp.Code != CodeProtocol {
			t.Fatalf("foreign teardown = %+v, want code %q", resp, CodeProtocol)
		}
		if td, _ := owner.Teardown(id); !td.OK {
			t.Fatalf("owner teardown = %+v", td)
		}
	})

	auditPristine(t, c, "t0", "t1", "q")
}

func TestBusyAtSessionCap(t *testing.T) {
	c := testCluster(t, nil, nil)
	s := testServer(t, c, func(cfg *Config) { cfg.MaxSessions = 1 })
	cl := dialHello(t, s, "t0")

	id := mustCompose(t, cl, true)
	resp, err := cl.Compose(composeReq())
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK || resp.Code != CodeBusy {
		t.Fatalf("compose at cap = %+v, want code %q", resp, CodeBusy)
	}
	// Nothing was charged: the refusal happened before admission.
	if u := c.TenantUsageFor("t0"); u.Sessions != 1 {
		t.Fatalf("tenant usage after busy refusal = %+v, want 1 session", u)
	}
	if td, _ := cl.Teardown(id); !td.OK {
		t.Fatalf("teardown = %+v", td)
	}
	mustCompose(t, cl, false) // the slot is free again
}

func TestRecomposeOverWire(t *testing.T) {
	c := testCluster(t, nil, nil)
	s := testServer(t, c, nil)
	cl := dialHello(t, s, "t0")

	id := mustCompose(t, cl, true)
	resp, err := cl.Recompose(id)
	if err != nil {
		t.Fatal(err)
	}
	// Either outcome is legitimate — a flip, or a typed "no better
	// composition meets the admission bound" refusal that leaves the
	// session untouched. Anything else is a failure.
	if !resp.OK && resp.Code != CodeNoBetter {
		t.Fatalf("recompose = %+v", resp)
	}
	if resp.OK && len(resp.Components) != 3 {
		t.Fatalf("recompose response missing composition: %+v", resp)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatalf("invariants after recompose: %v", err)
	}
	if td, _ := cl.Teardown(id); !td.OK {
		t.Fatalf("teardown = %+v", td)
	}
	auditPristine(t, c, "t0")

	// Recompose on a pending (uncommitted) session is a state error.
	pid := mustCompose(t, cl, false)
	if r, _ := cl.Recompose(pid); r.OK || r.Code != CodeProtocol {
		t.Fatalf("recompose on pending session = %+v, want code %q", r, CodeProtocol)
	}
	if td, _ := cl.Teardown(pid); !td.OK {
		t.Fatalf("teardown = %+v", td)
	}
}

// TestReapHeartbeatExpiry is the deterministic virtual-clock reap
// test: a committed session whose client goes silent is reaped at
// exactly the heartbeat deadline, and the reap releases every hold
// and refunds the full quota — ledger and books pristine.
func TestReapHeartbeatExpiry(t *testing.T) {
	vc := clock.NewVirtual()
	reg := obs.NewRegistry()
	c := testCluster(t, vc, reg)
	s := testServer(t, c, func(cfg *Config) {
		cfg.Clock = vc
		cfg.CommitTimeout = 10 * time.Second
		cfg.HeartbeatTimeout = 30 * time.Second
		cfg.ReapInterval = time.Second
		cfg.Registry = reg
	})
	cl := dialHello(t, s, "t0")
	id := mustCompose(t, cl, true)
	auditCounters(t, s, 0, 1)

	// 29s of virtual silence: the session survives (deadline is +30s).
	vc.Advance(29 * time.Second)
	if got := c.ActiveSessions(); got != 1 {
		t.Fatalf("session reaped early: %d live at +29s", got)
	}
	auditCounters(t, s, 0, 1)
	// A heartbeat re-arms the deadline; 29 more seconds still survive.
	if hb, err := cl.Heartbeat(id); err != nil || !hb.OK {
		t.Fatalf("heartbeat = %+v, %v", hb, err)
	}
	vc.Advance(29 * time.Second)
	if got := c.ActiveSessions(); got != 1 {
		t.Fatalf("session reaped despite heartbeat: %d live", got)
	}
	auditCounters(t, s, 0, 1)
	// Silence past the deadline: the reaper takes it synchronously on
	// the advancing goroutine — no polling, no sleeps.
	vc.Advance(2 * time.Second)
	if got := c.ActiveSessions(); got != 0 {
		t.Fatalf("session not reaped: %d live after heartbeat expiry", got)
	}
	auditCounters(t, s, 0, 0)
	auditPristine(t, c, "t0")

	if v := reg.Snapshot().CounterVecs["server.reaped"]; len(v.Values) != 1 ||
		v.Values[0].Labels[0] != "heartbeat-timeout" || v.Values[0].Value != 1 {
		t.Fatalf("server.reaped = %+v, want one heartbeat-timeout", v)
	}
	// The client learns of the reap as a typed unknown-session.
	hb, err := cl.Heartbeat(id)
	if err != nil {
		t.Fatal(err)
	}
	if hb.OK || hb.Code != CodeUnknownSession {
		t.Fatalf("heartbeat after reap = %+v, want code %q", hb, CodeUnknownSession)
	}
	auditCounters(t, s, 0, 0)
}

// TestReapCommitTimeout: a composed-but-never-committed session is a
// transient hold; the reaper releases it at the commit deadline.
func TestReapCommitTimeout(t *testing.T) {
	vc := clock.NewVirtual()
	reg := obs.NewRegistry()
	c := testCluster(t, vc, reg)
	s := testServer(t, c, func(cfg *Config) {
		cfg.Clock = vc
		cfg.CommitTimeout = 10 * time.Second
		cfg.HeartbeatTimeout = 30 * time.Second
		cfg.ReapInterval = time.Second
		cfg.Registry = reg
	})
	cl := dialHello(t, s, "t0")
	id := mustCompose(t, cl, false)
	auditCounters(t, s, 1, 0)

	vc.Advance(9 * time.Second)
	if got := c.ActiveSessions(); got != 1 {
		t.Fatalf("pending session reaped early: %d live at +9s", got)
	}
	auditCounters(t, s, 1, 0)
	vc.Advance(2 * time.Second)
	if got := c.ActiveSessions(); got != 0 {
		t.Fatalf("pending session not reaped at commit deadline: %d live", got)
	}
	auditCounters(t, s, 0, 0)
	auditPristine(t, c, "t0")

	if v := reg.Snapshot().CounterVecs["server.reaped"]; len(v.Values) != 1 ||
		v.Values[0].Labels[0] != "commit-timeout" || v.Values[0].Value != 1 {
		t.Fatalf("server.reaped = %+v, want one commit-timeout", v)
	}
	// Committing the corpse is a typed refusal, not a crash.
	cm, err := cl.Commit(id)
	if err != nil {
		t.Fatal(err)
	}
	if cm.OK || cm.Code != CodeUnknownSession {
		t.Fatalf("commit after reap = %+v, want code %q", cm, CodeUnknownSession)
	}
	auditCounters(t, s, 0, 0)
}

// TestDisconnectReleasesSessions covers the transport-death paths of
// the teardown audit: a connection that vanishes — abrupt close with
// both a committed and a pending session in flight — must leave the
// ledger pristine and the quota books at seed values.
func TestDisconnectReleasesSessions(t *testing.T) {
	c := testCluster(t, nil, nil)
	s := testServer(t, c, nil)
	cl := dialHello(t, s, "t0")

	mustCompose(t, cl, true) // committed
	auditCounters(t, s, 0, 1)
	mustCompose(t, cl, false) // pending
	auditCounters(t, s, 1, 1)
	if got := c.ActiveSessions(); got != 2 {
		t.Fatalf("cluster sessions = %d, want 2", got)
	}
	// Sever the transport without teardown: the server's handler exit
	// must release both sessions.
	_ = cl.Close()
	waitSessions(t, c, 0)
	auditCounters(t, s, 0, 0)
	auditPristine(t, c, "t0")
	if s.Sessions() != 0 {
		t.Fatalf("server still tracks %d wire sessions", s.Sessions())
	}
}

// TestReleasesRunInSessionIDOrder: the reaper and a disconnect each
// collect the sessions they release from a map, and must close them in
// session-ID order; in map order a virtual-clock run would replay its
// ledger releases in a new order every time. The cluster tracer's
// SessionReleased events show the order.
func TestReleasesRunInSessionIDOrder(t *testing.T) {
	for _, path := range []string{"reap", "disconnect"} {
		t.Run(path, func(t *testing.T) {
			vc := clock.NewVirtual()
			sink := &obs.MemorySink{}
			cfg := runtime.DefaultConfig()
			cfg.IPNodes, cfg.OverlayNodes, cfg.NeighborsPerNode = 128, 24, 4
			cfg.NumFunctions, cfg.ComponentsPerNode = 8, 3
			cfg.Clock, cfg.Tracer = vc, obs.New(sink)
			c, err := runtime.NewCluster(cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(c.Shutdown)
			s := testServer(t, c, func(cfg *Config) {
				cfg.Clock = vc
				cfg.CommitTimeout = 10 * time.Second
				cfg.ReapInterval = time.Second
			})
			cl := dialHello(t, s, "t0")
			for i := 0; i < 12; i++ {
				mustCompose(t, cl, false)
			}
			audit := c.AuditSessions()
			slices.SortFunc(audit, func(a, b runtime.SessionAudit) int { return cmp.Compare(a.ID, b.ID) })
			var want, got []int64
			for _, a := range audit {
				want = append(want, a.RequestID)
			}
			if path == "reap" {
				vc.Advance(11 * time.Second)
			} else {
				_ = cl.Close()
			}
			waitSessions(t, c, 0)
			for _, e := range sink.Events() {
				if e.Type == obs.EventSessionReleased {
					got = append(got, e.Req)
				}
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("released requests %v, want session-ID order %v", got, want)
			}
		})
	}
}

// TestMalformedFrameTearsDownSessions: garbage mid-session is answered
// with a typed protocol error, then the connection — and every session
// it owns — is taken down, books pristine.
func TestMalformedFrameTearsDownSessions(t *testing.T) {
	c := testCluster(t, nil, nil)
	s := testServer(t, c, nil)
	cl := dialHello(t, s, "t0")
	mustCompose(t, cl, true)
	auditCounters(t, s, 0, 1)

	if _, err := fmt.Fprintf(cl.Conn(), "this is not json\n"); err != nil {
		t.Fatal(err)
	}
	resp, err := cl.Do(Request{Op: OpHeartbeat, Session: 1})
	// Depending on scheduling we read the protocol error for the
	// garbage frame, or the connection is already gone.
	if err == nil && (resp.OK || resp.Code != CodeProtocol) {
		t.Fatalf("response to garbage frame = %+v, want code %q", resp, CodeProtocol)
	}
	waitSessions(t, c, 0)
	auditCounters(t, s, 0, 0)
	auditPristine(t, c, "t0")
}

// TestOversizedFrameAnswersThenTearsDown: a line that outgrows
// maxFrameBytes is a framing violation like any other — typed protocol
// reply first, then the connection and every session it owns go.
func TestOversizedFrameAnswersThenTearsDown(t *testing.T) {
	c := testCluster(t, nil, nil)
	s := testServer(t, c, nil)
	cl := dialHello(t, s, "t0")
	mustCompose(t, cl, true)
	mustCompose(t, cl, false)
	auditCounters(t, s, 1, 1)

	// Exactly the limit with no newline in sight: the server has read
	// everything sent, so its close cannot reset the reply away.
	if _, err := cl.Conn().Write(bytes.Repeat([]byte{'x'}, maxFrameBytes)); err != nil {
		t.Fatal(err)
	}
	line, err := bufio.NewReader(cl.Conn()).ReadBytes('\n')
	if err != nil {
		t.Fatalf("no reply to an oversized frame: %v", err)
	}
	var resp Response
	if err := decodeResponse(line, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.OK || resp.Code != CodeProtocol || resp.Error != fmt.Sprintf("frame exceeds %d bytes", maxFrameBytes) {
		t.Fatalf("reply to oversized frame = %+v", resp)
	}
	waitSessions(t, c, 0)
	auditCounters(t, s, 0, 0)
	auditPristine(t, c, "t0")
}

// TestUnknownOpsShareOneSeries: op names come from the client, so the
// `server.ops` label set must not grow with them.
func TestUnknownOpsShareOneSeries(t *testing.T) {
	c := testCluster(t, nil, nil)
	s := testServer(t, c, nil)
	const bogus = 1000
	for i := 0; i < bogus; i++ {
		cl, err := Dial(s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		resp, err := cl.Do(Request{Op: fmt.Sprintf("bogus-%d", i)})
		_ = cl.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.OK || resp.Code != CodeProtocol || resp.Op != fmt.Sprintf("bogus-%d", i) {
			t.Fatalf("bogus op %d = %+v, want code %q and the op echoed", i, resp, CodeProtocol)
		}
	}
	v := s.cfg.Registry.Snapshot().CounterVecs["server.ops"]
	if len(v.Values) > int(numOpKinds) {
		t.Fatalf("server.ops has %d series after %d distinct bogus ops, want at most %d", len(v.Values), bogus, numOpKinds)
	}
	if got := s.ops[opUnknown].Value(); got != bogus {
		t.Fatalf("server.ops{op=unknown} = %d, want %d", got, bogus)
	}
}

// TestConcurrentTenants drives several connections at once through
// full lifecycles — the multiplexing path — and audits the books.
func TestConcurrentTenants(t *testing.T) {
	c := testCluster(t, nil, nil)
	s := testServer(t, c, nil)

	const clients = 6
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		go func(i int) {
			errs <- func() error {
				cl, err := Dial(s.Addr())
				if err != nil {
					return err
				}
				defer cl.Close()
				if r, err := cl.Hello(fmt.Sprintf("t%d", i%3)); err != nil || !r.OK {
					return fmt.Errorf("hello = %+v, %v", r, err)
				}
				for n := 0; n < 5; n++ {
					r, err := cl.Compose(composeReq())
					if err != nil {
						return err
					}
					if err := checkCounters(s); err != nil {
						return err
					}
					if !r.OK {
						if r.Code == CodeCapacity || r.Code == CodeBusy {
							continue // legitimate under contention
						}
						return fmt.Errorf("compose = %+v", r)
					}
					if cm, err := cl.Commit(r.Session); err != nil || !cm.OK {
						return fmt.Errorf("commit = %+v, %v", cm, err)
					}
					if err := checkCounters(s); err != nil {
						return err
					}
					if hb, err := cl.Heartbeat(r.Session); err != nil || !hb.OK {
						return fmt.Errorf("heartbeat = %+v, %v", hb, err)
					}
					if td, err := cl.Teardown(r.Session); err != nil || !td.OK {
						return fmt.Errorf("teardown = %+v, %v", td, err)
					}
					if err := checkCounters(s); err != nil {
						return err
					}
				}
				return nil
			}()
		}(i)
	}
	for i := 0; i < clients; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	auditCounters(t, s, 0, 0)
	auditPristine(t, c, "t0", "t1", "t2")
}

func TestHelloValidation(t *testing.T) {
	c := testCluster(t, nil, nil)
	s := testServer(t, c, nil)

	cl, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	resp, err := cl.Do(Request{Op: OpHello, Proto: 99})
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK || resp.Code != CodeProtocol || !strings.Contains(resp.Error, "proto") {
		t.Fatalf("bad-proto hello = %+v", resp)
	}

	cl2 := dialHello(t, s, "t0")
	resp, err = cl2.Do(Request{Op: OpHello, Proto: ProtoVersion})
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK || resp.Code != CodeProtocol {
		t.Fatalf("duplicate hello = %+v", resp)
	}
}

func TestServerCloseSeversClients(t *testing.T) {
	c := testCluster(t, nil, nil)
	s := testServer(t, c, nil)
	cl := dialHello(t, s, "t0")
	mustCompose(t, cl, true)

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Close waits for handlers; sessions are already released.
	auditPristine(t, c, "t0")
	if _, err := cl.Heartbeat(1); err == nil {
		t.Fatal("client survived server Close")
	}
}
