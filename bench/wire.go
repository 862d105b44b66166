package main

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/runtime"
	"repro/internal/server"
)

// nonBinding is the quota both tenants get: the quota path runs on
// every compose, as under acpserve -quota, but never refuses.
var nonBinding = runtime.TenantQuota{MaxSessions: 1 << 20, MaxCPU: 1e9, MaxMemory: 1e9, MaxBandwidthKbps: 1e9}

// Lease timing of wire_lease_mix: an abandoned compose is reaped within
// CommitTimeout + ReapInterval, well inside an episode's drain.
const (
	leaseCommitTimeout = 250 * time.Millisecond
	leaseReapInterval  = 50 * time.Millisecond
)

// clusterConfig is the runtime configuration every centralized
// workload builds from, as cmd/acpserve does from its flags.
func clusterConfig(sp *spec, reg *obs.Registry) runtime.Config {
	cfg := runtime.DefaultConfig()
	cfg.Seed = substrateSeed
	cfg.OverlayNodes = sp.overlay
	cfg.IPNodes = sp.ipNodes
	cfg.NumFunctions = sp.functions
	cfg.ComponentsPerNode = sp.perNode
	cfg.ProbingRatio = sp.alpha
	cfg.Registry = reg
	return cfg
}

// tenant names a lane's tenant, as acpserve's -quota flags would.
func tenant(lane int) string { return [maxLanes]string{"t0", "t1"}[lane] }

// newCluster builds the cluster with its two quota-carrying tenants.
func newCluster(sp *spec, reg *obs.Registry) (*runtime.Cluster, error) {
	cluster, err := runtime.NewCluster(clusterConfig(sp, reg))
	if err != nil {
		return nil, err
	}
	for lane := 0; lane < maxLanes; lane++ {
		cluster.SetTenantQuota(tenant(lane), nonBinding)
	}
	return cluster, nil
}

// wireLane is one connection and the leases it holds.
type wireLane struct {
	cl     *server.Client
	st     *stream
	ring   []int64 // live committed sessions, oldest at head
	head   int
	cycles int64
	reqs   int32 // requests generated, the span's req id

	// Episode-wide lease accounting (fill and warm-up included).
	admitted, tornDown int64
}

type wireSystem struct {
	sp      *spec
	reg     *obs.Registry
	cluster *runtime.Cluster
	srv     *server.Server
	lanes   []*wireLane

	disconnectS     float64 // lane 1's disconnect until its leases are gone
	disconnectCount int
}

func buildWire(sp *spec, p params, ep, lanes int) (system, error) {
	reg := obs.NewRegistry()
	cluster, err := newCluster(sp, reg)
	if err != nil {
		return nil, err
	}
	cfg := server.Config{Cluster: cluster, Registry: reg}
	if sp.ring > 0 {
		cfg.CommitTimeout, cfg.ReapInterval = leaseCommitTimeout, leaseReapInterval
	}
	srv, err := server.Listen("127.0.0.1:0", cfg)
	if err != nil {
		cluster.Shutdown()
		return nil, err
	}
	s := &wireSystem{sp: sp, reg: reg, cluster: cluster, srv: srv}
	for lane := 0; lane < lanes; lane++ {
		cl, err := server.Dial(srv.Addr())
		if err != nil {
			s.close()
			return nil, err
		}
		s.lanes = append(s.lanes, &wireLane{cl: cl, st: newStream(sp, p.seed, ep, lane), ring: make([]int64, 0, sp.ring)})
		if resp, err := cl.Hello(tenant(lane)); err != nil || !resp.OK {
			s.close()
			return nil, fmt.Errorf("hello: %v %+v", err, resp)
		}
	}
	return s, nil
}

// clusterCounts reads the control-plane message counters.
func clusterCounts(c *runtime.Cluster) counts {
	m := c.Counters()
	var out counts
	out[cProbes], out[cReturns], out[cStateUpdates] = float64(m.Probes), float64(m.ProbeReturns), float64(m.StateUpdates)
	return out
}

func (s *wireSystem) counts() counts {
	out := clusterCounts(s.cluster)
	for i, name := range wireOps {
		h := s.reg.QHistogram("server.phase." + name.String() + ".latency_quantiles_ms")
		out[cHandlerMs+counter(i)], out[cHandlerN+counter(i)] = h.Sum(), float64(h.Count())
	}
	out[cReaped] = float64(s.reaped("commit-timeout"))
	return out
}

// fill commits the ring's leases, both connections at once.
func (s *wireSystem) fill() error {
	errs := make([]error, len(s.lanes))
	var wg sync.WaitGroup
	for i, ln := range s.lanes {
		wg.Add(1)
		go func(i int, ln *wireLane) {
			defer wg.Done()
			for len(ln.ring) < s.sp.ring {
				r := ln.st.next()
				resp, err := ln.cl.Compose(r.wire())
				if err != nil || !resp.OK {
					errs[i] = fmt.Errorf("compose: %v %+v", err, resp)
					return
				}
				ln.admitted++
				if cm, err := ln.cl.Commit(resp.Session); err != nil || !cm.OK {
					errs[i] = fmt.Errorf("commit: %v %+v", err, cm)
					return
				}
				ln.ring = append(ln.ring, resp.Session)
			}
		}(i, ln)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (s *wireSystem) cycle(lane int, rec *recorder) {
	ln := s.lanes[lane]
	ln.cycles++
	ln.reqs++
	r := ln.st.next()
	cyc := rec.spans.open(0)
	start := time.Now()
	if s.sp.ring == 0 {
		s.churn(ln, rec, &r, cyc, start)
	} else {
		s.leaseMix(ln, rec, &r, cyc, start)
	}
	rec.spans.close(cyc, opCycle, ln.reqs, start, time.Now())
}

// compose sends the compose frame and classifies the reply: ok is true
// for an admitted composition that passed its output check. A capacity
// refusal is a valid outcome; anything else unexpected is a failure.
func (s *wireSystem) compose(ln *wireLane, rec *recorder, r *request, cyc int32, t0 time.Time) (resp server.Response, t1 time.Time, ok bool) {
	rec.attempts++
	rec.walks++
	req := r.wire()
	resp, err := ln.cl.Compose(req)
	t1 = time.Now()
	rec.spans.add(cyc, opCompose, ln.reqs, t0, t1)
	rec.frame(req, resp)
	switch {
	case err != nil:
		rec.fail("compose: %v", err)
	case !resp.OK && resp.Code == server.CodeCapacity:
	case !resp.OK:
		rec.fail("compose refused: %s %s", resp.Code, resp.Error)
	case !placedAsAsked(r, resp.Components):
		rec.fail("compose %v answered with components %+v", r.Functions, resp.Components)
		ln.admitted++
	default:
		ln.admitted++
		return resp, t1, true
	}
	return resp, t1, false
}

// placedAsAsked checks one component per function, in position order.
func placedAsAsked(r *request, placed []server.PlacedComponent) bool {
	if len(placed) != len(r.Functions) {
		return false
	}
	for i, pc := range placed {
		if pc.Position != i || pc.Function != r.Functions[i] {
			return false
		}
	}
	return true
}

// sessionOp sends one session-addressed op and records its span.
// accept lists the non-OK codes the workload allows.
func (s *wireSystem) sessionOp(ln *wireLane, rec *recorder, name op, id int64, cyc int32, t0 time.Time, accept string) time.Time {
	req := server.Request{Op: name.String(), Session: id}
	resp, err := ln.cl.Do(req)
	t1 := time.Now()
	rec.spans.add(cyc, name, ln.reqs, t0, t1)
	rec.frame(req, resp)
	if err != nil {
		rec.fail("%s: %v", name, err)
	} else if !resp.OK && (accept == "" || resp.Code != accept) {
		rec.fail("%s refused: %s %s", name, resp.Code, resp.Error)
	}
	return t1
}

// churn is compose, commit, teardown: the cluster stays empty.
func (s *wireSystem) churn(ln *wireLane, rec *recorder, r *request, cyc int32, t0 time.Time) {
	resp, t1, ok := s.compose(ln, rec, r, cyc, t0)
	if !ok {
		return
	}
	t2 := s.sessionOp(ln, rec, opCommit, resp.Session, cyc, t1, "")
	rec.admit(resp.Phi)
	rec.composed(t2.Sub(t0))
	t3 := s.sessionOp(ln, rec, opTeardown, resp.Session, cyc, t2, "")
	ln.tornDown++
	rec.release(t3.Sub(t2))
}

// leaseMix is one cycle against a full ring: compose and commit a new
// lease (every 16th is abandoned uncommitted and left to the reaper),
// two heartbeats on random leases, every 8th cycle a recompose, and a
// teardown of the oldest lease to make room for the new one.
func (s *wireSystem) leaseMix(ln *wireLane, rec *recorder, r *request, cyc int32, t0 time.Time) {
	abandon := ln.cycles%16 == 0
	resp, t, ok := s.compose(ln, rec, r, cyc, t0)
	if ok {
		rec.admit(resp.Phi)
	}
	if ok && !abandon {
		t = s.sessionOp(ln, rec, opCommit, resp.Session, cyc, t, "")
		rec.composed(t.Sub(t0))
	} else if ok {
		rec.lifecycles++ // released by the reaper
	}
	n := len(ln.ring)
	for _, pick := range r.Picks[:2] {
		t = s.sessionOp(ln, rec, opHeartbeat, ln.ring[(ln.head+pick)%n], cyc, t, "")
	}
	if ln.cycles%8 == 0 {
		rec.walks++
		t = s.sessionOp(ln, rec, opRecompose, ln.ring[(ln.head+r.Picks[2])%n], cyc, t, server.CodeNoBetter)
	}
	if ok && !abandon {
		t1 := s.sessionOp(ln, rec, opTeardown, ln.ring[ln.head], cyc, t, "")
		ln.tornDown++
		rec.release(t1.Sub(t))
		ln.ring[ln.head] = resp.Session
		ln.head = (ln.head + 1) % n
	}
}

// drain releases every lease: connection 0 tears its leases down one by
// one and waits for the reaper to take its abandoned composes;
// connection 1 just disconnects and the server releases what it owned.
func (s *wireSystem) drain() error {
	for i, ln := range s.lanes {
		if i == 1 {
			before := s.cluster.ActiveSessions()
			t0 := time.Now()
			ln.cl.Close()
			ln.cl = nil
			if err := s.awaitSessions(before - len(ln.ring)); err != nil {
				return err
			}
			s.disconnectS = time.Since(t0).Seconds()
			s.disconnectCount = before - s.cluster.ActiveSessions()
			continue
		}
		for _, id := range ln.ring {
			resp, err := ln.cl.Teardown(id)
			if err != nil || !resp.OK {
				return fmt.Errorf("drain teardown %d: %v %+v", id, err, resp)
			}
			ln.tornDown++
		}
	}
	return s.awaitSessions(0)
}

// awaitSessions polls until the cluster holds at most want sessions.
// It watches the cluster, not the server's table: the server forgets a
// session before it counts and closes it.
func (s *wireSystem) awaitSessions(want int) error {
	deadline := time.Now().Add(5 * time.Second)
	for s.cluster.ActiveSessions() > want {
		if time.Now().After(deadline) {
			return fmt.Errorf("%d sessions still live 5 s into the drain, want %d", s.cluster.ActiveSessions(), want)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

// reaped reads the server's release counter for one reason.
func (s *wireSystem) reaped(reason string) int64 {
	return s.reg.CounterVec("server.reaped", "reason").With(reason).Value()
}

// verify checks the lease identity, that every lease was released
// exactly once by one of the three paths, and a pristine substrate.
func (s *wireSystem) verify() error {
	var admitted, tornDown int64
	for _, ln := range s.lanes {
		admitted += ln.admitted
		tornDown += ln.tornDown
	}
	disc, commitTO, hbTO := s.reaped("disconnect"), s.reaped("commit-timeout"), s.reaped("heartbeat-timeout")
	if tornDown+disc+commitTO != admitted || hbTO != 0 {
		return fmt.Errorf("lease identity broken: %d torn down + %d disconnect + %d commit-timeout != %d admitted (heartbeat-timeout %d)",
			tornDown, disc, commitTO, admitted, hbTO)
	}
	if n := s.srv.Sessions(); n != 0 {
		return fmt.Errorf("%d wire sessions after drain", n)
	}
	// The reaper forgets a session first and returns its resources to
	// the ledger a moment later, on its own goroutine.
	deadline := time.Now().Add(time.Second)
	for {
		err := pristine(s.cluster, len(s.lanes))
		if err == nil || time.Now().After(deadline) {
			return err
		}
		time.Sleep(time.Millisecond)
	}
}

func (s *wireSystem) close() {
	for _, ln := range s.lanes {
		if ln.cl != nil {
			ln.cl.Close()
			ln.cl = nil
		}
	}
	s.srv.Close()
	s.cluster.Shutdown()
}

// extra reports how long the server took per lease to release what the
// disconnected connection owned.
func (s *wireSystem) extra() map[string]float64 {
	return map[string]float64{"server.disconnect_release_us_per_session": ratio(s.disconnectS*1e6, float64(s.disconnectCount))}
}
