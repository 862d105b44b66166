package main

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/obs"
	"repro/internal/runtime"
)

// walkLane is one direct caller of FindApp/Close and its live sessions.
type walkLane struct {
	st   *stream
	ring []runtime.SessionID // oldest at head
	head int
	reqs int32
}

type walkSystem struct {
	sp      *spec
	cluster *runtime.Cluster
	lanes   []*walkLane
}

func buildWalk(sp *spec, p params, ep, lanes int) (system, error) {
	cluster, err := newCluster(sp, obs.NewRegistry())
	if err != nil {
		return nil, err
	}
	s := &walkSystem{sp: sp, cluster: cluster}
	for lane := 0; lane < lanes; lane++ {
		s.lanes = append(s.lanes, &walkLane{st: newStream(sp, p.seed, ep, lane), ring: make([]runtime.SessionID, 0, sp.ring)})
	}
	return s, nil
}

func (s *walkSystem) counts() counts { return clusterCounts(s.cluster) }

// fill admits the ring's sessions, alternating lanes from one goroutine
// so that the starting state is the same for a given seed. Close to
// full, a request may be refused; the lane then draws its next.
func (s *walkSystem) fill() error {
	for try := 0; try < 2*s.sp.ring; try++ {
		full := true
		for lane, ln := range s.lanes {
			if len(ln.ring) == s.sp.ring {
				continue
			}
			full = false
			r := ln.st.next()
			id, err := s.cluster.FindApp(r.find(tenant(lane)))
			if errors.Is(err, runtime.ErrNoComposition) {
				continue
			}
			if err != nil {
				return err
			}
			ln.ring = append(ln.ring, id)
		}
		if full {
			return nil
		}
	}
	return fmt.Errorf("ring of %d sessions per lane does not fit the substrate", s.sp.ring)
}

// cycle asks for one composition against the full ring; when admitted
// it replaces the lane's oldest session, which is closed. A refusal
// (the cluster is nearly full) leaves the ring as it is.
func (s *walkSystem) cycle(lane int, rec *recorder) {
	ln := s.lanes[lane]
	ln.reqs++
	r := ln.st.next()
	cyc := rec.spans.open(0)
	fr := r.find(tenant(lane))

	t0 := time.Now()
	rec.attempts++
	rec.walks++
	id, err := s.cluster.FindApp(fr)
	t1 := time.Now()
	rec.spans.add(cyc, opFindApp, ln.reqs, t0, t1)
	switch {
	case errors.Is(err, runtime.ErrNoComposition):
	case err != nil:
		rec.fail("findapp: %v", err)
	default:
		comp, derr := s.cluster.Describe(id)
		t2 := time.Now()
		rec.spans.add(cyc, opDescribe, ln.reqs, t1, t2)
		if derr != nil || !describedAsAsked(&r, comp) {
			rec.fail("findapp %v described as %+v (%v)", r.Functions, comp, derr)
		}
		rec.admit(comp.Phi)
		rec.composed(t1.Sub(t0))

		old := ln.ring[ln.head]
		ln.ring[ln.head] = id
		ln.head = (ln.head + 1) % len(ln.ring)
		if err := s.cluster.Close(old); err != nil {
			rec.fail("close: %v", err)
		}
		t3 := time.Now()
		rec.spans.add(cyc, opClose, ln.reqs, t2, t3)
		rec.release(t3.Sub(t2))
	}
	rec.spans.close(cyc, opCycle, ln.reqs, t0, time.Now())
}

// describedAsAsked checks one component per function, in position order.
func describedAsAsked(r *request, comp runtime.Composition) bool {
	if len(comp.Components) != len(r.Functions) {
		return false
	}
	for i, pc := range comp.Components {
		if pc.Position != i || int(pc.Function) != r.Functions[i] {
			return false
		}
	}
	return true
}

func (s *walkSystem) drain() error {
	for _, ln := range s.lanes {
		for _, id := range ln.ring {
			if err := s.cluster.Close(id); err != nil {
				return err
			}
		}
		ln.ring = ln.ring[:0]
	}
	return nil
}

func (s *walkSystem) verify() error { return pristine(s.cluster, len(s.lanes)) }

func (s *walkSystem) close() { s.cluster.Shutdown() }

// residualTolerance absorbs the float dust of summing and subtracting
// thousands of demands on one node or link (capacities are 100..1e5).
const residualTolerance = 1e-6

// pristine checks a drained cluster: invariants hold, no session is
// live, every node and link residual equals its capacity and every
// tenant's usage is zero.
func pristine(c *runtime.Cluster, tenants int) error {
	if err := c.CheckInvariants(); err != nil {
		return err
	}
	if n := c.ActiveSessions(); n != 0 {
		return fmt.Errorf("%d sessions live after drain", n)
	}
	for node := 0; node < c.NumNodes(); node++ {
		res, capacity := c.NodeResidual(node), c.NodeCapacity(node)
		if math.Abs(res.CPU-capacity.CPU) > residualTolerance || math.Abs(res.Memory-capacity.Memory) > residualTolerance {
			return fmt.Errorf("node %d residual %v after drain, capacity %v", node, res, capacity)
		}
	}
	for link := 0; link < c.NumLinks(); link++ {
		if res, capacity := c.LinkResidual(link), c.Mesh().Link(link).Capacity; math.Abs(res-capacity) > residualTolerance {
			return fmt.Errorf("link %d residual %v after drain, capacity %v", link, res, capacity)
		}
	}
	for lane := 0; lane < tenants; lane++ {
		u := c.TenantUsageFor(tenant(lane))
		if u.Sessions != 0 || math.Abs(u.CPU) > 1e-9 || math.Abs(u.Memory) > 1e-9 || math.Abs(u.BandwidthKbps) > 1e-9 {
			return fmt.Errorf("tenant %s usage %+v after drain", tenant(lane), u)
		}
	}
	return nil
}
