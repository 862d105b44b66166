package main

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/component"
	"repro/internal/dist"
	"repro/internal/harness/clock"
	"repro/internal/obs"
)

// distSession is one committed composition and the request it answers
// (Release needs both).
type distSession struct {
	req  *component.Request
	comp *dist.Composition
}

// distSystem steps an unstarted dist cluster from one goroutine: every
// message dispatch and timer fire happens here, in an order the seed
// fixes, so its counts repeat exactly.
type distSystem struct {
	sp      *spec
	cluster *dist.Cluster
	clk     *clock.Virtual
	holdTTL time.Duration
	st      *stream
	ring    []distSession
	head    int
	reqs    int32
	trace   bool

	// total counts what was stepped since build, classified from
	// StepNode's descriptions, and the virtual-clock work in between.
	total       counts
	mailboxPeak int

	idle recorder // takes what fill and drain would record
}

func distConfig(sp *spec, clk clock.Clock) dist.Config {
	cfg := dist.DefaultConfig()
	cfg.Seed = substrateSeed
	cfg.OverlayNodes = sp.overlay
	cfg.IPNodes = sp.ipNodes
	cfg.NumFunctions = sp.functions
	cfg.ComponentsPerNode = sp.perNode
	cfg.ProbingRatio = sp.alpha
	cfg.Clock = clk
	cfg.Registry = obs.NewRegistry()
	return cfg
}

func buildDist(sp *spec, p params, ep int) (system, error) {
	clk := clock.NewVirtual()
	cfg := distConfig(sp, clk)
	cluster, err := dist.NewUnstarted(cfg)
	if err != nil {
		return nil, err
	}
	return &distSystem{sp: sp, cluster: cluster, clk: clk, holdTTL: cfg.HoldTTL, st: newStream(sp, p.seed, ep, 0),
		ring: make([]distSession, 0, sp.ring), trace: p.trace}, nil
}

// counts: cProbes is probe messages stepped, the dist engine's probe
// transmissions (one per hop per probe).
func (s *distSystem) counts() counts { return s.total }

// step dispatches the message at the head of the lowest-numbered
// non-empty mailbox; false when every mailbox is empty.
func (s *distSystem) step(rec *recorder, cyc int32) bool {
	n := s.cluster.NumNodes()
	ready, depth := -1, 0
	for id := 0; id < n; id++ {
		if d := s.cluster.MailboxDepth(id); d > 0 {
			if ready < 0 {
				ready = id
				if !s.trace {
					break
				}
			}
			depth += d
		}
	}
	if ready < 0 {
		return false
	}
	var t0 time.Time
	if s.trace {
		t0 = time.Now()
	}
	desc, _ := s.cluster.StepNode(ready)
	c := &s.total
	if s.trace {
		t1 := time.Now()
		c[cStepWallNs] += float64(t1.Sub(t0))
		rec.spans.add(cyc, opStep, s.reqs, t0, t1)
		if depth > s.mailboxPeak {
			s.mailboxPeak = depth
		}
	}
	c[cSteps]++
	switch {
	case strings.HasPrefix(desc, "probe "):
		c[cProbes]++
	case strings.HasPrefix(desc, "return "):
		c[cReturns]++
	case strings.HasPrefix(desc, "state "):
		c[cStateUpdates]++
	case strings.HasPrefix(desc, "commit "), strings.HasPrefix(desc, "commit-ack "):
		c[cCommitMsgs]++
	case strings.HasPrefix(desc, "release "):
		c[cReleaseMsgs]++
	}
	return true
}

// quiesce steps until every mailbox is empty and, while done reports
// false, lets the virtual clock fire the next timer when idle.
func (s *distSystem) quiesce(rec *recorder, cyc int32, done func() bool) error {
	for {
		if s.step(rec, cyc) {
			continue
		}
		if done() {
			return nil
		}
		d, ok := s.clk.AdvanceToNext()
		if !ok {
			return fmt.Errorf("idle with no timer pending and the request undecided")
		}
		s.total[cAdvances]++
		s.total[cVirtualMs] += ms(d)
	}
}

// compose runs one request to its decision.
func (s *distSystem) compose(rec *recorder, cyc int32, r *request) (*component.Request, *dist.Composition, error) {
	req := r.component(0, r.Client)
	h, err := s.cluster.ComposeAsync(req)
	if err != nil {
		return nil, nil, err
	}
	var comp *dist.Composition
	var cerr error
	decided := false
	err = s.quiesce(rec, cyc, func() bool {
		if !decided {
			comp, cerr, decided = h.Poll()
		}
		return decided
	})
	if err != nil {
		return nil, nil, err
	}
	return req, comp, cerr
}

// release frees a session and steps its release messages out.
func (s *distSystem) release(rec *recorder, cyc int32, sess distSession) error {
	s.cluster.Release(sess.req, sess.comp)
	return s.quiesce(rec, cyc, func() bool { return true })
}

// fill commits the ring's sessions; a request the engine refuses (the
// holds of recent probes still stand) is skipped for the next.
func (s *distSystem) fill() error {
	for try := 0; len(s.ring) < s.sp.ring; try++ {
		if try == 2*s.sp.ring {
			return fmt.Errorf("ring of %d sessions does not fit the substrate", s.sp.ring)
		}
		r := s.st.next()
		req, comp, err := s.compose(&s.idle, 0, &r)
		if errors.Is(err, dist.ErrNoComposition) {
			continue
		}
		if err != nil {
			return err
		}
		s.ring = append(s.ring, distSession{req, comp})
	}
	return nil
}

func (s *distSystem) cycle(_ int, rec *recorder) {
	s.reqs++
	r := s.st.next()
	cyc := rec.spans.open(0)

	t0 := time.Now()
	rec.attempts++
	rec.walks++
	cmp := rec.spans.open(cyc) // the steps of the compose are its children
	req, comp, err := s.compose(rec, cmp, &r)
	t1 := time.Now()
	rec.spans.close(cmp, opCompose, s.reqs, t0, t1)
	switch {
	case errors.Is(err, dist.ErrNoComposition):
	case err != nil:
		rec.fail("compose: %v", err)
	default:
		if len(comp.Components) != len(r.Functions) {
			rec.fail("compose %v answered with %d components", r.Functions, len(comp.Components))
		}
		rec.admit(comp.Phi)
		rec.composed(t1.Sub(t0))
		old := s.ring[s.head]
		s.ring[s.head] = distSession{req, comp}
		s.head = (s.head + 1) % len(s.ring)
		rel := rec.spans.open(cyc)
		if err := s.release(rec, rel, old); err != nil {
			rec.fail("release: %v", err)
		}
		t2 := time.Now()
		rec.spans.close(rel, opRelease, s.reqs, t1, t2)
		rec.release(t2.Sub(t1))
	}
	rec.spans.close(cyc, opCycle, s.reqs, t0, time.Now())
}

func (s *distSystem) drain() error {
	for _, sess := range s.ring {
		if err := s.release(&s.idle, 0, sess); err != nil {
			return err
		}
	}
	s.ring = s.ring[:0]
	// Fire what timers are left (commit timeouts of decided requests),
	// then let the holds of the probes that lost their decision reach
	// their TTL and sweep them, as a started node's ticker would.
	for {
		if err := s.settle(); err != nil {
			return err
		}
		if _, ok := s.clk.AdvanceToNext(); !ok {
			break
		}
	}
	s.clk.Advance(s.holdTTL)
	for id := 0; id < s.cluster.NumNodes(); id++ {
		s.cluster.SweepNode(id)
	}
	return s.settle()
}

// settle steps until every mailbox is empty.
func (s *distSystem) settle() error {
	return s.quiesce(&s.idle, 0, func() bool { return true })
}

// verify checks that after the last release was stepped to quiescence
// no node holds or commits anything and every link is back at capacity.
func (s *distSystem) verify() error {
	for id := 0; id < s.cluster.NumNodes(); id++ {
		acc := s.cluster.NodeAccountingAt(id)
		if acc.Holds != 0 || len(acc.Commits) != 0 ||
			math.Abs(acc.Committed.CPU) > residualTolerance || math.Abs(acc.Committed.Memory) > residualTolerance {
			return fmt.Errorf("node %d after drain: %d holds, %d commits, committed %v", id, acc.Holds, len(acc.Commits), acc.Committed)
		}
	}
	avail, capacity := s.cluster.LinkAvailability()
	for i := range avail {
		if math.Abs(avail[i]-capacity[i]) > residualTolerance {
			return fmt.Errorf("link %d after drain: %v available of %v", i, avail[i], capacity[i])
		}
	}
	return nil
}

// close has nothing to stop: an unstarted cluster runs no goroutines.
func (s *distSystem) close() {}

// extra reports the deepest the mailboxes got (traced runs only).
func (s *distSystem) extra() map[string]float64 {
	return map[string]float64{"dist.mailbox_peak": float64(s.mailboxPeak)}
}
