// Package harness is the deterministic simulation-test subsystem for
// the distributed composition engine: FoundationDB-style seeded,
// virtually-clocked, single-threaded runs of internal/dist with
// invariant auditing at every step and a centralized model-based
// oracle (internal/core) checking admission parity and the exhaustive
// phi bound (Eq. 1).
//
// A simulation owns an unstarted cluster (no node goroutines) and a
// clock.Virtual. The scheduler repeatedly picks one node with a
// non-empty mailbox — seeded-randomly, so the interleaving is
// adversarial but replayable — and dispatches exactly one message on
// the driving goroutine. When every mailbox drains, the virtual clock
// jumps to the next pending timer (collection windows, commit
// timeouts, injected delivery delays, release backoff), whose callback
// refills mailboxes. When neither messages nor timers remain, the
// protocol is quiescent. Messages take zero virtual time, so under
// zero faults a deputy's collection window closes only after every
// probe completed — the exhaustive schedule the oracle assumes.
//
// Everything that happens — which node stepped, which message, every
// clock advance — lands in a step log. A failing seed reprints its
// log; re-running with the same seed replays the identical schedule
// bit for bit.
package harness

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/dist"
	"repro/internal/faults"
	"repro/internal/harness/clock"
)

// Sim drives one unstarted cluster deterministically.
type Sim struct {
	Cluster *dist.Cluster
	Clock   *clock.Virtual

	cfg      dist.Config
	rng      *rand.Rand
	outages  *faults.Injector // the crash schedule on Clock; nil without crashes
	books    *Books           // the last audit point's
	steps    int
	maxSteps int
	log      []string
}

// maxStepsDefault bounds a runaway schedule (a livelock would otherwise
// loop forever in virtual time).
const maxStepsDefault = 500_000

// NewSim builds an unstarted cluster on a fresh virtual clock and a
// seeded scheduler. schedSeed drives only the scheduler's choices;
// cfg.Seed keeps driving substrate generation and per-node rngs, and
// cfg.Faults.Seed the fault schedule, so the three randomness sources
// stay independently controllable.
func NewSim(cfg dist.Config, schedSeed int64) (*Sim, error) {
	vc := clock.NewVirtual()
	cfg.Clock = vc
	cluster, err := dist.NewUnstarted(cfg)
	if err != nil {
		return nil, err
	}
	s := &Sim{
		Cluster:  cluster,
		Clock:    vc,
		cfg:      cfg,
		rng:      rand.New(rand.NewSource(mix(schedSeed))),
		maxSteps: maxStepsDefault,
	}
	if cfg.Faults != nil {
		// The cluster's own injector is private; this one reads the same
		// schedule on the same clock from the same instant.
		if s.outages, err = faults.New(faults.Config{Crashes: cfg.Faults.Crashes, Clock: vc}); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// mix is the splitmix64 finaliser, decorrelating seeds that arrive in
// small consecutive ranges (0, 1, 2, ...).
func mix(seed int64) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

func (s *Sim) logf(format string, args ...interface{}) {
	s.log = append(s.log, fmt.Sprintf(format, args...))
}

// step dispatches one message on a seeded-randomly chosen node with a
// non-empty mailbox, then audits every per-step invariant. It returns
// false when all mailboxes are empty.
func (s *Sim) step() (bool, error) {
	ready := make([]int, 0, s.Cluster.NumNodes())
	for id := 0; id < s.Cluster.NumNodes(); id++ {
		if s.Cluster.MailboxDepth(id) > 0 {
			ready = append(ready, id)
		}
	}
	if len(ready) == 0 {
		return false, nil
	}
	id := ready[s.rng.Intn(len(ready))]
	desc, _ := s.Cluster.StepNode(id)
	s.steps++
	s.logf("step %d: node=%d %s", s.steps, id, desc)
	if err := s.audit(nil); err != nil {
		return true, fmt.Errorf("after step %d (node %d, %s): %w", s.steps, id, desc, err)
	}
	return true, nil
}

// RunToQuiescence processes messages and fires timers until neither
// remain: mailboxes are drained between timer fires, and the virtual
// clock jumps timer to timer. Invariants are audited after every
// dispatched message and every clock advance.
func (s *Sim) RunToQuiescence() error {
	for {
		if s.steps >= s.maxSteps {
			return fmt.Errorf("harness: no quiescence within %d steps (livelock?)", s.maxSteps)
		}
		progressed, err := s.step()
		if err != nil {
			return err
		}
		if progressed {
			continue
		}
		d, ok := s.Clock.AdvanceToNext()
		if !ok {
			return nil
		}
		s.logf("advance %v (t=%v)", d, s.Clock.Now().Sub(time.Unix(0, 0)))
		if err := s.audit(nil); err != nil {
			return fmt.Errorf("after advancing %v: %w", d, err)
		}
	}
}

// Settle ages out whatever quiescence left behind — orphaned transient
// holds and release tombstones — by advancing the clock a sweep period
// at a time and running every node's sweep pass, until nothing decays
// anymore (bounded by the TTL plus slack). Messages a sweep or timer
// surfaces are drained through the normal audited scheduler.
func (s *Sim) Settle() error {
	sweepEvery := s.cfg.SweepInterval
	if sweepEvery <= 0 {
		sweepEvery = s.cfg.HoldTTL / 4
	}
	rounds := int(s.cfg.HoldTTL/sweepEvery) + 3
	for i := 0; i < rounds; i++ {
		if s.leftovers() == 0 {
			return nil
		}
		s.Clock.Advance(sweepEvery)
		for id := 0; id < s.Cluster.NumNodes(); id++ {
			s.Cluster.SweepNode(id)
		}
		s.logf("settle: swept all nodes (t=%v)", s.Clock.Now().Sub(time.Unix(0, 0)))
		if err := s.RunToQuiescence(); err != nil {
			return err
		}
	}
	if n := s.leftovers(); n > 0 {
		return fmt.Errorf("harness: %d holds/tombstones survived %d sweep rounds", n, rounds)
	}
	return nil
}

// leftovers counts transient state still decaying across all nodes.
func (s *Sim) leftovers() int {
	total := 0
	for id := 0; id < s.Cluster.NumNodes(); id++ {
		acc := s.Cluster.NodeAccountingAt(id)
		total += acc.Holds + acc.Tombstones
	}
	return total
}
