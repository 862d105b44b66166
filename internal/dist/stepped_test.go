package dist

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/component"
	"repro/internal/harness/clock"
	"repro/internal/qos"
)

// steppedGoldenPath pins every decision of the stepped engine, the
// counterpart of core's parity_golden.json: one line per request with the
// admission, the chosen components, phi and the accumulated delay at
// %.17g (exact bits) and the probe messages stepped. It uses only the
// exported simulation surface, so the identical file runs against an
// older engine. Regenerate with ACP_WRITE_DIST_GOLDEN=1, and only when a
// deliberate behaviour change is being landed.
const steppedGoldenPath = "testdata/stepped_golden.txt"

// stepped drives an unstarted cluster from one goroutine on a virtual
// clock, as bench/diststep.go does: the message at the head of the
// lowest-numbered non-empty mailbox is dispatched next, and the clock
// fires its next timer only when every mailbox is empty.
type stepped struct {
	t       testing.TB
	cluster *Cluster
	clk     *clock.Virtual
	probes  int // probe messages stepped since the last reset
	// before, when set, sees the cluster and the node about to step.
	before func(c *Cluster, node int)
}

// steppedConfig is the dist_stepped substrate of the repo benchmark.
func steppedConfig(clk clock.Clock) Config {
	cfg := DefaultConfig()
	cfg.Seed = 1
	cfg.OverlayNodes = 64
	cfg.IPNodes = 3200
	cfg.NumFunctions = 16
	cfg.ComponentsPerNode = 2
	cfg.ProbingRatio = 0.5
	cfg.Clock = clk
	return cfg
}

func newStepped(t *testing.T) *stepped {
	t.Helper()
	clk := clock.NewVirtual()
	c, err := NewUnstarted(steppedConfig(clk))
	if err != nil {
		t.Fatal(err)
	}
	return &stepped{t: t, cluster: c, clk: clk}
}

func (s *stepped) step() bool {
	for id := 0; id < s.cluster.NumNodes(); id++ {
		if s.cluster.MailboxDepth(id) == 0 {
			continue
		}
		if s.before != nil {
			s.before(s.cluster, id)
		}
		desc, _ := s.cluster.StepNode(id)
		if strings.HasPrefix(desc, "probe ") {
			s.probes++
		}
		return true
	}
	return false
}

// quiesce steps until every mailbox is empty and done reports true,
// letting the clock fire the next timer whenever the network is idle.
func (s *stepped) quiesce(done func() bool) {
	for {
		if s.step() {
			continue
		}
		if done() {
			return
		}
		if _, ok := s.clk.AdvanceToNext(); !ok {
			s.t.Fatal("idle with no timer pending and the request undecided")
		}
	}
}

// compose runs one request to its decision; comp is nil when refused.
func (s *stepped) compose(req *component.Request) *Composition {
	h, err := s.cluster.ComposeAsync(req)
	if err != nil {
		s.t.Fatal(err)
	}
	var (
		comp    *Composition
		cerr    error
		decided bool
	)
	s.quiesce(func() bool {
		if !decided {
			comp, cerr, decided = h.Poll()
		}
		return decided
	})
	if cerr != nil && !errors.Is(cerr, ErrNoComposition) {
		s.t.Fatal(cerr)
	}
	return comp
}

func (s *stepped) release(req *component.Request, comp *Composition) {
	s.cluster.Release(req, comp)
	s.quiesce(func() bool { return true })
}

// sweepExpired lets every transient hold reach its TTL and sweeps it, so
// the next request meets committed state only.
func (s *stepped) sweepExpired() {
	s.clk.Advance(s.cluster.cfg.HoldTTL)
	for id := 0; id < s.cluster.NumNodes(); id++ {
		s.cluster.SweepNode(id)
	}
	s.quiesce(func() bool { return true })
}

// steppedRequest draws a 2-4-function path or, with the given share, a
// two-branch DAG of five positions, with the benchmark's demand ranges
// and a QoS bound loose enough that resources decide admission.
func steppedRequest(rng *rand.Rand, cfg Config, dagShare float64) *component.Request {
	n := 2 + rng.Intn(3)
	dag := rng.Float64() < dagShare
	if dag {
		n = 5
	}
	perm := rng.Perm(cfg.NumFunctions)
	fns := make([]component.FunctionID, n)
	for i := range fns {
		fns[i] = component.FunctionID(perm[i])
	}
	graph := component.NewPathGraph(fns)
	if dag {
		b1, b2 := fns[1:2], fns[2:4]
		if rng.Intn(2) == 0 {
			b1, b2 = fns[1:3], fns[3:4]
		}
		var err error
		if graph, err = component.NewBranchGraph(fns[0], b1, b2, fns[4]); err != nil {
			panic(err) // branches are non-empty by construction
		}
	}
	res := qos.Resources{CPU: 2 + rng.Float64()*6, Memory: 20 + rng.Float64()*40}
	req := &component.Request{
		Graph:        graph,
		QoSReq:       qos.Vector{Delay: 1e5, LossCost: qos.LossCost(0.9)},
		ResReq:       make([]qos.Resources, n),
		BandwidthReq: 20 + rng.Float64()*40,
		Client:       rng.Intn(cfg.OverlayNodes),
		Duration:     time.Hour,
	}
	for i := range req.ResReq {
		req.ResReq[i] = res
	}
	return req
}

// steppedFingerprint replays one seed's request stream over a ring of
// live sessions: an admitted composition joins the ring and, once the
// ring is full, the oldest session is released.
func steppedFingerprint(t *testing.T, seed int64) []string {
	const (
		requests = 900
		ring     = 150
		dagShare = 0.3
	)
	type session struct {
		req  *component.Request
		comp *Composition
	}
	s := newStepped(t)
	rng := rand.New(rand.NewSource(seed))
	live := make([]session, 0, ring)
	head := 0
	lines := make([]string, 0, requests)
	for i := 1; i <= requests; i++ {
		req := steppedRequest(rng, s.cluster.cfg, dagShare)
		s.probes = 0
		comp := s.compose(req)
		if comp == nil {
			lines = append(lines, fmt.Sprintf("seed=%d req=%d refuse probes=%d", seed, i, s.probes))
			continue
		}
		lines = append(lines, fmt.Sprintf("seed=%d req=%d admit comps=%v phi=%.17g delay=%.17g probes=%d",
			seed, i, comp.Components, comp.Phi, comp.QoS.Delay, s.probes))
		if len(live) < ring {
			live = append(live, session{req, comp})
			continue
		}
		old := live[head]
		live[head] = session{req, comp}
		head = (head + 1) % ring
		s.release(old.req, old.comp)
	}
	return lines
}

// TestSteppedDecisionGolden replays three request streams against the
// pinned decisions. Any drift — an admission, a component, a phi bit, a
// probe message — fails with the first diverging line.
func TestSteppedDecisionGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("stepped golden sweep takes seconds; skipped in -short")
	}
	var got []string
	for seed := int64(1); seed <= 3; seed++ {
		got = append(got, steppedFingerprint(t, seed)...)
	}

	if os.Getenv("ACP_WRITE_DIST_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(steppedGoldenPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", steppedGoldenPath)
		return
	}

	f, err := os.Open(steppedGoldenPath)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with ACP_WRITE_DIST_GOLDEN=1): %v", err)
	}
	defer f.Close()
	var want []string
	for sc := bufio.NewScanner(f); sc.Scan(); {
		want = append(want, sc.Text())
	}
	if len(want) != len(got) {
		t.Fatalf("%d decisions, golden has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("decision %d diverged:\n golden: %s\n    got: %s", i, want[i], got[i])
		}
	}
}
