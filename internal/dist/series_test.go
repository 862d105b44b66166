package dist

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/harness/clock"
	"repro/internal/obs"
)

// sessionFamilies are the per-session gauge families the dist engine
// exports, the names the runtime uses for its own.
var sessionFamilies = []string{"session.phi", "session.qos.observed", "session.qos.required"}

// sessionSeries renders the session families of one registry read as
// their /metrics.json rows and their Prometheus text.
func sessionSeries(t *testing.T, reg *obs.Registry, point string) string {
	t.Helper()
	snap := reg.Snapshot()
	only := obs.Snapshot{GaugeVecs: make(map[string]obs.VecSnapshot)}
	for _, name := range sessionFamilies {
		only.GaugeVecs[name] = snap.GaugeVecs[name]
	}
	rows, err := json.Marshal(only.GaugeVecs)
	if err != nil {
		t.Fatal(err)
	}
	var prom bytes.Buffer
	if err := obs.WritePrometheus(&prom, only); err != nil {
		t.Fatal(err)
	}
	return "== " + point + "\n" + string(rows) + "\n" + prom.String()
}

// TestSessionSeriesGolden pins the session families of a stepped run to
// testdata/session_series_golden.txt, written while the families were
// still stored registry children: scraped after commits, after a
// commit-ack timeout rolls a decided request back, after releases
// interleaved with new commits, and once every session is gone. Reading
// them from the engine's session table at scrape time must not move a
// byte. Regenerate (only for a deliberate format change) with
// ACP_WRITE_DIST_GOLDEN=1.
func TestSessionSeriesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the dist_stepped substrate")
	}
	reg := obs.NewRegistry()
	clk := clock.NewVirtual()
	cfg := steppedConfig(clk)
	cfg.Registry = reg
	c, err := NewUnstarted(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := &stepped{t: t, cluster: c, clk: clk}
	rng := rand.New(rand.NewSource(11))
	var live []steppedSession
	admit := func(k int) {
		for want := len(live) + k; len(live) < want; {
			req := steppedRequest(rng, cfg, 0.3)
			if comp := s.compose(req); comp != nil {
				live = append(live, steppedSession{req, comp})
			}
		}
	}
	release := func(i int) {
		s.release(live[i].req, live[i].comp)
		live = append(live[:i], live[i+1:]...)
	}
	var out strings.Builder

	admit(12)
	out.WriteString(sessionSeries(t, reg, "after 12 commits"))

	owner := s.timeOutCommit(rng)
	out.WriteString(sessionSeries(t, reg, "after the commit-ack timeout of request "+strconv.FormatInt(owner, 10)))

	release(3)
	release(7)
	admit(2)
	release(0)
	admit(1)
	release(len(live) - 2)
	out.WriteString(sessionSeries(t, reg, "after interleaved releases"))

	for len(live) > 0 {
		release(len(live) - 1)
	}
	out.WriteString(sessionSeries(t, reg, "after every release"))

	got := out.String()
	_, empty, _ := strings.Cut(got, "== after every release")
	if !strings.Contains(got, `session_phi{session="`) || strings.Contains(empty, `session="`) {
		t.Fatalf("the scenario pins no live or no empty session families:\n%s", got)
	}
	path := filepath.Join("testdata", "session_series_golden.txt")
	if os.Getenv("ACP_WRITE_DIST_GOLDEN") != "" {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with ACP_WRITE_DIST_GOLDEN=1): %v", err)
	}
	if got != string(want) {
		gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range gotLines {
			if i >= len(wantLines) || gotLines[i] != wantLines[i] {
				t.Fatalf("session series moved from the golden at line %d:\n got %s\nwant %s", i+1, gotLines[i], wantLines[min(i, len(wantLines)-1)])
			}
		}
		t.Fatalf("session series are %d lines, golden has %d", len(gotLines), len(wantLines))
	}
}

// timeOutCommit composes requests until one is decided with a commit
// still owed by another node, then lets its commit-ack timeout fire with
// only the deputy stepped, so the decided request rolls back. It returns
// the rolled-back request's ID, once its releases are stepped out.
func (s *stepped) timeOutCommit(rng *rand.Rand) int64 {
	c := s.cluster
	for {
		req := steppedRequest(rng, c.cfg, 0)
		h, err := c.ComposeAsync(req)
		if err != nil {
			s.t.Fatal(err)
		}
		decide := "decide req=" + strconv.FormatInt(h.ReqID, 10)
		for decided := false; !decided; {
			moved := false
			for id := 0; id < c.NumNodes() && !moved; id++ {
				var desc string
				desc, moved = c.StepNode(id)
				decided = desc == decide
			}
			if !moved {
				if _, ok := s.clk.AdvanceToNext(); !ok {
					s.t.Fatal("idle with no timer pending and the request undecided")
				}
			}
		}
		if _, _, done := h.Poll(); done {
			s.quiesce(func() bool { return true })
			continue // refused, or committed on the deputy alone
		}
		s.clk.Advance(c.cfg.CommitTimeout)
		var cerr error
		for done := false; !done; {
			if _, ok := c.StepNode(req.Client); !ok {
				s.t.Fatal("the deputy ran out of messages before its commit timed out")
			}
			_, cerr, done = h.Poll()
		}
		if !errors.Is(cerr, ErrNoComposition) {
			s.t.Fatalf("a request whose commit acks never came answered %v", cerr)
		}
		s.quiesce(func() bool { return true })
		return h.ReqID
	}
}

// TestSessionScrapeRaces: registry reads race the protocol on a started
// cluster. Snapshots, the Prometheus export and single-series Gets read
// the session families while callers compose and release; afterwards
// the table, and a scrape of it, hold exactly the sessions still live.
// CI runs it twenty times under the race detector.
func TestSessionScrapeRaces(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := DefaultConfig()
	cfg.Registry = reg
	c := virtualCluster(t, cfg)
	observed := reg.GaugeVec("session.qos.observed", "session")

	const callers, cycles, kept = 3, 40, 2
	var mu sync.Mutex
	var live []*Composition
	var callersDone, scrapers sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < callers; w++ {
		callersDone.Add(1)
		go func(w int) {
			defer callersDone.Done()
			var mine []*Composition
			for i := 0; i < cycles; i++ {
				req := easyRequest((w*7 + i) % c.NumNodes())
				comp, err := c.Compose(req)
				if errors.Is(err, ErrNoComposition) {
					continue
				}
				if err != nil {
					t.Error(err)
					return
				}
				if mine = append(mine, comp); len(mine) > kept {
					c.Release(req, mine[0])
					mine = mine[1:]
				}
			}
			mu.Lock()
			live = append(live, mine...)
			mu.Unlock()
		}(w)
	}
	for _, read := range []func(){
		func() { reg.Snapshot() },
		func() { obs.WritePrometheus(io.Discard, reg.Snapshot()) },
		func() {
			for _, labels := range observed.LabelValues() {
				observed.Get(labels...) // may be gone by now
			}
		},
	} {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					read()
				}
			}
		}()
	}
	callersDone.Wait()
	close(stop)
	scrapers.Wait()

	var want, table []int64
	for _, comp := range live {
		want = append(want, comp.Owner())
	}
	c.sessions.mu.Lock()
	for _, r := range c.sessions.rows {
		table = append(table, r.owner)
	}
	c.sessions.mu.Unlock()
	slices.Sort(want)
	slices.Sort(table)
	if len(want) == 0 || !slices.Equal(table, want) {
		t.Fatalf("session table holds %v, live sessions are %v", table, want)
	}
	var scraped []int64
	for _, v := range reg.Snapshot().GaugeVecs["session.phi"].Values {
		owner, err := strconv.ParseInt(v.Labels[0], 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		scraped = append(scraped, owner)
	}
	slices.Sort(scraped)
	if !slices.Equal(scraped, want) {
		t.Fatalf("a scrape reads sessions %v, live sessions are %v", scraped, want)
	}
}
