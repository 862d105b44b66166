package dist

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/harness/clock"
	"repro/internal/obs"
	"repro/internal/qos"
)

func TestFaultConfigValidation(t *testing.T) {
	for name, mutate := range map[string]func(*Config){
		"negative commit timeout":   func(c *Config) { c.CommitTimeout = -time.Second },
		"negative retry budget":     func(c *Config) { c.ComposeRetries = -1 },
		"negative retry backoff":    func(c *Config) { c.RetryBackoff = -time.Millisecond },
		"negative retry alpha step": func(c *Config) { c.RetryAlphaStep = -0.1 },
		"invalid fault config":      func(c *Config) { c.Faults = &faults.Config{DropProb: 2} },
	} {
		cfg := DefaultConfig()
		mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("%s accepted", name)
		}
	}

	// Zero commit timeout defaults rather than meaning "no timeout".
	cfg := DefaultConfig()
	cfg.CommitTimeout = 0
	c, err := build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.cfg.CommitTimeout != time.Second {
		t.Errorf("zero CommitTimeout defaulted to %v, want 1s", c.cfg.CommitTimeout)
	}
	// A fault config that injects nothing leaves the injector nil — the
	// send path is then exactly the non-injected one.
	cfg = DefaultConfig()
	cfg.Faults = &faults.Config{Seed: 99}
	if c, err = build(cfg); err != nil {
		t.Fatal(err)
	}
	if c.faults != nil {
		t.Error("no-op fault config produced a live injector")
	}
}

// TestFaultDisabledParity: with fault injection disabled the engine must
// behave exactly as it did before the fault subsystem existed — same
// composition outcome, same probe traffic, zero fault counters.
func TestFaultDisabledParity(t *testing.T) {
	run := func(fcfg *faults.Config) (comp *Composition, snap obs.Snapshot) {
		reg := obs.NewRegistry()
		cfg := DefaultConfig()
		cfg.Registry = reg
		cfg.Faults = fcfg
		c := virtualCluster(t, cfg)
		comp, err := c.Compose(easyRequest(3))
		if err != nil {
			t.Fatal(err)
		}
		c.Release(easyRequest(3), comp)
		return comp, reg.Snapshot()
	}

	compA, snapA := run(nil)
	compB, snapB := run(&faults.Config{}) // zero config: injects nothing

	if len(compA.Components) != len(compB.Components) || compA.Phi != compB.Phi {
		t.Errorf("fault-free config changed the outcome: phi %v vs %v", compA.Phi, compB.Phi)
	}
	for _, key := range []string{"dist.probes.sent", "dist.probes.returned", "dist.probes.dropped", "dist.commits"} {
		if snapA.Counters[key] != snapB.Counters[key] {
			t.Errorf("%s = %d with nil faults, %d with zero-config faults",
				key, snapA.Counters[key], snapB.Counters[key])
		}
	}
	for _, snap := range []obs.Snapshot{snapA, snapB} {
		for _, key := range []string{
			"dist.faults.dropped", "dist.faults.delayed", "dist.faults.duplicated",
			"dist.node.crashes", "dist.node.restarts", "dist.compose.retries",
		} {
			if snap.Counters[key] != 0 {
				t.Errorf("%s = %d with faults disabled, want 0", key, snap.Counters[key])
			}
		}
	}
}

// TestFaultDisabledSendZeroAlloc guards the acceptance bound on the
// disabled path: deliver() costs one nil check and zero allocations.
func TestFaultDisabledSendZeroAlloc(t *testing.T) {
	c, err := build(DefaultConfig()) // unstarted: sends just queue
	if err != nil {
		t.Fatal(err)
	}
	msg := message{kind: msgState, node: 1, amount: qos.Resources{CPU: 1}}
	allocs := testing.AllocsPerRun(500, func() {
		c.deliver(2, &msg, faults.KindState)
	})
	if allocs != 0 {
		t.Errorf("disabled deliver allocates %.1f per send, want 0", allocs)
	}
}

func BenchmarkFaultDisabledDeliver(b *testing.B) {
	c, err := build(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	msg := message{kind: msgState, node: 1, amount: qos.Resources{CPU: 1}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.deliver(2, &msg, faults.KindState)
	}
}

// TestFaultCommitNackOnFullMailbox is the regression for the lost
// self-nack bug: when a participant's mailbox is full at commit time,
// the deputy used to bounce the nack through its *own* mailbox with a
// non-blocking send — if that was full too, the nack vanished and the
// request stalled until the commit timeout. The nack is now recorded
// inline, so the rollback happens immediately even with both mailboxes
// full.
func TestFaultCommitNackOnFullMailbox(t *testing.T) {
	c, err := build(DefaultConfig()) // unstarted: we drive dispatch by hand
	if err != nil {
		t.Fatal(err)
	}
	deputy, peer := c.nodes[0], c.nodes[1]
	for peer.send(&message{kind: msgState}) {
	}
	for deputy.send(&message{kind: msgState}) { // the old self-nack had nowhere to go
	}

	const reqID = int64(42)
	reply := make(chan composeReply, 1)
	p := &request{
		reply: reply,
		comp:  &Composition{owner: reqID, parts: []participant{{node: peer.id, amount: qos.Resources{CPU: 1}}}},
	}
	deputy.pending[reqID] = p
	deputy.startCommit(reqID, p)

	select {
	case out := <-reply:
		if !errors.Is(out.err, ErrNoComposition) {
			t.Fatalf("reply err = %v, want ErrNoComposition", out.err)
		}
	default:
		t.Fatal("full participant mailbox did not roll the commit back inline")
	}
	if len(deputy.pending) != 0 {
		t.Error("rolled-back request still pending")
	}
}

// TestFaultCommitTimeoutConfigured: the commit-ack deadline comes from
// Config.CommitTimeout (it was hard-coded to one second).
func TestFaultCommitTimeoutConfigured(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CommitTimeout = 30 * time.Millisecond
	c, err := build(cfg) // unstarted: the silent peer never acks
	if err != nil {
		t.Fatal(err)
	}
	deputy, peer := c.nodes[0], c.nodes[1]

	const reqID = int64(7)
	reply := make(chan composeReply, 1)
	p := &request{
		reply: reply,
		comp:  &Composition{owner: reqID, parts: []participant{{node: peer.id, amount: qos.Resources{CPU: 1}}}},
	}
	deputy.pending[reqID] = p
	start := time.Now()
	deputy.startCommit(reqID, p)

	select {
	case <-deputy.mailbox.wake:
		elapsed := time.Since(start)
		var m message
		deputy.mailbox.pop(&m)
		if m.kind != msgCommitTimeout {
			t.Fatalf("unexpected deputy message %q", m.describe())
		}
		if elapsed < 25*time.Millisecond || elapsed > 800*time.Millisecond {
			t.Errorf("commit timeout fired after %v, configured 30ms (old hard-coded value was 1s)", elapsed)
		}
		deputy.dispatch(&m)
	case <-time.After(2 * time.Second):
		t.Fatal("commit timeout never fired")
	}
	select {
	case out := <-reply:
		if !errors.Is(out.err, ErrNoComposition) {
			t.Fatalf("reply err = %v, want ErrNoComposition", out.err)
		}
	default:
		t.Fatal("commit timeout did not resolve the request")
	}
}

// faultWorkload runs concurrent compose/release cycles and requires
// every request to complete — success or clean ErrNoComposition — then
// proves full recovery: all resources return to capacity, no probe span
// leaks, no goroutine leaks.
func faultWorkload(t *testing.T, cfg Config, workers, perWorker int) (successes int64, snap obs.Snapshot) {
	t.Helper()
	baseline := runtime.NumGoroutine()
	sink := &obs.MemorySink{}
	reg := obs.NewRegistry()
	cfg.Tracer = obs.New(sink)
	cfg.Registry = reg
	c := virtualCluster(t, cfg)

	var wg sync.WaitGroup
	var mu sync.Mutex
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				req := easyRequest((w*5 + i) % c.NumNodes())
				comp, err := c.Compose(req)
				if err != nil {
					if !errors.Is(err, ErrNoComposition) {
						t.Errorf("worker %d request %d: %v", w, i, err)
					}
					continue
				}
				mu.Lock()
				successes++
				mu.Unlock()
				c.Release(req, comp)
			}
		}(w)
	}
	wg.Wait() // every request completed (no hangs) or the test times out

	if !c.idleAfter(10 * time.Second) {
		t.Error("resources did not return to capacity: leaked holds or commits")
	}

	if leaked := obs.LeakedSpans(sink.Events()); len(leaked) != 0 {
		t.Errorf("%d probe spans leaked: %v", len(leaked), leaked)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline+3 {
		if time.Now().After(deadline) {
			t.Errorf("goroutines leaked: %d running, baseline %d", runtime.NumGoroutine(), baseline)
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	return successes, reg.Snapshot()
}

// TestFaultLossRecovery drives the cluster through 20% message loss
// plus delay jitter and duplication — the acceptance workload. Requires
// nonzero successes: retries with a widened probing ratio must get
// requests through the lossy rounds.
func TestFaultLossRecovery(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CollectTimeout = 25 * time.Millisecond
	cfg.HoldTTL = 250 * time.Millisecond
	cfg.SweepInterval = 50 * time.Millisecond
	cfg.CommitTimeout = 100 * time.Millisecond
	cfg.ComposeRetries = 3
	cfg.RetryBackoff = 5 * time.Millisecond
	cfg.Faults = &faults.Config{
		Seed:     11,
		DropProb: 0.20,
		DupProb:  0.05,
		MaxDelay: 2 * time.Millisecond,
	}
	successes, snap := faultWorkload(t, cfg, 8, 6)
	if successes == 0 {
		t.Error("no request succeeded under 20% loss; retries should get some through")
	}
	if snap.Counters["dist.faults.dropped"] == 0 {
		t.Error("injector never dropped a message at 20% loss")
	}
	t.Logf("successes=%d/48 dropped=%d retries=%d holdsSwept=%d",
		successes, snap.Counters["dist.faults.dropped"],
		snap.Counters["dist.compose.retries"], snap.Counters["dist.holds.swept"])
}

// TestFaultDuplicationIdempotent: with every message delivered twice the
// commit/ack/hold machinery must stay idempotent — no double commits, no
// leaked resources.
func TestFaultDuplicationIdempotent(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CollectTimeout = 25 * time.Millisecond
	cfg.HoldTTL = 250 * time.Millisecond
	cfg.SweepInterval = 50 * time.Millisecond
	cfg.CommitTimeout = 100 * time.Millisecond
	cfg.Faults = &faults.Config{Seed: 5, DupProb: 1}
	successes, snap := faultWorkload(t, cfg, 4, 5)
	if successes == 0 {
		t.Error("duplication alone should not prevent success")
	}
	if snap.Counters["dist.faults.duplicated"] == 0 {
		t.Error("injector never duplicated a message at DupProb=1")
	}
}

// TestFaultCrashRecovery schedules node outages across the run: requests
// toward down nodes fail fast (and may retry past the outage), crashed
// deputies roll back cleanly, and restarts rejoin the protocol.
func TestFaultCrashRecovery(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CollectTimeout = 25 * time.Millisecond
	cfg.HoldTTL = 250 * time.Millisecond
	cfg.SweepInterval = 20 * time.Millisecond
	cfg.CommitTimeout = 100 * time.Millisecond
	cfg.ComposeRetries = 3
	cfg.RetryBackoff = 40 * time.Millisecond // retries can outlive the outage
	cfg.Faults = &faults.Config{
		Seed: 17,
		Crashes: []faults.Crash{
			{Node: 1, At: 0, Downtime: 200 * time.Millisecond},
			{Node: 2, At: 0, Downtime: 200 * time.Millisecond},
			{Node: 3, At: 50 * time.Millisecond, Downtime: 200 * time.Millisecond},
		},
	}
	successes, snap := faultWorkload(t, cfg, 6, 5)
	if successes == 0 {
		t.Error("no request succeeded around the outages")
	}
	if snap.Counters["dist.node.crashes"] == 0 {
		t.Error("scheduled outages never observed")
	}
	t.Logf("successes=%d/30 crashes=%d restarts=%d",
		successes, snap.Counters["dist.node.crashes"], snap.Counters["dist.node.restarts"])
}

// TestCrashFailsPendingInIDOrder: a crashing deputy fails the requests it
// holds, which sit in a map, in request-ID order; in map order the replies
// and rollback releases would go out in a new order on every run. The
// tracer's Decided events show the order.
func TestCrashFailsPendingInIDOrder(t *testing.T) {
	sink := &obs.MemorySink{}
	vc := clock.NewVirtual()
	cfg := DefaultConfig()
	cfg.Clock = vc
	cfg.Tracer = obs.New(sink)
	cfg.Faults = &faults.Config{Seed: 1, Crashes: []faults.Crash{{Node: 0, At: time.Second, Downtime: time.Minute}}}
	c, err := NewUnstarted(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var want, got []int64
	for i := 0; i < 16; i++ {
		h, err := c.ComposeAsync(easyRequest(0))
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, h.ReqID)
	}
	for { // node 0 takes every request; no other node answers its probes
		if _, ok := c.StepNode(0); !ok {
			break
		}
	}
	vc.Advance(2 * time.Second)
	c.SweepNode(0) // the crash
	for _, e := range sink.Events() {
		if e.Type == obs.EventDecided && e.Reason == obs.ReasonNodeDown {
			got = append(got, e.Req)
		}
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("crash failed requests %v, want ID order %v", got, want)
	}
}

// TestFaultRetryWidensAlpha: the retry path re-probes with a larger
// probing ratio (§3.6), observable as retry events carrying increasing
// attempt numbers when every probe is dropped.
func TestFaultRetryWidensAlpha(t *testing.T) {
	sink := &obs.MemorySink{}
	reg := obs.NewRegistry()
	cfg := DefaultConfig()
	cfg.CollectTimeout = 10 * time.Millisecond
	cfg.ComposeRetries = 2
	cfg.RetryBackoff = time.Millisecond
	cfg.Tracer = obs.New(sink)
	cfg.Registry = reg
	cfg.Faults = &faults.Config{Seed: 1, DropProb: 1} // nothing gets through
	c := virtualCluster(t, cfg)

	if _, err := c.Compose(easyRequest(0)); !errors.Is(err, ErrNoComposition) {
		t.Fatalf("err = %v, want ErrNoComposition", err)
	}
	if got := reg.Snapshot().Counters["dist.compose.retries"]; got != 2 {
		t.Errorf("dist.compose.retries = %d, want 2", got)
	}
	var attempts []int
	for _, e := range sink.Events() {
		if e.Type == obs.EventComposeRetried {
			attempts = append(attempts, e.Count)
		}
	}
	if fmt.Sprint(attempts) != "[1 2]" {
		t.Errorf("retry attempts = %v, want [1 2]", attempts)
	}
}
