package state

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/overlay"
	"repro/internal/qos"
	"repro/internal/topology"
)

func benchLedger(b *testing.B) (*Ledger, *clock) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	tcfg := topology.DefaultConfig()
	tcfg.Nodes = 800
	g, err := topology.Generate(tcfg, rng)
	if err != nil {
		b.Fatal(err)
	}
	ocfg := overlay.DefaultConfig()
	ocfg.Nodes = 100
	mesh, err := overlay.Build(g, ocfg, rng)
	if err != nil {
		b.Fatal(err)
	}
	clk := &clock{}
	return NewLedger(mesh, qos.Resources{CPU: 100, Memory: 1000}, clk.Now), clk
}

// BenchmarkHoldRelease measures the transient allocation cycle — the
// hottest ledger path during probing.
func BenchmarkHoldRelease(b *testing.B) {
	l, _ := benchLedger(b)
	req := qos.Resources{CPU: 10, Memory: 100}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		owner := Owner(i)
		node := i % l.NumNodes()
		if !l.HoldNode(owner, 0, node, req, time.Hour) {
			b.Fatal("hold rejected")
		}
		l.ReleaseOwner(owner)
	}
}

// BenchmarkHoldReleaseLink is BenchmarkHoldRelease on overlay links.
func BenchmarkHoldReleaseLink(b *testing.B) {
	l, _ := benchLedger(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		owner := Owner(i)
		if !l.HoldLink(owner, 0, i%l.NumLinks(), 1, time.Hour) {
			b.Fatal("hold rejected")
		}
		l.ReleaseOwner(owner)
	}
}

// BenchmarkHoldReleaseNodeHold and BenchmarkHoldReleaseLinkHold are the
// pairs the benchmark ladder times as state.hold_node_ns and
// state.hold_link_ns: one hold and its targeted release.
func BenchmarkHoldReleaseNodeHold(b *testing.B) {
	l, _ := benchLedger(b)
	req := qos.Resources{CPU: 1e-3, Memory: 1e-3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		node := i % l.NumNodes()
		l.HoldNode(Owner(i), 0, node, req, time.Hour)
		l.ReleaseNodeHold(Owner(i), 0, node)
	}
}

func BenchmarkHoldReleaseLinkHold(b *testing.B) {
	l, _ := benchLedger(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		link := i % l.NumLinks()
		l.HoldLink(Owner(i), 0, link, 1e-3, time.Hour)
		l.ReleaseLinkHold(Owner(i), 0, link)
	}
}

// BenchmarkNodeAvailableForAt measures the precise local-state read a
// probe walk makes on first touch of a node, on a ledger where some
// nodes carry holds of the reader and of others.
func BenchmarkNodeAvailableForAt(b *testing.B) {
	l, _ := benchLedger(b)
	for i := 0; i < 50; i++ {
		l.HoldNode(Owner(i%5), i, i%l.NumNodes(), qos.Resources{CPU: 1, Memory: 1}, time.Hour)
	}
	b.ResetTimer()
	sink := 0.0
	for i := 0; i < b.N; i++ {
		sink += l.NodeAvailableForAt(0, 1, i%l.NumNodes()).CPU
	}
	_ = sink
}

// BenchmarkLinkAvailableForAt is BenchmarkNodeAvailableForAt for overlay
// links.
func BenchmarkLinkAvailableForAt(b *testing.B) {
	l, _ := benchLedger(b)
	for i := 0; i < 50; i++ {
		l.HoldLink(Owner(i%5), i, i%l.NumLinks(), 1, time.Hour)
	}
	b.ResetTimer()
	sink := 0.0
	for i := 0; i < b.N; i++ {
		sink += l.LinkAvailableForAt(0, 1, i%l.NumLinks())
	}
	_ = sink
}

// BenchmarkCommitRelease measures the session lifecycle.
func BenchmarkCommitRelease(b *testing.B) {
	l, _ := benchLedger(b)
	nodes := map[int]qos.Resources{3: {CPU: 10, Memory: 50}, 7: {CPU: 5, Memory: 20}}
	links := map[int]float64{0: 100, 1: 200}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		owner := Owner(i)
		if err := l.CommitSession(owner, nodes, links); err != nil {
			b.Fatal(err)
		}
		l.ReleaseSession(owner)
	}
}
