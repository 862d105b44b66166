package dist

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/component"
)

// TestMailboxKeepsOrderThroughGrowthAndWrap: a ring that grows while its
// head is mid-buffer must hand messages back first in, first out.
func TestMailboxKeepsOrderThroughGrowthAndWrap(t *testing.T) {
	b := newMailbox(1 << 10)
	next, want := int64(0), int64(0)
	push := func(k int) {
		for ; k > 0; k-- {
			if !b.push(&message{kind: msgDecide, reqID: next}) {
				t.Fatalf("push %d refused below the limit", next)
			}
			next++
		}
	}
	pop := func(k int) {
		for ; k > 0; k-- {
			var m message
			ok := b.pop(&m)
			if !ok || m.reqID != want {
				t.Fatalf("pop = (%d, %v), want %d", m.reqID, ok, want)
			}
			want++
		}
	}
	push(10)
	pop(7) // head now mid-ring
	push(13)
	pop(2)
	push(40) // grows with the live window wrapped around the end
	pop(30)
	push(300)
	pop(int(next - want))
	if b.pop(&message{}) || b.depth.Load() != 0 {
		t.Fatalf("drained mailbox still reports depth %d", b.depth.Load())
	}
}

// TestSendReportsFullMailboxAtTheBound: send refuses the message that
// would exceed the mailbox bound — not one earlier, the ring having grown to hold
// exactly that many — and accepts again once a step took one out.
func TestSendReportsFullMailboxAtTheBound(t *testing.T) {
	cfg := DefaultConfig()
	cfg.mailboxSize = 100 // not a power of two: the ring's length is not the bound
	c, err := build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := c.nodes[3]
	for i := 0; i < cfg.mailboxSize; i++ {
		if !n.send(&message{kind: msgState, node: 1}) {
			t.Fatalf("send %d of %d refused", i+1, cfg.mailboxSize)
		}
	}
	if n.send(&message{kind: msgState, node: 1}) {
		t.Fatalf("send accepted message %d of a mailbox bounded at %d", cfg.mailboxSize+1, cfg.mailboxSize)
	}
	if got := c.MailboxDepth(3); got != cfg.mailboxSize {
		t.Fatalf("MailboxDepth = %d, want %d", got, cfg.mailboxSize)
	}
	if got := c.inflight.Load(); got != int64(cfg.mailboxSize) {
		t.Fatalf("inflight = %d after a refused send, want %d", got, cfg.mailboxSize)
	}
	if desc, ok := c.StepNode(3); !ok || desc != "state node=1" {
		t.Fatalf("StepNode = (%q, %v)", desc, ok)
	}
	if !n.send(&message{kind: msgState, node: 1}) {
		t.Fatal("send still refused after a step made room")
	}
}

// TestSendBlockingWaitsForRoom: a deputy timer event aimed at a full
// mailbox is delivered once the node takes a message out — every parked
// sender, when two steps made room for two and only the first found the
// mailbox full — and given up only when the node quits.
func TestSendBlockingWaitsForRoom(t *testing.T) {
	c, err := build(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	n := c.nodes[0]
	for n.send(&message{kind: msgState}) {
	}
	delivered := make(chan struct{}, 3)
	for reqID := int64(1); reqID <= 3; reqID++ {
		go func() {
			n.sendBlocking(message{kind: msgDecide, reqID: reqID})
			delivered <- struct{}{}
		}()
	}
	select {
	case <-delivered:
		t.Fatal("sendBlocking returned with the mailbox full")
	case <-time.After(20 * time.Millisecond):
	}
	for c.inflight.Load() < int64(c.cfg.mailboxSize)+3 {
		time.Sleep(time.Millisecond) // until all three have tried and parked
	}
	c.StepNode(0)
	c.StepNode(0)
	<-delivered
	<-delivered
	if got := c.MailboxDepth(0); got != c.cfg.mailboxSize {
		t.Fatalf("depth %d after two steps and two blocked sends landed, want %d", got, c.cfg.mailboxSize)
	}
	close(n.quit)
	<-delivered
	if got := c.inflight.Load(); got != int64(c.cfg.mailboxSize) {
		t.Fatalf("inflight = %d, want %d: the abandoned send must return its credit", got, c.cfg.mailboxSize)
	}
}

// TestStepLabelsMatchDescribe: a memoised step-log line is byte for byte
// the line describe builds, for every kind — on hits, on misses, and when
// keys that share one slot keep evicting each other.
func TestStepLabelsMatchDescribe(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	random := func() message {
		return message{
			kind:  msgKind(rng.Intn(int(msgState) + 1)),
			reqID: rng.Int63n(8) + rng.Int63n(2)*rng.Int63(), // repeats, and IDs of every width
			idx:   rng.Intn(6),
			node:  rng.Intn(8),
			ok:    rng.Intn(2) == 0,
		}
	}
	var lines stepLines
	check := func(m message) {
		t.Helper()
		if got, want := lines.line(&m), m.describe(); got != want {
			t.Fatalf("line of %+v = %q, describe = %q", m, got, want)
		}
	}
	for i := 0; i < 50_000; i++ {
		check(random())
	}
	const slot = 17
	var same []message
	for len(same) < 8 {
		m := random()
		if (stepKey{m.kind, m.ok, m.idx, m.node, m.reqID}).slot() == slot {
			same = append(same, m)
		}
	}
	for i := 0; i < 1_000; i++ {
		check(same[rng.Intn(len(same))])
	}
}

// TestStepLinesOutliveTheirChunk: a line cut from the arena stays byte for
// byte what describe formats after its slot was reused and the chunk it
// sits in was given up for later ones.
func TestStepLinesOutliveTheirChunk(t *testing.T) {
	var lines stepLines
	type handed struct {
		m    message
		line string
	}
	var all []handed
	chunks := 0
	for i := int64(0); chunks < 8 && i < 1e5; i++ {
		m := message{kind: msgKind(i % int64(msgState+1)), reqID: i * 1_000_003, idx: int(i % 5), node: int(i % 64), ok: i%2 == 0}
		used := lines.arena.Len()
		all = append(all, handed{m, lines.line(&m)})
		if lines.arena.Len() < used { // the line opened a fresh chunk
			chunks++
		}
	}
	if chunks < 8 {
		t.Fatalf("%d lines turned over %d chunks, want 8", len(all), chunks)
	}
	for _, h := range all {
		if want := h.m.describe(); h.line != want {
			t.Fatalf("line of %+v reads %q after %d chunks, describe = %q", h.m, h.line, chunks, want)
		}
	}
}

// TestLongestStepLineFitsTheReserve: no message formats longer than the
// room a chunk keeps free for the next line, a commit-ack of two minimum
// int64s and ok=false the longest of all.
func TestLongestStepLineFitsTheReserve(t *testing.T) {
	longest := message{kind: msgCommitAck, reqID: math.MinInt64, node: math.MinInt64}
	if got := len(longest.describe()); got != maxStepLine {
		t.Fatalf("%q is %d bytes, maxStepLine = %d", longest.describe(), got, maxStepLine)
	}
	for k := msgCompose; k <= msgState; k++ {
		m := message{kind: k, reqID: math.MinInt64, idx: math.MinInt64, node: math.MinInt64}
		if line := m.describe(); len(line) > maxStepLine {
			t.Errorf("%q is %d bytes, over maxStepLine = %d", line, len(line), maxStepLine)
		}
	}
}

// TestStepLineMissesAllocatePerChunk: lines the memo has not seen cost an
// allocation per arena chunk, not one each.
func TestStepLineMissesAllocatePerChunk(t *testing.T) {
	var lines stepLines
	next := int64(1_000_000_000_000)
	const misses = 10_000
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < misses; i++ {
			next++
			lines.line(&message{kind: msgProbe, reqID: next, idx: i % 5})
		}
	})
	if allocs > misses/40 {
		t.Errorf("%d step-line misses allocate %.0f times, want <= %d", misses, allocs, misses/40)
	}
}

// TestNewHopConcurrent: node goroutines bumping records of one request
// at once, across several block doublings, each get a record of their own.
func TestNewHopConcurrent(t *testing.T) {
	const workers, each = 4, 500
	w := &request{}
	w.block.Store(&hopBlock{recs: make([]hopRecord, 64)})
	got := make([][]*hopRecord, workers)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				h := w.newHop()
				*h = hopRecord{chosen: component.ComponentID(g*each + i)}
				got[g] = append(got[g], h)
			}
		}()
	}
	wg.Wait()
	seen := make(map[*hopRecord]bool, workers*each)
	for g := range got {
		for i, h := range got[g] {
			if seen[h] || h.chosen != component.ComponentID(g*each+i) {
				t.Fatalf("record %d of worker %d was handed out twice", i, g)
			}
			seen[h] = true
		}
	}
}

// describe is the harness step-log line of a message, formatted afresh.
func (m *message) describe() string { return string(m.appendLine(nil)) }
