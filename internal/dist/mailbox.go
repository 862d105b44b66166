package dist

import (
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/component"
	"repro/internal/qos"
)

// msgKind tags a message. Every kind carries reqID — the request, which
// is also the owner of its holds and of its session; 0 on state — and
// the fields its comment names.
type msgKind uint8

const (
	// msgCompose asks a node to deputise for a request (§3.3 step 1): rq,
	// alpha — the probing ratio of this attempt, which retries widen (§3.6).
	msgCompose msgKind = iota
	// msgProbe is one probe hop (§3.3 step 2): the receiver hosts chosen,
	// the candidate for position rq.plan.Order[idx]. rq, alpha, node (the
	// deputy), probe (tracer span, 0 untraced), hop (the prefix).
	msgProbe
	// msgReturn brings a complete probed composition back to the deputy
	// (§3.3 step 3): hop, its last.
	msgReturn
	msgDecide // the deputy's collection window closed
	// msgCommit makes a transient allocation permanent (§3.3 step 4):
	// amount, node (the deputy).
	msgCommit
	msgCommitAck     // a participant's commit outcome: node, ok
	msgCommitTimeout // commit acks are overdue
	// msgRelease frees the owner's committed allocation (session close or
	// rollback). The node knows the amount from its own ledger, which makes
	// release idempotent: a duplicate or speculative one (rollback toward a
	// participant that never committed) is a no-op.
	msgRelease
	msgState // a coarse global-state update (§3.2): node, amount
)

// message is what flows through node mailboxes: one value type for every
// kind, so a send copies a struct into the ring and boxes nothing.
type message struct {
	kind   msgKind
	ok     bool
	idx    int
	node   int
	chosen component.ComponentID
	reqID  int64
	probe  int64
	alpha  float64
	amount qos.Resources
	rq     *request
	hop    *hopRecord
}

type composeReply struct {
	comp *Composition
	err  error
}

// request is one compose attempt, allocated once by submit. A message of
// the attempt that needs more than its ID points at it; its hop records
// point only at records of the same attempt, and a Composition at none of
// it, so the whole record dies with the attempt.
type request struct {
	req  component.Request // the deputy's private copy, under the attempt's ID
	plan component.Plan    // built as submit validated req

	// The walk: probes bump hop records from a chain of blocks, the first inline.
	block atomic.Pointer[hopBlock] // the newest block
	mu    sync.Mutex               // taken only to chain a bigger block
	first hopBlock
	recs  [64]hopRecord

	// The deputy's state. The collect phase runs from composeStart to the
	// decision, the commit phase from commitStart to the last ack or rollback.
	reply        chan composeReply
	returns      []*hopRecord // last hop of each returned probe
	composeStart time.Time
	comp         *Composition // set by the decision: non-nil closes the collection window
	acked        int          // participants whose ack has arrived
	commitStart  time.Time
}

type hopBlock struct {
	used atomic.Int32
	recs []hopRecord
}

// newHop bump-allocates a record; a full block chains one twice its size.
func (rq *request) newHop() *hopRecord {
	for {
		b := rq.block.Load()
		if i := int(b.used.Add(1)); i <= len(b.recs) {
			return &b.recs[i-1]
		}
		rq.mu.Lock()
		if rq.block.Load() == b {
			rq.block.Store(&hopBlock{recs: make([]hopRecord, 2*len(b.recs))})
		}
		rq.mu.Unlock()
	}
}

// hopRecord is one filled position of a probe's prefix. A node writes it
// once, when it accepts the probe, and never again: every child probe —
// and a duplicated delivery of one — shares it by pointer, so extending a
// probe copies no prefix and concurrent readers need no lock.
type hopRecord struct {
	parent *hopRecord // the hop before; nil at the first
	chosen component.ComponentID
	avail  qos.Resources // what the host had for this request, its hold included
	acc    qos.Vector    // QoS accumulated through this hop
}

// back returns the record k hops before h.
func (h *hopRecord) back(k int) *hopRecord {
	for ; k > 0; k-- {
		h = h.parent
	}
	return h
}

// accumulated is the QoS accumulated through h; zero before the first hop.
func (h *hopRecord) accumulated() qos.Vector {
	if h == nil {
		return qos.Vector{}
	}
	return h.acc
}

// stepLabel starts a message's harness step-log line; the ID follows.
var stepLabel = [...]string{
	msgCompose: "compose req=", msgProbe: "probe req=", msgReturn: "return req=", msgDecide: "decide req=",
	msgCommit: "commit req=", msgCommitAck: "commit-ack req=", msgCommitTimeout: "commit-timeout req=",
	msgRelease: "release owner=", msgState: "state node=",
}

// maxStepLine is the longest step-log line: a commit-ack of two minimum int64s.
const maxStepLine = len("commit-ack req=") + 20 + len(" node=") + 20 + len(" ok=false")

// appendLine appends the harness step-log line of a message to b.
func (m *message) appendLine(b []byte) []byte {
	id := m.reqID
	if m.kind == msgState {
		id = int64(m.node)
	}
	b = strconv.AppendInt(append(b, stepLabel[m.kind]...), id, 10)
	switch m.kind {
	case msgProbe:
		b = strconv.AppendInt(append(b, " idx="...), int64(m.idx), 10)
	case msgCommitAck:
		b = strconv.AppendInt(append(b, " node="...), int64(m.node), 10)
		b = strconv.AppendBool(append(b, " ok="...), m.ok)
	}
	return b
}

// stepLines memoises step-log lines, direct-mapped by stepKey, all a line
// depends on: a request's probes at one idx, its returns and every state
// node=K repeat one. A missed line is cut from arena, a 4 KB chunk a
// Builder only appends to, so a line handed out never changes; a chunk
// without room for the longest line is left to the slots still holding
// its lines. The stepping goroutine owns it.
type stepLines struct {
	memo [256]struct {
		key  stepKey
		line string
	}
	arena strings.Builder
}

type stepKey struct {
	kind      msgKind
	ok        bool
	idx, node int
	reqID     int64
}

func (k stepKey) slot() uint8 {
	return uint8((uint64(k.reqID) ^ uint64(k.idx)<<40 ^ uint64(k.node)<<24 ^ uint64(k.kind)<<56) * 0x9e3779b97f4a7c15 >> 56)
}

// line is m's step-log line, formatted only when the slot holds another key.
func (t *stepLines) line(m *message) string {
	k := stepKey{m.kind, m.ok, m.idx, m.node, m.reqID}
	e := &t.memo[k.slot()]
	if e.line == "" || e.key != k {
		if t.arena.Cap()-t.arena.Len() < maxStepLine {
			t.arena = strings.Builder{}
			t.arena.Grow(4 << 10)
		}
		start := t.arena.Len()
		t.arena.Write(m.appendLine(make([]byte, 0, maxStepLine)))
		e.key, e.line = k, t.arena.String()[start:]
	}
	return e.line
}

// mailbox is a node's message queue: a ring that grows on demand up to
// limit messages, so a generous limit costs nothing until it is used.
// Started and stepped clusters share it; only a started node's goroutine
// parks on wake.
type mailbox struct {
	mu    sync.Mutex
	buf   []message // guarded by mu; len is zero or a power of two
	head  int       // guarded by mu
	limit int
	depth atomic.Int64 // queued messages; written under mu, read anywhere

	// wake holds a token while messages are queued; space gets one when a
	// pop takes a full mailbox below its limit. One slot each: a token says
	// "look again", not how often.
	wake  chan struct{}
	space chan struct{}
}

func newMailbox(limit int) *mailbox {
	return &mailbox{limit: limit, wake: make(chan struct{}, 1), space: make(chan struct{}, 1)}
}

func signal(c chan struct{}) {
	select {
	case c <- struct{}{}:
	default:
	}
}

// push queues m, reporting false when the mailbox holds limit messages.
func (b *mailbox) push(m *message) bool {
	b.mu.Lock()
	n := int(b.depth.Load())
	if n == b.limit {
		b.mu.Unlock()
		return false
	}
	if n == len(b.buf) { // double the ring, unrolled to start at zero
		bigger := make([]message, max(16, 2*n))
		copy(bigger[copy(bigger, b.buf[b.head:]):], b.buf[:b.head])
		b.buf, b.head = bigger, 0
	}
	b.buf[(b.head+n)&(len(b.buf)-1)] = *m
	b.depth.Store(int64(n + 1))
	b.mu.Unlock()
	signal(b.wake)
	return true
}

// pop moves the oldest message into m; false when the mailbox is empty.
func (b *mailbox) pop(m *message) bool {
	b.mu.Lock()
	n := int(b.depth.Load())
	if n == 0 {
		b.mu.Unlock()
		return false
	}
	*m = b.buf[b.head]
	b.buf[b.head] = message{} // the ring must not keep the request alive
	b.head = (b.head + 1) & (len(b.buf) - 1)
	b.depth.Store(int64(n - 1))
	b.mu.Unlock()
	if n > 1 {
		signal(b.wake)
	}
	if n == b.limit {
		signal(b.space)
	}
	return true
}

// pushWait queues m, waiting for room; false when quit closes first. A
// sender that got in passes the token on — a second one may be parked
// beside room that a pop from a no-longer-full mailbox made silently — and a
// stale token costs its taker one more look.
func (b *mailbox) pushWait(m *message, quit <-chan struct{}) bool {
	for !b.push(m) {
		select {
		case <-b.space:
		case <-quit:
			return false
		}
	}
	signal(b.space)
	return true
}
