// Package state implements the system's resource ground truth (the
// ledger) and the paper's hierarchical state management (§3.2):
// fine-grain precise local state plus a coarse-grain global state updated
// only on significant variations, with virtual-link states re-aggregated
// every period.
package state

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/overlay"
	"repro/internal/qos"
)

// Owner identifies the request (during probing) or session (after setup)
// that resources belong to.
type Owner int64

// arith is the arithmetic a book needs of the amount it keeps: end-system
// resources on a node (Eq. 4) or bandwidth on an overlay link (Eq. 5).
// Each side keeps the operations it had when the two were written out
// separately, so the shared bookkeeping is bit for bit what each did.
type arith[A any] interface {
	add(a, b A) A
	sub(a, b A) A
	covers(a, b A) bool // a can supply b
	min(a, b A) A
}

// resArith is a node's arithmetic: covers is a.Sub(b).NonNegative() per
// dimension.
type resArith struct{}

func (resArith) add(a, b qos.Resources) qos.Resources { return a.Add(b) }
func (resArith) sub(a, b qos.Resources) qos.Resources { return a.Sub(b) }
func (resArith) covers(a, b qos.Resources) bool       { return a.Covers(b) }
func (resArith) min(a, b qos.Resources) qos.Resources { return minRes(a, b) }

// bwArith is an overlay link's arithmetic. Its min is the builtin, which
// differs from math.Min only on (−Inf, NaN): no amount here is either.
type bwArith struct{}

func (bwArith) add(a, b float64) float64 { return a + b }
func (bwArith) sub(a, b float64) float64 { return a - b }
func (bwArith) covers(a, b float64) bool { return !(a < b) }
func (bwArith) min(a, b float64) float64 { return min(a, b) }

type hold[A any] struct {
	owner   Owner
	tag     int // distinguishes components (or virtual links) of one request (footnote 7)
	amount  A
	expires time.Duration
}

type account[A any] struct {
	capacity  A
	committed A
	held      A
	holds     []hold[A]
}

// Share is one id's part of a session allocation: the resources it takes
// on a node, or the bandwidth on an overlay link.
type Share[A any] struct {
	ID     int
	Amount A
}

// NodeShare and LinkShare are the two sides' shares.
type (
	NodeShare = Share[qos.Resources]
	LinkShare = Share[float64]
)

// sessionAlloc is a committed session's record: each side's shares, ids distinct.
type sessionAlloc struct {
	nodes []NodeShare
	links []LinkShare
}

// shareOf finds id's amount in shares by a scan: a session touches a few.
func shareOf[A any](shares []Share[A], id int) (amount A, ok bool) {
	for _, s := range shares {
		if s.ID == id {
			return s.Amount, true
		}
	}
	return amount, false
}

// holdIndex lists the nodes (or overlay links) that may carry transient
// holds, so an owner-wide release visits what was held instead of the
// whole substrate. An id is listed when a hold is created on it and
// unlisted by the next release sweep that finds its hold list empty —
// every walk ends in one — so between sweeps the list is a superset of
// what is held, never larger than what was touched since the last one.
type holdIndex struct {
	ids    []int  // unordered
	listed []bool // per id: present in ids
}

func (x *holdIndex) add(id int) {
	if !x.listed[id] {
		x.listed[id] = true
		x.ids = append(x.ids, id)
	}
}

// dropAt unlists ids[i], moving the last entry into its place.
func (x *holdIndex) dropAt(i int) {
	x.listed[x.ids[i]] = false
	last := len(x.ids) - 1
	x.ids[i] = x.ids[last]
	x.ids = x.ids[:last]
}

// book keeps one side of the ledger — every node, or every overlay link —
// under the rules the paper gives both (§3.3 step 2, footnote 7): one
// transient hold per (owner, tag), expiry at a timeout, promotion by the
// session confirmation, and a make-before-break window's reuse credit.
type book[A any, M arith[A]] struct {
	m     M
	kind  string // "node" or "link", in errors
	accts []account[A]
	index holdIndex // every id whose hold list is non-empty (and some a sweep has yet to unlist)
	made  []int     // ids whose holds the current HoldHopAt created, for its rollback

	l     *Ledger                       // clock, sessions and migration windows
	share func(sessionAlloc) []Share[A] // this side of a session record

	// onChange, when set, is called after an id's committed amount
	// changes: the global state applies its threshold-triggered update
	// rule there. Transient holds do not call it: they are short-lived
	// local state, never disseminated (§3.2). When locking is enabled it
	// runs with the ledger lock held.
	onChange func(id int)
}

// Ledger is the authoritative record of end-system resources per overlay
// node and bandwidth per overlay link. It distinguishes committed session
// allocations from transient holds placed by probes (§3.3 step 2):
// transient holds expire after a timeout unless promoted by a session
// confirmation, preventing conflicting admissions by concurrent probings.
//
// By default a Ledger is not safe for concurrent use; the discrete-event
// simulator is single-threaded. EnableLocking switches on an internal
// mutex so a concurrent composition driver can share one ledger across
// worker goroutines; the disabled path costs only a nil check.
type Ledger struct {
	now      func() time.Duration
	nodes    book[qos.Resources, resArith]
	links    book[float64, bwArith]
	sessions map[Owner]sessionAlloc

	// migrations maps a re-probe owner to the committed session it is
	// re-composing make-before-break. While registered, the probe's
	// availability views and hold feasibility checks credit the source
	// session's committed allocation as reusable (footnote-8 discipline
	// applied to live state), so a re-composition is never blocked by —
	// or double-charged for — resources the session already owns.
	migrations map[Owner]Owner

	// mu, when non-nil, serializes every public operation. Change
	// observers (onChange) fire with the lock held and must only use the
	// package's unlocked internals.
	mu *sync.Mutex
}

// NewLedger builds a ledger for the mesh with every node given nodeCap
// capacity and every overlay link its mesh capacity. The now function
// supplies virtual time for hold expiry.
func NewLedger(mesh *overlay.Mesh, nodeCap qos.Resources, now func() time.Duration) *Ledger {
	l := &Ledger{now: now, sessions: make(map[Owner]sessionAlloc)}
	l.nodes = book[qos.Resources, resArith]{kind: "node", l: l, share: func(s sessionAlloc) []NodeShare { return s.nodes }}
	l.links = book[float64, bwArith]{kind: "link", l: l, share: func(s sessionAlloc) []LinkShare { return s.links }}
	l.nodes.open(mesh.NumNodes(), func(int) qos.Resources { return nodeCap })
	l.links.open(mesh.NumLinks(), func(i int) float64 { return mesh.Link(i).Capacity })
	return l
}

func (b *book[A, M]) open(n int, capacity func(id int) A) {
	b.accts = make([]account[A], n)
	b.index.listed = make([]bool, n)
	for i := range b.accts {
		b.accts[i].capacity = capacity(i)
	}
}

// EnableLocking makes the ledger safe for concurrent use by guarding
// every operation with a mutex. Call before sharing the ledger across
// goroutines; enabling is idempotent and cannot be undone.
func (l *Ledger) EnableLocking() {
	if l.mu == nil {
		l.mu = new(sync.Mutex)
	}
}

// lockYields bounds how often lock yields its P before it parks on a held
// ledger lock: on two Ps sync.Mutex parks a waiter at once, and a park and
// wake costs 57–82 µs against critical sections of 0.1–16 µs (DESIGN.md §18).
const lockYields = 64

func (l *Ledger) lock() {
	if l.mu == nil {
		return
	}
	for range lockYields {
		if l.mu.TryLock() {
			return
		}
		runtime.Gosched()
	}
	l.mu.Lock()
}

func (l *Ledger) unlock() {
	if l.mu != nil {
		l.mu.Unlock()
	}
}

func (b *book[A, M]) notify(id int) {
	if b.onChange != nil {
		b.onChange(id)
	}
}

// NumNodes returns the number of tracked nodes.
func (l *Ledger) NumNodes() int { return len(l.nodes.accts) }

// NumLinks returns the number of tracked overlay links.
func (l *Ledger) NumLinks() int { return len(l.links.accts) }

// NodeCapacity returns the node's total capacity.
func (l *Ledger) NodeCapacity(node int) qos.Resources { return l.nodes.accts[node].capacity }

// SetNodeCapacity overrides one node's capacity, supporting
// heterogeneous node classes (fast/slow/memory-constrained). Call it
// between NewLedger and NewGlobal: the global coarse views snapshot
// ledger capacities when built, and shrinking capacity below an
// existing committed+held allocation would corrupt the conservation
// invariants, so overrides on a live ledger are rejected.
func (l *Ledger) SetNodeCapacity(node int, capacity qos.Resources) error {
	l.lock()
	defer l.unlock()
	if node < 0 || node >= len(l.nodes.accts) {
		return fmt.Errorf("state: node %d out of range", node)
	}
	if capacity.CPU <= 0 || capacity.Memory <= 0 {
		return fmt.Errorf("state: node %d capacity %+v must be positive", node, capacity)
	}
	n := &l.nodes.accts[node]
	used := n.committed.Add(n.held)
	if used.CPU > 0 || used.Memory > 0 {
		return fmt.Errorf("state: node %d has live allocations %+v; set capacity before use", node, used)
	}
	n.capacity = capacity
	return nil
}

// LinkCapacity returns the link's total bandwidth capacity.
func (l *Ledger) LinkCapacity(link int) float64 { return l.links.accts[link].capacity }

// ledgerClock, passed as the instant, makes purge read the ledger's own
// clock — and only when there is a hold whose expiry the reading decides,
// so operations on an unheld node or link cost no clock read. A caller
// that brings its own instant (the *At methods) never triggers one.
const ledgerClock = time.Duration(math.MinInt64)

// purge drops the account's holds that have expired by now. An unheld
// account returns at once, from code small enough to inline; a held one
// has its hold slice rewritten only from the first expired entry on: the
// common read finds nothing to drop and writes nothing.
func (b *book[A, M]) purge(id int, now time.Duration) {
	if len(b.accts[id].holds) != 0 {
		b.expire(&b.accts[id], now)
	}
}

func (b *book[A, M]) expire(a *account[A], now time.Duration) {
	if now == ledgerClock {
		now = b.l.now()
	}
	first := 0
	for first < len(a.holds) && a.holds[first].expires > now {
		first++
	}
	if first == len(a.holds) {
		return
	}
	kept := a.holds[:first]
	for _, h := range a.holds[first:] {
		if h.expires > now {
			kept = append(kept, h)
		} else {
			a.held = b.m.sub(a.held, h.amount)
		}
	}
	a.holds = kept
}

// available is the precise local state a probe reads at the node (or
// link) itself: capacity minus committed sessions minus live transient
// holds.
func (b *book[A, M]) available(id int, now time.Duration) A {
	b.purge(id, now)
	a := &b.accts[id]
	return b.m.sub(b.m.sub(a.capacity, a.committed), a.held)
}

func (b *book[A, M]) committedAvailable(id int) A {
	a := &b.accts[id]
	return b.m.sub(a.capacity, a.committed)
}

// NodeCommittedAvailable returns capacity minus committed sessions only,
// ignoring transient holds. This is what the coarse global state
// disseminates, since holds are never reported beyond the local node.
func (l *Ledger) NodeCommittedAvailable(node int) qos.Resources {
	l.lock()
	defer l.unlock()
	return l.nodes.committedAvailable(node)
}

// LinkAvailable returns the link's precise available bandwidth.
func (l *Ledger) LinkAvailable(link int) float64 {
	l.lock()
	defer l.unlock()
	return l.links.available(link, ledgerClock)
}

// LinkCommittedAvailable returns capacity minus committed bandwidth,
// ignoring transient holds.
func (l *Ledger) LinkCommittedAvailable(link int) float64 {
	l.lock()
	defer l.unlock()
	return l.links.committedAvailable(link)
}

// RouteAvailable returns the precise available bandwidth of a virtual
// link: the bottleneck over its constituent overlay links, or +Inf for a
// co-located route (footnote 4).
func (l *Ledger) RouteAvailable(r overlay.Route) float64 {
	if r.CoLocated {
		return math.Inf(1)
	}
	l.lock()
	defer l.unlock()
	avail := math.Inf(1)
	for _, id := range r.Links {
		avail = min(avail, l.links.available(id, ledgerClock))
	}
	return avail
}

// HoldNode places a transient resource allocation for owner's component
// tag on the node, expiring at the given virtual time unless promoted by
// CommitShares. It fails (returning false) when the node cannot
// currently cover the amount. Each node reserves resources once per
// component per request (footnote 7): a second hold with the same owner
// and tag — another concurrent probe of the same request visiting the
// same component — is a no-op success.
func (l *Ledger) HoldNode(owner Owner, tag, node int, amount qos.Resources, expires time.Duration) bool {
	ok, _ := l.HoldNodeTrackedAt(ledgerClock, owner, tag, node, amount, expires)
	return ok
}

// HoldNodeTrackedAt is HoldNode at the caller's instant in place of a
// read of the ledger's clock, additionally reporting whether this call
// created a new hold: created is false both on failure and when an
// existing (owner, tag) hold made the call an idempotent no-op. Callers
// that must undo a partially-placed reservation release exactly the
// holds they created, leaving holds placed by sibling probes intact.
//
// A probe walk reads the clock once and every hold it places expires
// stale holds as of that instant. An instant behind the clock only keeps
// an expired hold counted a little longer — it can refuse a hold, never
// over-admit one.
func (l *Ledger) HoldNodeTrackedAt(now time.Duration, owner Owner, tag, node int, amount qos.Resources, expires time.Duration) (ok, created bool) {
	l.lock()
	defer l.unlock()
	return l.nodes.place(now, owner, tag, node, amount, expires)
}

// HoldLink places a transient bandwidth allocation on an overlay link.
// Like HoldNode it is idempotent per (owner, tag).
func (l *Ledger) HoldLink(owner Owner, tag, link int, amount float64, expires time.Duration) bool {
	ok, _ := l.HoldLinkTrackedAt(ledgerClock, owner, tag, link, amount, expires)
	return ok
}

// HoldLinkTrackedAt is HoldNodeTrackedAt for an overlay link.
func (l *Ledger) HoldLinkTrackedAt(now time.Duration, owner Owner, tag, link int, amount float64, expires time.Duration) (ok, created bool) {
	l.lock()
	defer l.unlock()
	return l.links.place(now, owner, tag, link, amount, expires)
}

// HopResult says how HoldHopAt ended: every hold placed, or refused at a
// node or at a link with nothing the call created left behind.
type HopResult uint8

const (
	HopHeld HopResult = iota
	HopNodeRefused
	HopLinkRefused
)

// HoldHopAt places owner's tag holds on the node shares, then the link
// shares, in order, as HoldNodeTrackedAt and HoldLinkTrackedAt would one
// by one (a hold that exists is a no-op success), but all or nothing under
// one lock acquisition: a probe hop's node and the links of its
// predecessor routes, or a winning composition's stacked demands.
func (l *Ledger) HoldHopAt(now time.Duration, owner Owner, tag int, nodes []NodeShare, links []LinkShare, expires time.Duration) HopResult {
	l.lock()
	defer l.unlock()
	if !l.nodes.placeAll(now, owner, tag, nodes, expires) {
		return HopNodeRefused
	}
	if !l.links.placeAll(now, owner, tag, links, expires) {
		l.nodes.undo(owner, tag)
		return HopLinkRefused
	}
	return HopHeld
}

// placeAll places the shares in order and, at the first refused, releases
// the holds it created; made keeps them until the next call, for undo.
func (b *book[A, M]) placeAll(now time.Duration, owner Owner, tag int, shares []Share[A], expires time.Duration) bool {
	b.made = b.made[:0]
	for _, s := range shares {
		ok, created := b.place(now, owner, tag, s.ID, s.Amount, expires)
		if !ok {
			b.undo(owner, tag)
			return false
		}
		if created {
			b.made = append(b.made, s.ID)
		}
	}
	return true
}

func (b *book[A, M]) undo(owner Owner, tag int) {
	for _, id := range b.made {
		b.release(owner, tag, id)
	}
}

func (b *book[A, M]) place(now time.Duration, owner Owner, tag, id int, amount A, expires time.Duration) (ok, created bool) {
	avail := b.available(id, now)
	a := &b.accts[id]
	for _, h := range a.holds {
		if h.owner == owner && h.tag == tag {
			return true, false
		}
	}
	if credit, ok := b.credit(owner, id); ok {
		// Make-before-break: the probe may reuse its source session's
		// committed share here, but only once — feasibility requires the
		// part of (existing holds + amount) beyond the reusable share to
		// fit the true availability.
		avail = b.m.add(avail, b.m.min(b.m.add(b.heldBy(owner, id), amount), credit))
	}
	if !b.m.covers(avail, amount) {
		return false, false
	}
	a.holds = append(a.holds, hold[A]{owner: owner, tag: tag, amount: amount, expires: expires})
	a.held = b.m.add(a.held, amount)
	b.index.add(id)
	return true, true
}

// ReleaseNodeHold cancels owner's tag hold on the node, if present. It and
// ReleaseLinkHold stay only because bench/ladder.go, in the separately
// pinned benchmark module, calls them; a walk's holds go back otherwise.
func (l *Ledger) ReleaseNodeHold(owner Owner, tag, node int) {
	l.lock()
	defer l.unlock()
	l.nodes.release(owner, tag, node)
}

// ReleaseLinkHold cancels owner's tag hold on the overlay link, if
// present.
func (l *Ledger) ReleaseLinkHold(owner Owner, tag, link int) {
	l.lock()
	defer l.unlock()
	l.links.release(owner, tag, link)
}

func (b *book[A, M]) release(owner Owner, tag, id int) {
	a := &b.accts[id]
	for i, h := range a.holds {
		if h.owner == owner && h.tag == tag {
			a.held = b.m.sub(a.held, h.amount)
			a.holds = append(a.holds[:i], a.holds[i+1:]...)
			return
		}
	}
}

// NodeAvailableForAt returns the node's available resources from owner's
// perspective at the caller's instant (see HoldNodeTrackedAt): precise
// availability with owner's own transient holds credited back. The
// deputy evaluates candidate compositions with this view so a request is
// not blocked by its own reservations; a probe walk reads it once per
// node and scores every probe from that one value. An owner registered
// as a migration probe is additionally credited its source session's
// committed share on the node.
func (l *Ledger) NodeAvailableForAt(now time.Duration, owner Owner, node int) qos.Resources {
	l.lock()
	defer l.unlock()
	return l.nodes.availableFor(now, owner, node)
}

// LinkAvailableForAt is NodeAvailableForAt for an overlay link.
func (l *Ledger) LinkAvailableForAt(now time.Duration, owner Owner, link int) float64 {
	l.lock()
	defer l.unlock()
	return l.links.availableFor(now, owner, link)
}

// LinksAvailableForAt sets view[id] to LinkAvailableForAt(now, owner, id)
// for every id in links, under one lock acquisition.
func (l *Ledger) LinksAvailableForAt(now time.Duration, owner Owner, links []int, view []float64) {
	l.lock()
	defer l.unlock()
	for _, id := range links {
		view[id] = l.links.availableFor(now, owner, id)
	}
}

func (b *book[A, M]) availableFor(now time.Duration, owner Owner, id int) A {
	avail := b.available(id, now)
	for _, h := range b.accts[id].holds {
		if h.owner == owner {
			avail = b.m.add(avail, h.amount)
		}
	}
	if credit, ok := b.credit(owner, id); ok {
		avail = b.m.add(avail, credit)
	}
	return avail
}

// ReleaseOwner cancels every transient hold belonging to owner, across
// all nodes and links. The deputy calls this once a composition decision
// has been made; unreleased holds die by timeout anyway.
func (l *Ledger) ReleaseOwner(owner Owner) {
	l.lock()
	defer l.unlock()
	l.releaseOwner(owner)
}

func (l *Ledger) releaseOwner(owner Owner) {
	l.nodes.releaseOwner(owner)
	l.links.releaseOwner(owner)
}

// releaseOwner sweeps the hold index backwards, so that unlisting an
// empty entry (which moves the last, already visited, id into its place)
// skips nothing.
func (b *book[A, M]) releaseOwner(owner Owner) {
	for i := len(b.index.ids) - 1; i >= 0; i-- {
		a := &b.accts[b.index.ids[i]]
		kept := a.holds[:0]
		for _, h := range a.holds {
			if h.owner == owner {
				a.held = b.m.sub(a.held, h.amount)
			} else {
				kept = append(kept, h)
			}
		}
		a.holds = kept
		if len(kept) == 0 {
			b.index.dropAt(i)
		}
	}
}

// CommitShares converts a composition decision into a durable session
// allocation: owner's transient holds are released and the given per-node
// resources and per-link bandwidths are committed, the ledger keeping its
// own copy. On failure (a share out of range, repeating an earlier id, or
// not covered) nothing is committed and the error names the first failing
// share; the owner's transient holds stay released — the request has
// failed and the paper's protocol would let them time out regardless.
func (l *Ledger) CommitShares(owner Owner, nodes []NodeShare, links []LinkShare) error {
	l.lock()
	defer l.unlock()
	if _, ok := l.sessions[owner]; ok {
		return fmt.Errorf("state: session %d already committed", owner)
	}
	if prev, ok := l.migrations[owner]; ok {
		return fmt.Errorf("state: owner %d is migrating session %d; use MigrateSession", owner, prev)
	}
	l.releaseOwner(owner)
	if err := l.nodes.fits(nodes, l.nodes.commitRoom); err != nil {
		return err
	}
	if err := l.links.fits(links, l.links.commitRoom); err != nil {
		return err
	}
	l.sessions[owner] = sessionAlloc{nodes: l.nodes.commit(nodes), links: l.links.commit(links)}
	return nil
}

// CommitSession is CommitShares over maps, each side's shares taken in id
// order. It stays only because bench/ladder.go, in the separately pinned
// benchmark module, calls it; the change that moves that benchmark to
// CommitShares deletes it.
func (l *Ledger) CommitSession(owner Owner, nodes map[int]qos.Resources, links map[int]float64) error {
	return l.CommitShares(owner, sortedShares(nodes), sortedShares(links))
}

func sortedShares[A any](m map[int]A) []Share[A] {
	shares := make([]Share[A], 0, len(m))
	for id, amount := range m {
		shares = append(shares, Share[A]{ID: id, Amount: amount})
	}
	slices.SortFunc(shares, func(a, b Share[A]) int { return a.ID - b.ID })
	return shares
}

// fits checks shares in input order and names the first that is out of
// range on this side, repeats an earlier share's id — it would be checked
// against availability twice — or that room(id) cannot cover.
func (b *book[A, M]) fits(shares []Share[A], room func(id int) A) error {
	for i, s := range shares {
		if s.ID < 0 || s.ID >= len(b.accts) {
			return fmt.Errorf("state: %s %d out of range", b.kind, s.ID)
		}
		if _, dup := shareOf(shares[:i], s.ID); dup {
			return fmt.Errorf("state: %s %d listed twice", b.kind, s.ID)
		}
		if !b.m.covers(room(s.ID), s.Amount) {
			return fmt.Errorf("state: %s %d cannot cover %v", b.kind, s.ID, s.Amount)
		}
	}
	return nil
}

// commitRoom is what a commit may take on id, room counted twice by open
// migration windows included: only one of a session's share and its
// probe's reusing holds can remain.
func (b *book[A, M]) commitRoom(id int) A {
	return b.m.add(b.available(id, ledgerClock), b.windowOverlap(id))
}

// commit adds the shares to their accounts and returns the session's copy.
func (b *book[A, M]) commit(shares []Share[A]) []Share[A] {
	for _, s := range shares {
		b.accts[s.ID].committed = b.m.add(b.accts[s.ID].committed, s.Amount)
		b.notify(s.ID)
	}
	return slices.Clone(shares)
}

// ReleaseSession frees a committed session's resources when the
// application closes (§2.2 Close). Unknown sessions are ignored.
func (l *Ledger) ReleaseSession(owner Owner) {
	l.lock()
	defer l.unlock()
	alloc, ok := l.sessions[owner]
	if !ok {
		return
	}
	delete(l.sessions, owner)
	// A migration window over a session that closes underneath it loses
	// its reuse credit: the freed allocation more than covers whatever
	// the probe's overlapping holds were credited.
	for probe, session := range l.migrations {
		if session == owner {
			delete(l.migrations, probe)
		}
	}
	l.nodes.uncommit(alloc.nodes)
	l.links.uncommit(alloc.links)
}

func (b *book[A, M]) uncommit(shares []Share[A]) {
	for _, s := range shares {
		b.accts[s.ID].committed = b.m.sub(b.accts[s.ID].committed, s.Amount)
		b.notify(s.ID)
	}
}

// ActiveSessions returns the number of committed sessions.
func (l *Ledger) ActiveSessions() int {
	l.lock()
	defer l.unlock()
	return len(l.sessions)
}

// HasSession reports whether owner has a committed session allocation.
func (l *Ledger) HasSession(owner Owner) bool {
	l.lock()
	defer l.unlock()
	_, ok := l.sessions[owner]
	return ok
}

// BeginMigration opens a make-before-break window: probe becomes a
// re-composition of the committed session, and until EndMigration,
// AbortMigration or MigrateSession closes the window, probe's
// availability views and hold feasibility treat the session's committed
// allocation as reusable. A session can be re-composed by at most one
// probe at a time.
func (l *Ledger) BeginMigration(probe, session Owner) error {
	l.lock()
	defer l.unlock()
	if _, ok := l.sessions[session]; !ok {
		return fmt.Errorf("state: migration source session %d not committed", session)
	}
	if _, ok := l.sessions[probe]; ok {
		return fmt.Errorf("state: migration probe %d already owns a committed session", probe)
	}
	if prev, ok := l.migrations[probe]; ok {
		return fmt.Errorf("state: probe %d already migrating session %d", probe, prev)
	}
	for p, s := range l.migrations {
		if s == session {
			return fmt.Errorf("state: session %d already being migrated by probe %d", session, p)
		}
	}
	if l.migrations == nil {
		l.migrations = make(map[Owner]Owner)
	}
	l.migrations[probe] = session
	return nil
}

// EndMigration closes probe's migration window without flipping the
// session. The probe's transient holds, if any, are untouched — a probe
// that still holds uses AbortMigration. Unknown probes are ignored.
func (l *Ledger) EndMigration(probe Owner) {
	l.lock()
	defer l.unlock()
	delete(l.migrations, probe)
}

// AbortMigration abandons probe's migration: the window closes and the
// probe's transient holds are released under one lock acquisition, so no
// observer sees holds that overlap the session's share without the
// window that credits them. Unknown probes only lose their holds.
func (l *Ledger) AbortMigration(probe Owner) {
	l.lock()
	defer l.unlock()
	delete(l.migrations, probe)
	l.releaseOwner(probe)
}

// MigrateSession atomically flips a committed session to the new shares
// reserved by its migration probe: the probe's transient holds are
// released, the old allocation is freed, the new per-node resources and
// per-link bandwidths are committed under the probe's owner ID, and the
// migration window closes. The shares, checked as CommitShares checks
// them, must fit the post-flip state before anything changes, so on error
// the window — and the holds protecting the new composition — survive for
// a retry or an abort. Conservation (Eqs. 4–5) holds at every observable
// point: the session is committed throughout, and the flip happens under
// one lock acquisition.
func (l *Ledger) MigrateSession(session, probe Owner, nodes []NodeShare, links []LinkShare) error {
	l.lock()
	defer l.unlock()
	old, ok := l.sessions[session]
	if !ok {
		return fmt.Errorf("state: migration source session %d not committed", session)
	}
	if l.migrations[probe] != session {
		return fmt.Errorf("state: probe %d is not migrating session %d", probe, session)
	}
	if _, ok := l.sessions[probe]; ok {
		return fmt.Errorf("state: session %d already committed", probe)
	}
	if err := l.nodes.fits(nodes, l.nodes.flipRoom(probe, old.nodes)); err != nil {
		return err
	}
	if err := l.links.fits(links, l.links.flipRoom(probe, old.links)); err != nil {
		return err
	}
	l.releaseOwner(probe)
	delete(l.migrations, probe)
	delete(l.sessions, session)
	l.sessions[probe] = sessionAlloc{nodes: l.nodes.flip(old.nodes, nodes), links: l.links.flip(old.links, links)}
	return nil
}

// flipRoom is what MigrateSession may take on id: the room left with
// the session's old shares freed and the probe's holds released.
func (b *book[A, M]) flipRoom(probe Owner, old []Share[A]) func(id int) A {
	return func(id int) A {
		freed, _ := shareOf(old, id)
		return b.m.add(b.m.add(b.available(id, ledgerClock), freed), b.heldBy(probe, id))
	}
}

// flip commits the new shares, then frees the old ones, and returns the
// session's copy of the new. The change observers fire once per touched
// id, after its committed amount reaches the post-flip value.
func (b *book[A, M]) flip(old, shares []Share[A]) []Share[A] {
	for _, s := range shares {
		b.accts[s.ID].committed = b.m.add(b.accts[s.ID].committed, s.Amount)
	}
	b.uncommit(old)
	for _, s := range shares {
		if _, freed := shareOf(old, s.ID); !freed {
			b.notify(s.ID)
		}
	}
	return slices.Clone(shares)
}

// credit returns the committed share on id that owner, registered as a
// migration probe, may reuse. With no migration in flight it costs an
// inlined length check.
func (b *book[A, M]) credit(owner Owner, id int) (amount A, ok bool) {
	if len(b.l.migrations) != 0 {
		amount, ok = b.sessionShare(owner, id)
	}
	return amount, ok
}

func (b *book[A, M]) sessionShare(owner Owner, id int) (amount A, ok bool) {
	if session, migrating := b.l.migrations[owner]; migrating {
		amount, ok = shareOf(b.share(b.l.sessions[session]), id)
	}
	return amount, ok
}

// windowOverlap is what the open migration windows count twice on id:
// each probe's holds there that reuse its session's committed share are
// in both committed and held, though only one can remain.
func (b *book[A, M]) windowOverlap(id int) A {
	var overlap A
	for probe, session := range b.l.migrations {
		if amount, ok := shareOf(b.share(b.l.sessions[session]), id); ok {
			overlap = b.m.add(overlap, b.m.min(amount, b.heldBy(probe, id)))
		}
	}
	return overlap
}

// heldBy sums owner's live transient holds on id.
func (b *book[A, M]) heldBy(owner Owner, id int) A {
	var sum A
	for _, h := range b.accts[id].holds {
		if h.owner == owner {
			sum = b.m.add(sum, h.amount)
		}
	}
	return sum
}

// minRes is the componentwise minimum of two resource vectors.
func minRes(a, b qos.Resources) qos.Resources {
	return qos.Resources{CPU: min(a.CPU, b.CPU), Memory: min(a.Memory, b.Memory)}
}

// CheckInvariants verifies the ledger's internal consistency: per-node
// and per-link held totals match their hold lists, committed amounts
// equal the sum of session allocations, and nothing exceeds capacity.
// Tests call it after stochastic operation sequences.
func (l *Ledger) CheckInvariants() error {
	l.lock()
	defer l.unlock()
	for probe, session := range l.migrations {
		if _, ok := l.sessions[session]; !ok {
			return fmt.Errorf("state: migration probe %d references unknown session %d", probe, session)
		}
		if _, ok := l.sessions[probe]; ok {
			return fmt.Errorf("state: migration probe %d already owns a committed session", probe)
		}
	}
	const eps = 1e-6
	if err := l.nodes.audit(qos.Resources{CPU: eps, Memory: eps}); err != nil {
		return err
	}
	return l.links.audit(eps)
}

// audit is CheckInvariants on this side; differences within tol are
// rounding.
func (b *book[A, M]) audit(tol A) error {
	committed := make([]A, len(b.accts))
	for owner, alloc := range b.l.sessions {
		for _, s := range b.share(alloc) {
			if s.ID < 0 || s.ID >= len(b.accts) {
				return fmt.Errorf("state: session %d references %s %d", owner, b.kind, s.ID)
			}
			committed[s.ID] = b.m.add(committed[s.ID], s.Amount)
		}
	}
	near := func(x, y A) bool { return b.m.covers(tol, b.m.sub(x, y)) && b.m.covers(tol, b.m.sub(y, x)) }
	var zero A
	for id := range b.accts {
		// A migration probe's holds legitimately overlap its source
		// session's committed share (make-before-break); credit that
		// overlap before the over-allocation check.
		avail := b.m.add(b.available(id, ledgerClock), b.windowOverlap(id))
		a := &b.accts[id]
		var heldSum A
		for _, h := range a.holds {
			heldSum = b.m.add(heldSum, h.amount)
		}
		if !near(heldSum, a.held) {
			return fmt.Errorf("state: %s %d held total %v != hold list sum %v", b.kind, id, a.held, heldSum)
		}
		if !near(committed[id], a.committed) {
			return fmt.Errorf("state: %s %d committed %v != session sum %v", b.kind, id, a.committed, committed[id])
		}
		if !b.m.covers(avail, b.m.sub(zero, tol)) {
			return fmt.Errorf("state: %s %d over-allocated: available %v", b.kind, id, avail)
		}
	}
	return nil
}
