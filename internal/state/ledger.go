// Package state implements the system's resource ground truth (the
// ledger) and the paper's hierarchical state management (§3.2):
// fine-grain precise local state plus a coarse-grain global state updated
// only on significant variations, with virtual-link states aggregated by
// a rotating aggregation node.
package state

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/overlay"
	"repro/internal/qos"
)

// Owner identifies the request (during probing) or session (after setup)
// that resources belong to.
type Owner int64

type nodeHold struct {
	owner   Owner
	tag     int // distinguishes components of one request (footnote 7)
	amount  qos.Resources
	expires time.Duration
}

type linkHold struct {
	owner   Owner
	tag     int // distinguishes virtual links of one request
	amount  float64
	expires time.Duration
}

type nodeLedger struct {
	capacity  qos.Resources
	committed qos.Resources
	held      qos.Resources
	holds     []nodeHold
}

type linkLedger struct {
	capacity  float64
	committed float64
	held      float64
	holds     []linkHold
}

type sessionAlloc struct {
	nodes map[int]qos.Resources
	links map[int]float64
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
	nodes    []nodeLedger
	links    []linkLedger
	sessions map[Owner]sessionAlloc

	// heldNodes and heldLinks list every node and link whose hold list
	// is non-empty (and some a sweep has yet to unlist).
	heldNodes holdIndex
	heldLinks holdIndex

	// migrations maps a re-probe owner to the committed session it is
	// re-composing make-before-break. While registered, the probe's
	// availability views and hold feasibility checks credit the source
	// session's committed allocation as reusable (footnote-8 discipline
	// applied to live state), so a re-composition is never blocked by —
	// or double-charged for — resources the session already owns.
	migrations map[Owner]Owner

	onNodeChange func(node int)
	onLinkChange func(link int)

	// mu, when non-nil, serializes every public operation. Change
	// observers fire with the lock held and must only use the package's
	// unlocked internals.
	mu *sync.Mutex
}

// NewLedger builds a ledger for the mesh with every node given nodeCap
// capacity and every overlay link its mesh capacity. The now function
// supplies virtual time for hold expiry.
func NewLedger(mesh *overlay.Mesh, nodeCap qos.Resources, now func() time.Duration) *Ledger {
	l := &Ledger{
		now:      now,
		nodes:    make([]nodeLedger, mesh.NumNodes()),
		links:    make([]linkLedger, mesh.NumLinks()),
		sessions: make(map[Owner]sessionAlloc),
	}
	l.heldNodes.listed = make([]bool, len(l.nodes))
	l.heldLinks.listed = make([]bool, len(l.links))
	for i := range l.nodes {
		l.nodes[i].capacity = nodeCap
	}
	for i := range l.links {
		l.links[i].capacity = mesh.Link(i).Capacity
	}
	return l
}

// EnableLocking makes the ledger safe for concurrent use by guarding
// every operation with a mutex. Call before sharing the ledger across
// goroutines; enabling is idempotent and cannot be undone.
func (l *Ledger) EnableLocking() {
	if l.mu == nil {
		l.mu = new(sync.Mutex)
	}
}

func (l *Ledger) lock() {
	if l.mu != nil {
		l.mu.Lock()
	}
}

func (l *Ledger) unlock() {
	if l.mu != nil {
		l.mu.Unlock()
	}
}

// SetChangeObservers registers callbacks fired after a node's or link's
// committed allocation changes. The global state subscribes here to apply
// its threshold-triggered update rule. Transient holds do not fire the
// observers: they are short-lived local state, never disseminated (§3.2).
// When locking is enabled the callbacks run with the ledger lock held.
func (l *Ledger) SetChangeObservers(onNode func(int), onLink func(int)) {
	l.onNodeChange = onNode
	l.onLinkChange = onLink
}

// NumNodes returns the number of tracked nodes.
func (l *Ledger) NumNodes() int { return len(l.nodes) }

// NumLinks returns the number of tracked overlay links.
func (l *Ledger) NumLinks() int { return len(l.links) }

// NodeCapacity returns the node's total capacity.
func (l *Ledger) NodeCapacity(node int) qos.Resources { return l.nodes[node].capacity }

// SetNodeCapacity overrides one node's capacity, supporting
// heterogeneous node classes (fast/slow/memory-constrained). Call it
// between NewLedger and NewGlobal: the global coarse views snapshot
// ledger capacities when built, and shrinking capacity below an
// existing committed+held allocation would corrupt the conservation
// invariants, so overrides on a live ledger are rejected.
func (l *Ledger) SetNodeCapacity(node int, capacity qos.Resources) error {
	l.lock()
	defer l.unlock()
	if node < 0 || node >= len(l.nodes) {
		return fmt.Errorf("state: node %d out of range", node)
	}
	if capacity.CPU <= 0 || capacity.Memory <= 0 {
		return fmt.Errorf("state: node %d capacity %+v must be positive", node, capacity)
	}
	n := &l.nodes[node]
	used := n.committed.Add(n.held)
	if used.CPU > 0 || used.Memory > 0 {
		return fmt.Errorf("state: node %d has live allocations %+v; set capacity before use", node, used)
	}
	n.capacity = capacity
	return nil
}

// LinkCapacity returns the link's total bandwidth capacity.
func (l *Ledger) LinkCapacity(link int) float64 { return l.links[link].capacity }

// ledgerClock, passed as the instant, makes purgeNode/purgeLink read the
// ledger's own clock — and only when there is a hold whose expiry the
// reading decides, so operations on an unheld node or link cost no clock
// read. A caller that brings its own instant (the *At methods) never
// triggers one.
const ledgerClock = time.Duration(math.MinInt64)

// purgeNode drops the node's holds that have expired by now. The hold
// slice is rewritten only from the first expired entry on: the common
// read finds nothing to drop and writes nothing.
func (l *Ledger) purgeNode(node int, now time.Duration) {
	n := &l.nodes[node]
	if len(n.holds) == 0 {
		return
	}
	if now == ledgerClock {
		now = l.now()
	}
	first := 0
	for first < len(n.holds) && n.holds[first].expires > now {
		first++
	}
	if first == len(n.holds) {
		return
	}
	kept := n.holds[:first]
	for _, h := range n.holds[first:] {
		if h.expires > now {
			kept = append(kept, h)
		} else {
			n.held = n.held.Sub(h.amount)
		}
	}
	n.holds = kept
}

func (l *Ledger) purgeLink(link int, now time.Duration) {
	lk := &l.links[link]
	if len(lk.holds) == 0 {
		return
	}
	if now == ledgerClock {
		now = l.now()
	}
	first := 0
	for first < len(lk.holds) && lk.holds[first].expires > now {
		first++
	}
	if first == len(lk.holds) {
		return
	}
	kept := lk.holds[:first]
	for _, h := range lk.holds[first:] {
		if h.expires > now {
			kept = append(kept, h)
		} else {
			lk.held -= h.amount
		}
	}
	lk.holds = kept
}

// NodeAvailable returns the node's currently available resources: the
// precise local state a probe reads at the node itself — capacity minus
// committed sessions minus live transient holds.
func (l *Ledger) NodeAvailable(node int) qos.Resources {
	l.lock()
	defer l.unlock()
	return l.nodeAvailable(node, ledgerClock)
}

func (l *Ledger) nodeAvailable(node int, now time.Duration) qos.Resources {
	l.purgeNode(node, now)
	n := &l.nodes[node]
	return n.capacity.Sub(n.committed).Sub(n.held)
}

// NodeCommittedAvailable returns capacity minus committed sessions only,
// ignoring transient holds. This is what the coarse global state
// disseminates, since holds are never reported beyond the local node.
func (l *Ledger) NodeCommittedAvailable(node int) qos.Resources {
	l.lock()
	defer l.unlock()
	return l.nodeCommittedAvailable(node)
}

func (l *Ledger) nodeCommittedAvailable(node int) qos.Resources {
	n := &l.nodes[node]
	return n.capacity.Sub(n.committed)
}

// LinkAvailable returns the link's precise available bandwidth.
func (l *Ledger) LinkAvailable(link int) float64 {
	l.lock()
	defer l.unlock()
	return l.linkAvailable(link, ledgerClock)
}

func (l *Ledger) linkAvailable(link int, now time.Duration) float64 {
	l.purgeLink(link, now)
	lk := &l.links[link]
	return lk.capacity - lk.committed - lk.held
}

// LinkCommittedAvailable returns capacity minus committed bandwidth,
// ignoring transient holds.
func (l *Ledger) LinkCommittedAvailable(link int) float64 {
	l.lock()
	defer l.unlock()
	return l.linkCommittedAvailable(link)
}

func (l *Ledger) linkCommittedAvailable(link int) float64 {
	lk := &l.links[link]
	return lk.capacity - lk.committed
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
		avail = min(avail, l.linkAvailable(id, ledgerClock))
	}
	return avail
}

// HoldNode places a transient resource allocation for owner's component
// tag on the node, expiring at the given virtual time unless promoted by
// CommitSession. It fails (returning false) when the node cannot
// currently cover the amount. Each node reserves resources once per
// component per request (footnote 7): a second hold with the same owner
// and tag — another concurrent probe of the same request visiting the
// same component — is a no-op success.
func (l *Ledger) HoldNode(owner Owner, tag, node int, amount qos.Resources, expires time.Duration) bool {
	ok, _ := l.HoldNodeTrackedAt(ledgerClock, owner, tag, node, amount, expires)
	return ok
}

// HoldNodeTracked is HoldNode, additionally reporting whether this call
// created a new hold: created is false both on failure and when an
// existing (owner, tag) hold made the call an idempotent no-op. Callers
// that must undo a partially-placed reservation release exactly the
// holds they created, leaving holds placed by sibling probes intact.
func (l *Ledger) HoldNodeTracked(owner Owner, tag, node int, amount qos.Resources, expires time.Duration) (ok, created bool) {
	return l.HoldNodeTrackedAt(ledgerClock, owner, tag, node, amount, expires)
}

// HoldNodeTrackedAt is HoldNodeTracked with the caller's instant in
// place of a read of the ledger's clock: a probe walk reads the clock
// once and every hold it places expires stale holds as of that instant.
// An instant behind the clock only keeps an expired hold counted a
// little longer — it can refuse a hold, never over-admit one.
func (l *Ledger) HoldNodeTrackedAt(now time.Duration, owner Owner, tag, node int, amount qos.Resources, expires time.Duration) (ok, created bool) {
	l.lock()
	defer l.unlock()
	l.purgeNode(node, now)
	n := &l.nodes[node]
	for _, h := range n.holds {
		if h.owner == owner && h.tag == tag {
			return true, false
		}
	}
	avail := n.capacity.Sub(n.committed).Sub(n.held)
	if credit, ok := l.migrationNodeCredit(owner, node); ok {
		// Make-before-break: the probe may reuse its source session's
		// committed share on this node, but only once — feasibility
		// requires the part of (existing holds + amount) beyond the
		// reusable share to fit the true availability.
		avail = avail.Add(minRes(l.nodeHeldBy(owner, node).Add(amount), credit))
	}
	if !avail.Covers(amount) {
		return false, false
	}
	n.holds = append(n.holds, nodeHold{owner: owner, tag: tag, amount: amount, expires: expires})
	n.held = n.held.Add(amount)
	l.heldNodes.add(node)
	return true, true
}

// HoldLink places a transient bandwidth allocation on an overlay link.
// Like HoldNode it is idempotent per (owner, tag).
func (l *Ledger) HoldLink(owner Owner, tag, link int, amount float64, expires time.Duration) bool {
	ok, _ := l.HoldLinkTrackedAt(ledgerClock, owner, tag, link, amount, expires)
	return ok
}

// HoldLinkTracked is HoldLink, additionally reporting whether this call
// created a new hold (see HoldNodeTracked).
func (l *Ledger) HoldLinkTracked(owner Owner, tag, link int, amount float64, expires time.Duration) (ok, created bool) {
	return l.HoldLinkTrackedAt(ledgerClock, owner, tag, link, amount, expires)
}

// HoldLinkTrackedAt is HoldLinkTracked at the caller's instant (see
// HoldNodeTrackedAt).
func (l *Ledger) HoldLinkTrackedAt(now time.Duration, owner Owner, tag, link int, amount float64, expires time.Duration) (ok, created bool) {
	l.lock()
	defer l.unlock()
	l.purgeLink(link, now)
	lk := &l.links[link]
	for _, h := range lk.holds {
		if h.owner == owner && h.tag == tag {
			return true, false
		}
	}
	avail := lk.capacity - lk.committed - lk.held
	if credit, ok := l.migrationLinkCredit(owner, link); ok {
		avail += math.Min(l.linkHeldBy(owner, link)+amount, credit)
	}
	if avail < amount {
		return false, false
	}
	lk.holds = append(lk.holds, linkHold{owner: owner, tag: tag, amount: amount, expires: expires})
	lk.held += amount
	l.heldLinks.add(link)
	return true, true
}

// ReleaseNodeHold cancels owner's tag hold on the node, if present. A
// probe that fails mid-reservation uses this to return exactly what it
// placed instead of leaking the partial holds until ReleaseOwner.
func (l *Ledger) ReleaseNodeHold(owner Owner, tag, node int) {
	l.lock()
	defer l.unlock()
	n := &l.nodes[node]
	for i, h := range n.holds {
		if h.owner == owner && h.tag == tag {
			n.held = n.held.Sub(h.amount)
			n.holds = append(n.holds[:i], n.holds[i+1:]...)
			return
		}
	}
}

// ReleaseLinkHold cancels owner's tag hold on the overlay link, if
// present.
func (l *Ledger) ReleaseLinkHold(owner Owner, tag, link int) {
	l.lock()
	defer l.unlock()
	lk := &l.links[link]
	for i, h := range lk.holds {
		if h.owner == owner && h.tag == tag {
			lk.held -= h.amount
			lk.holds = append(lk.holds[:i], lk.holds[i+1:]...)
			return
		}
	}
}

// NodeAvailableFor returns the node's available resources from owner's
// perspective: precise availability with owner's own transient holds
// credited back. The deputy evaluates candidate compositions with this
// view so a request is not blocked by its own reservations. An owner
// registered as a migration probe is additionally credited its source
// session's committed share on the node.
func (l *Ledger) NodeAvailableFor(owner Owner, node int) qos.Resources {
	return l.NodeAvailableForAt(ledgerClock, owner, node)
}

// NodeAvailableForAt is NodeAvailableFor at the caller's instant (see
// HoldNodeTrackedAt). A probe walk reads it once per node and scores
// every probe from that one value.
func (l *Ledger) NodeAvailableForAt(now time.Duration, owner Owner, node int) qos.Resources {
	l.lock()
	defer l.unlock()
	avail := l.nodeAvailable(node, now)
	for _, h := range l.nodes[node].holds {
		if h.owner == owner {
			avail = avail.Add(h.amount)
		}
	}
	if credit, ok := l.migrationNodeCredit(owner, node); ok {
		avail = avail.Add(credit)
	}
	return avail
}

// LinkAvailableFor returns the link's available bandwidth with owner's
// own holds credited back.
func (l *Ledger) LinkAvailableFor(owner Owner, link int) float64 {
	return l.LinkAvailableForAt(ledgerClock, owner, link)
}

// LinkAvailableForAt is LinkAvailableFor at the caller's instant (see
// HoldNodeTrackedAt).
func (l *Ledger) LinkAvailableForAt(now time.Duration, owner Owner, link int) float64 {
	l.lock()
	defer l.unlock()
	avail := l.linkAvailable(link, now)
	for _, h := range l.links[link].holds {
		if h.owner == owner {
			avail += h.amount
		}
	}
	if credit, ok := l.migrationLinkCredit(owner, link); ok {
		avail += credit
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

// releaseOwner sweeps the hold index backwards, so that unlisting an
// empty entry (which moves the last, already visited, id into its place)
// skips nothing.
func (l *Ledger) releaseOwner(owner Owner) {
	for i := len(l.heldNodes.ids) - 1; i >= 0; i-- {
		node := l.heldNodes.ids[i]
		n := &l.nodes[node]
		kept := n.holds[:0]
		for _, h := range n.holds {
			if h.owner == owner {
				n.held = n.held.Sub(h.amount)
			} else {
				kept = append(kept, h)
			}
		}
		n.holds = kept
		if len(kept) == 0 {
			l.heldNodes.dropAt(i)
		}
	}
	for i := len(l.heldLinks.ids) - 1; i >= 0; i-- {
		link := l.heldLinks.ids[i]
		lk := &l.links[link]
		kept := lk.holds[:0]
		for _, h := range lk.holds {
			if h.owner == owner {
				lk.held -= h.amount
			} else {
				kept = append(kept, h)
			}
		}
		lk.holds = kept
		if len(kept) == 0 {
			l.heldLinks.dropAt(i)
		}
	}
}

// CommitSession converts a composition decision into a durable session
// allocation: owner's transient holds are released and the given per-node
// resources and per-link bandwidths are committed. On failure (some node
// or link cannot cover its share) nothing is committed, but the owner's
// transient holds stay released — the request has failed and the paper's
// protocol would let them time out regardless.
func (l *Ledger) CommitSession(owner Owner, nodes map[int]qos.Resources, links map[int]float64) error {
	l.lock()
	defer l.unlock()
	if _, ok := l.sessions[owner]; ok {
		return fmt.Errorf("state: session %d already committed", owner)
	}
	if prev, ok := l.migrations[owner]; ok {
		return fmt.Errorf("state: owner %d is migrating session %d; use MigrateSession", owner, prev)
	}
	l.releaseOwner(owner)
	// What open migration windows count twice is room: only one of the
	// session's share and its probe's reusing holds can remain.
	for node, amount := range nodes {
		if !l.nodeAvailable(node, ledgerClock).Add(l.windowOverlapNode(node)).Covers(amount) {
			return fmt.Errorf("state: node %d cannot cover %v", node, amount)
		}
	}
	for link, bw := range links {
		if l.linkAvailable(link, ledgerClock)+l.windowOverlapLink(link) < bw {
			return fmt.Errorf("state: link %d cannot cover %.1f kbps", link, bw)
		}
	}
	alloc := sessionAlloc{nodes: make(map[int]qos.Resources, len(nodes)), links: make(map[int]float64, len(links))}
	for node, amount := range nodes {
		l.nodes[node].committed = l.nodes[node].committed.Add(amount)
		alloc.nodes[node] = amount
		l.notifyNode(node)
	}
	for link, bw := range links {
		l.links[link].committed += bw
		alloc.links[link] = bw
		l.notifyLink(link)
	}
	l.sessions[owner] = alloc
	return nil
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
	for node, amount := range alloc.nodes {
		l.nodes[node].committed = l.nodes[node].committed.Sub(amount)
		l.notifyNode(node)
	}
	for link, bw := range alloc.links {
		l.links[link].committed -= bw
		l.notifyLink(link)
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
// migration window closes. Feasibility of the post-flip state is checked
// before any mutation, so on error the window — and the holds protecting
// the new composition — survive for a retry or an abort. Conservation
// (Eqs. 4–5) holds at every observable point: the session is committed
// throughout, and the flip happens under one lock acquisition.
func (l *Ledger) MigrateSession(session, probe Owner, nodes map[int]qos.Resources, links map[int]float64) error {
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
	// Post-flip feasibility: with the old allocation freed and the
	// probe's holds released, every new share must fit. Keys are sorted
	// so error selection is deterministic.
	nodeIDs := make([]int, 0, len(nodes))
	for node := range nodes {
		nodeIDs = append(nodeIDs, node)
	}
	sort.Ints(nodeIDs)
	for _, node := range nodeIDs {
		if node < 0 || node >= len(l.nodes) {
			return fmt.Errorf("state: migration references node %d", node)
		}
		l.purgeNode(node, ledgerClock)
		n := &l.nodes[node]
		avail := n.capacity.Sub(n.committed).Sub(n.held).Add(old.nodes[node]).Add(l.nodeHeldBy(probe, node))
		if !avail.Covers(nodes[node]) {
			return fmt.Errorf("state: node %d cannot cover %v post-flip", node, nodes[node])
		}
	}
	linkIDs := make([]int, 0, len(links))
	for link := range links {
		linkIDs = append(linkIDs, link)
	}
	sort.Ints(linkIDs)
	for _, link := range linkIDs {
		if link < 0 || link >= len(l.links) {
			return fmt.Errorf("state: migration references link %d", link)
		}
		l.purgeLink(link, ledgerClock)
		lk := &l.links[link]
		if lk.capacity-lk.committed-lk.held+old.links[link]+l.linkHeldBy(probe, link) < links[link] {
			return fmt.Errorf("state: link %d cannot cover %.1f kbps post-flip", link, links[link])
		}
	}
	// Flip. Change observers fire once per touched node/link, after its
	// committed amount reaches the post-flip value.
	l.releaseOwner(probe)
	delete(l.migrations, probe)
	delete(l.sessions, session)
	alloc := sessionAlloc{nodes: make(map[int]qos.Resources, len(nodes)), links: make(map[int]float64, len(links))}
	for _, node := range nodeIDs {
		l.nodes[node].committed = l.nodes[node].committed.Add(nodes[node])
		alloc.nodes[node] = nodes[node]
	}
	oldNodeIDs := make([]int, 0, len(old.nodes))
	for node := range old.nodes {
		oldNodeIDs = append(oldNodeIDs, node)
	}
	sort.Ints(oldNodeIDs)
	for _, node := range oldNodeIDs {
		l.nodes[node].committed = l.nodes[node].committed.Sub(old.nodes[node])
	}
	for _, link := range linkIDs {
		l.links[link].committed += links[link]
		alloc.links[link] = links[link]
	}
	oldLinkIDs := make([]int, 0, len(old.links))
	for link := range old.links {
		oldLinkIDs = append(oldLinkIDs, link)
	}
	sort.Ints(oldLinkIDs)
	for _, link := range oldLinkIDs {
		l.links[link].committed -= old.links[link]
	}
	l.sessions[probe] = alloc
	for _, node := range mergedIDs(nodeIDs, oldNodeIDs) {
		l.notifyNode(node)
	}
	for _, link := range mergedIDs(linkIDs, oldLinkIDs) {
		l.notifyLink(link)
	}
	return nil
}

// mergedIDs unions two sorted ID slices, preserving order.
func mergedIDs(a, b []int) []int {
	out := make([]int, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j >= len(b) || (i < len(a) && a[i] < b[j]):
			out = append(out, a[i])
			i++
		case i >= len(a) || b[j] < a[i]:
			out = append(out, b[j])
			j++
		default: // equal
			out = append(out, a[i])
			i, j = i+1, j+1
		}
	}
	return out
}

// migrationNodeCredit returns the reusable committed share on node for
// an owner registered as a migration probe. Zero-cost when no migration
// is in flight.
func (l *Ledger) migrationNodeCredit(owner Owner, node int) (qos.Resources, bool) {
	if len(l.migrations) == 0 {
		return qos.Resources{}, false
	}
	session, ok := l.migrations[owner]
	if !ok {
		return qos.Resources{}, false
	}
	amount, ok := l.sessions[session].nodes[node]
	return amount, ok
}

// migrationLinkCredit is migrationNodeCredit for overlay links.
func (l *Ledger) migrationLinkCredit(owner Owner, link int) (float64, bool) {
	if len(l.migrations) == 0 {
		return 0, false
	}
	session, ok := l.migrations[owner]
	if !ok {
		return 0, false
	}
	bw, ok := l.sessions[session].links[link]
	return bw, ok
}

// windowOverlapNode is what the open migration windows count twice on
// the node: each probe's holds there that reuse its session's committed
// share are in both committed and held, though only one can remain.
func (l *Ledger) windowOverlapNode(node int) qos.Resources {
	var overlap qos.Resources
	for probe, session := range l.migrations {
		if amount, ok := l.sessions[session].nodes[node]; ok {
			overlap = overlap.Add(minRes(amount, l.nodeHeldBy(probe, node)))
		}
	}
	return overlap
}

// windowOverlapLink is windowOverlapNode for overlay links.
func (l *Ledger) windowOverlapLink(link int) float64 {
	overlap := 0.0
	for probe, session := range l.migrations {
		if bw, ok := l.sessions[session].links[link]; ok {
			overlap += math.Min(bw, l.linkHeldBy(probe, link))
		}
	}
	return overlap
}

// nodeHeldBy sums owner's live transient holds on the node.
func (l *Ledger) nodeHeldBy(owner Owner, node int) qos.Resources {
	var sum qos.Resources
	for _, h := range l.nodes[node].holds {
		if h.owner == owner {
			sum = sum.Add(h.amount)
		}
	}
	return sum
}

// linkHeldBy sums owner's live transient holds on the overlay link.
func (l *Ledger) linkHeldBy(owner Owner, link int) float64 {
	sum := 0.0
	for _, h := range l.links[link].holds {
		if h.owner == owner {
			sum += h.amount
		}
	}
	return sum
}

// minRes is the componentwise minimum of two resource vectors.
func minRes(a, b qos.Resources) qos.Resources {
	return qos.Resources{CPU: min(a.CPU, b.CPU), Memory: min(a.Memory, b.Memory)}
}

func (l *Ledger) notifyNode(node int) {
	if l.onNodeChange != nil {
		l.onNodeChange(node)
	}
}

func (l *Ledger) notifyLink(link int) {
	if l.onLinkChange != nil {
		l.onLinkChange(link)
	}
}

// CheckInvariants verifies the ledger's internal consistency: per-node
// and per-link held totals match their hold lists, committed amounts
// equal the sum of session allocations, and nothing exceeds capacity.
// Tests call it after stochastic operation sequences.
func (l *Ledger) CheckInvariants() error {
	l.lock()
	defer l.unlock()
	committedNodes := make([]qos.Resources, len(l.nodes))
	committedLinks := make([]float64, len(l.links))
	for owner, alloc := range l.sessions {
		for node, amount := range alloc.nodes {
			if node < 0 || node >= len(l.nodes) {
				return fmt.Errorf("state: session %d references node %d", owner, node)
			}
			committedNodes[node] = committedNodes[node].Add(amount)
		}
		for link, bw := range alloc.links {
			if link < 0 || link >= len(l.links) {
				return fmt.Errorf("state: session %d references link %d", owner, link)
			}
			committedLinks[link] += bw
		}
	}
	for probe, session := range l.migrations {
		if _, ok := l.sessions[session]; !ok {
			return fmt.Errorf("state: migration probe %d references unknown session %d", probe, session)
		}
		if _, ok := l.sessions[probe]; ok {
			return fmt.Errorf("state: migration probe %d already owns a committed session", probe)
		}
	}
	const eps = 1e-6
	for i := range l.nodes {
		l.purgeNode(i, ledgerClock)
		n := &l.nodes[i]
		var heldSum qos.Resources
		for _, h := range n.holds {
			heldSum = heldSum.Add(h.amount)
		}
		if d := heldSum.Sub(n.held); d.CPU > eps || d.CPU < -eps || d.Memory > eps || d.Memory < -eps {
			return fmt.Errorf("state: node %d held total %v != hold list sum %v", i, n.held, heldSum)
		}
		if d := committedNodes[i].Sub(n.committed); d.CPU > eps || d.CPU < -eps || d.Memory > eps || d.Memory < -eps {
			return fmt.Errorf("state: node %d committed %v != session sum %v", i, n.committed, committedNodes[i])
		}
		// A migration probe's holds legitimately overlap its source
		// session's committed share (make-before-break); credit that
		// overlap before the over-allocation check.
		if avail := n.capacity.Sub(n.committed).Sub(n.held).Add(l.windowOverlapNode(i)); avail.CPU < -eps || avail.Memory < -eps {
			return fmt.Errorf("state: node %d over-allocated: available %v", i, avail)
		}
	}
	for i := range l.links {
		l.purgeLink(i, ledgerClock)
		lk := &l.links[i]
		heldSum := 0.0
		for _, h := range lk.holds {
			heldSum += h.amount
		}
		if d := heldSum - lk.held; d > eps || d < -eps {
			return fmt.Errorf("state: link %d held total %v != hold list sum %v", i, lk.held, heldSum)
		}
		if d := committedLinks[i] - lk.committed; d > eps || d < -eps {
			return fmt.Errorf("state: link %d committed %v != session sum %v", i, lk.committed, committedLinks[i])
		}
		if avail := lk.capacity - lk.committed - lk.held + l.windowOverlapLink(i); avail < -eps {
			return fmt.Errorf("state: link %d over-allocated: available %v", i, avail)
		}
	}
	return nil
}
