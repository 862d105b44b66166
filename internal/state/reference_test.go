package state

import (
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/overlay"
	"repro/internal/qos"
)

// referenceLedger is Ledger as it was before nodes and links shared one
// generic account: the node and link bookkeeping written out twice, each
// with its own arithmetic (qos.Resources methods and the builtin min on
// nodes; float64 operators and math.Min on links). It keeps the
// operations FuzzLedgerMatchesReference drives, without the lock and the
// change observers, which decide nothing. The fuzz target holds Ledger to
// it bit for bit.
type referenceLedger struct {
	now        func() time.Duration
	nodes      []refNodeLedger
	links      []refLinkLedger
	sessions   map[Owner]refSessionAlloc
	heldNodes  holdIndex
	heldLinks  holdIndex
	migrations map[Owner]Owner
}

type refNodeHold struct {
	owner   Owner
	tag     int
	amount  qos.Resources
	expires time.Duration
}

type refLinkHold struct {
	owner   Owner
	tag     int
	amount  float64
	expires time.Duration
}

type refNodeLedger struct {
	capacity  qos.Resources
	committed qos.Resources
	held      qos.Resources
	holds     []refNodeHold
}

type refLinkLedger struct {
	capacity  float64
	committed float64
	held      float64
	holds     []refLinkHold
}

type refSessionAlloc struct {
	nodes map[int]qos.Resources
	links map[int]float64
}

func newReferenceLedger(mesh *overlay.Mesh, nodeCap qos.Resources, now func() time.Duration) *referenceLedger {
	l := &referenceLedger{
		now:      now,
		nodes:    make([]refNodeLedger, mesh.NumNodes()),
		links:    make([]refLinkLedger, mesh.NumLinks()),
		sessions: make(map[Owner]refSessionAlloc),
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

func (l *referenceLedger) purgeNode(node int, now time.Duration) {
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
	if len(kept) == 0 {
		n.held = qos.Resources{}
	}
}

func (l *referenceLedger) purgeLink(link int, now time.Duration) {
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
	if len(kept) == 0 {
		lk.held = 0
	}
}

func (l *referenceLedger) nodeAvailable(node int, now time.Duration) qos.Resources {
	l.purgeNode(node, now)
	n := &l.nodes[node]
	return n.capacity.Sub(n.committed).Sub(n.held)
}

func (l *referenceLedger) NodeCommittedAvailable(node int) qos.Resources {
	n := &l.nodes[node]
	return n.capacity.Sub(n.committed)
}

func (l *referenceLedger) linkAvailable(link int, now time.Duration) float64 {
	l.purgeLink(link, now)
	lk := &l.links[link]
	return lk.capacity - lk.committed - lk.held
}

func (l *referenceLedger) LinkCommittedAvailable(link int) float64 {
	lk := &l.links[link]
	return lk.capacity - lk.committed
}

func (l *referenceLedger) HoldNodeTrackedAt(now time.Duration, owner Owner, tag, node int, amount qos.Resources, expires time.Duration) (ok, created bool) {
	l.purgeNode(node, now)
	n := &l.nodes[node]
	for _, h := range n.holds {
		if h.owner == owner && h.tag == tag {
			return true, false
		}
	}
	avail := n.capacity.Sub(n.committed).Sub(n.held)
	if credit, ok := l.migrationNodeCredit(owner, node); ok {
		avail = avail.Add(minRes(l.nodeHeldBy(owner, node).Add(amount), credit))
	}
	if !avail.Covers(amount) {
		return false, false
	}
	n.holds = append(n.holds, refNodeHold{owner: owner, tag: tag, amount: amount, expires: expires})
	n.held = n.held.Add(amount)
	l.heldNodes.add(node)
	return true, true
}

func (l *referenceLedger) HoldLinkTrackedAt(now time.Duration, owner Owner, tag, link int, amount float64, expires time.Duration) (ok, created bool) {
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
	lk.holds = append(lk.holds, refLinkHold{owner: owner, tag: tag, amount: amount, expires: expires})
	lk.held += amount
	l.heldLinks.add(link)
	return true, true
}

func (l *referenceLedger) ReleaseNodeHold(owner Owner, tag, node int) {
	n := &l.nodes[node]
	for i, h := range n.holds {
		if h.owner == owner && h.tag == tag {
			n.held = n.held.Sub(h.amount)
			n.holds = append(n.holds[:i], n.holds[i+1:]...)
			if len(n.holds) == 0 {
				n.held = qos.Resources{}
			}
			return
		}
	}
}

func (l *referenceLedger) ReleaseLinkHold(owner Owner, tag, link int) {
	lk := &l.links[link]
	for i, h := range lk.holds {
		if h.owner == owner && h.tag == tag {
			lk.held -= h.amount
			lk.holds = append(lk.holds[:i], lk.holds[i+1:]...)
			if len(lk.holds) == 0 {
				lk.held = 0
			}
			return
		}
	}
}

// HoldHopAt is a hop as the walk placed it one hold at a time: the node
// holds, then the link holds in route order, and at a refusal the holds
// those calls created released again.
func (l *referenceLedger) HoldHopAt(now time.Duration, owner Owner, tag int, nodes []NodeShare, links []LinkShare, expires time.Duration) HopResult {
	var madeNodes, madeLinks []int
	undo := func() {
		for _, n := range madeNodes {
			l.ReleaseNodeHold(owner, tag, n)
		}
		for _, k := range madeLinks {
			l.ReleaseLinkHold(owner, tag, k)
		}
	}
	for _, s := range nodes {
		ok, created := l.HoldNodeTrackedAt(now, owner, tag, s.ID, s.Amount, expires)
		if !ok {
			undo()
			return HopNodeRefused
		}
		if created {
			madeNodes = append(madeNodes, s.ID)
		}
	}
	for _, s := range links {
		ok, created := l.HoldLinkTrackedAt(now, owner, tag, s.ID, s.Amount, expires)
		if !ok {
			undo()
			return HopLinkRefused
		}
		if created {
			madeLinks = append(madeLinks, s.ID)
		}
	}
	return HopHeld
}

func (l *referenceLedger) NodeAvailableForAt(now time.Duration, owner Owner, node int) qos.Resources {
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

func (l *referenceLedger) LinkAvailableForAt(now time.Duration, owner Owner, link int) float64 {
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

func (l *referenceLedger) ReleaseOwner(owner Owner) {
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
			n.held = qos.Resources{}
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
			lk.held = 0
			l.heldLinks.dropAt(i)
		}
	}
}

// CommitShares is commitSession over dense shares. A map cannot carry a
// repeated id, so the reference refuses one itself, at the point Ledger
// does: after the owner checks and the hold release, before any commit.
func (l *referenceLedger) CommitShares(owner Owner, nodes []NodeShare, links []LinkShare) error {
	nm, lm, dup := refMaps(nodes, links)
	if !dup {
		return l.commitSession(owner, nm, lm)
	}
	_, committed := l.sessions[owner]
	if _, migrating := l.migrations[owner]; !committed && !migrating {
		l.ReleaseOwner(owner)
	}
	return fmt.Errorf("state: session %d lists an id twice", owner)
}

// MigrateSession is migrateSession over dense shares; a repeated id is
// refused before anything changes, as Ledger refuses it.
func (l *referenceLedger) MigrateSession(session, probe Owner, nodes []NodeShare, links []LinkShare) error {
	nm, lm, dup := refMaps(nodes, links)
	if dup {
		return fmt.Errorf("state: migration of session %d lists an id twice", session)
	}
	return l.migrateSession(session, probe, nm, lm)
}

// refMaps renders dense shares in the reference's map form, reporting
// whether some id repeats.
func refMaps(nodes []NodeShare, links []LinkShare) (map[int]qos.Resources, map[int]float64, bool) {
	nm, lm := make(map[int]qos.Resources, len(nodes)), make(map[int]float64, len(links))
	for _, s := range nodes {
		nm[s.ID] = s.Amount
	}
	for _, s := range links {
		lm[s.ID] = s.Amount
	}
	return nm, lm, len(nm) < len(nodes) || len(lm) < len(links)
}

func (l *referenceLedger) commitSession(owner Owner, nodes map[int]qos.Resources, links map[int]float64) error {
	if _, ok := l.sessions[owner]; ok {
		return fmt.Errorf("state: session %d already committed", owner)
	}
	if prev, ok := l.migrations[owner]; ok {
		return fmt.Errorf("state: owner %d is migrating session %d; use MigrateSession", owner, prev)
	}
	l.ReleaseOwner(owner)
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
	alloc := refSessionAlloc{nodes: make(map[int]qos.Resources, len(nodes)), links: make(map[int]float64, len(links))}
	for node, amount := range nodes {
		l.nodes[node].committed = l.nodes[node].committed.Add(amount)
		alloc.nodes[node] = amount
	}
	for link, bw := range links {
		l.links[link].committed += bw
		alloc.links[link] = bw
	}
	l.sessions[owner] = alloc
	return nil
}

func (l *referenceLedger) ReleaseSession(owner Owner) {
	alloc, ok := l.sessions[owner]
	if !ok {
		return
	}
	delete(l.sessions, owner)
	for probe, session := range l.migrations {
		if session == owner {
			delete(l.migrations, probe)
		}
	}
	for node, amount := range alloc.nodes {
		l.nodes[node].committed = l.nodes[node].committed.Sub(amount)
	}
	for link, bw := range alloc.links {
		l.links[link].committed -= bw
	}
}

func (l *referenceLedger) BeginMigration(probe, session Owner) error {
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

func (l *referenceLedger) EndMigration(probe Owner) {
	delete(l.migrations, probe)
}

func (l *referenceLedger) AbortMigration(probe Owner) {
	delete(l.migrations, probe)
	l.ReleaseOwner(probe)
}

func (l *referenceLedger) migrateSession(session, probe Owner, nodes map[int]qos.Resources, links map[int]float64) error {
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
	l.ReleaseOwner(probe)
	delete(l.migrations, probe)
	delete(l.sessions, session)
	alloc := refSessionAlloc{nodes: make(map[int]qos.Resources, len(nodes)), links: make(map[int]float64, len(links))}
	for _, node := range nodeIDs {
		l.nodes[node].committed = l.nodes[node].committed.Add(nodes[node])
		alloc.nodes[node] = nodes[node]
	}
	for node, amount := range old.nodes {
		l.nodes[node].committed = l.nodes[node].committed.Sub(amount)
	}
	for _, link := range linkIDs {
		l.links[link].committed += links[link]
		alloc.links[link] = links[link]
	}
	for link, bw := range old.links {
		l.links[link].committed -= bw
	}
	l.sessions[probe] = alloc
	return nil
}

func (l *referenceLedger) migrationNodeCredit(owner Owner, node int) (qos.Resources, bool) {
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

func (l *referenceLedger) migrationLinkCredit(owner Owner, link int) (float64, bool) {
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

func (l *referenceLedger) windowOverlapNode(node int) qos.Resources {
	var overlap qos.Resources
	for probe, session := range l.migrations {
		if amount, ok := l.sessions[session].nodes[node]; ok {
			overlap = overlap.Add(minRes(amount, l.nodeHeldBy(probe, node)))
		}
	}
	return overlap
}

func (l *referenceLedger) windowOverlapLink(link int) float64 {
	overlap := 0.0
	for probe, session := range l.migrations {
		if bw, ok := l.sessions[session].links[link]; ok {
			overlap += math.Min(bw, l.linkHeldBy(probe, link))
		}
	}
	return overlap
}

func (l *referenceLedger) nodeHeldBy(owner Owner, node int) qos.Resources {
	var sum qos.Resources
	for _, h := range l.nodes[node].holds {
		if h.owner == owner {
			sum = sum.Add(h.amount)
		}
	}
	return sum
}

func (l *referenceLedger) linkHeldBy(owner Owner, link int) float64 {
	sum := 0.0
	for _, h := range l.links[link].holds {
		if h.owner == owner {
			sum += h.amount
		}
	}
	return sum
}

func (l *referenceLedger) CheckInvariants() error {
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

func (l *referenceLedger) ActiveSessions() int { return len(l.sessions) }

// fuzzedLedger is what FuzzLedgerMatchesReference drives on Ledger and on
// referenceLedger alike.
type fuzzedLedger interface {
	HoldNodeTrackedAt(now time.Duration, owner Owner, tag, node int, amount qos.Resources, expires time.Duration) (ok, created bool)
	HoldLinkTrackedAt(now time.Duration, owner Owner, tag, link int, amount float64, expires time.Duration) (ok, created bool)
	HoldHopAt(now time.Duration, owner Owner, tag int, nodes []NodeShare, links []LinkShare, expires time.Duration) HopResult
	ReleaseNodeHold(owner Owner, tag, node int)
	ReleaseLinkHold(owner Owner, tag, link int)
	ReleaseOwner(owner Owner)
	CommitShares(owner Owner, nodes []NodeShare, links []LinkShare) error
	ReleaseSession(owner Owner)
	BeginMigration(probe, session Owner) error
	EndMigration(probe Owner)
	AbortMigration(probe Owner)
	MigrateSession(session, probe Owner, nodes []NodeShare, links []LinkShare) error
	NodeAvailableForAt(now time.Duration, owner Owner, node int) qos.Resources
	LinkAvailableForAt(now time.Duration, owner Owner, link int) float64
	NodeCommittedAvailable(node int) qos.Resources
	LinkCommittedAvailable(link int) float64
	ActiveSessions() int
	CheckInvariants() error
}

// refOp is one decoded fuzz operation: what it does to a ledger, and the
// instant the reads after it are taken at.
type refOp struct {
	name   string
	run    func(l fuzzedLedger) string
	readAt time.Duration
}

// decodeRefOp decodes four bytes as applyCeilingOp does — codes 0–8 mean
// the same, so the ceiling corpus seeds this target too — and adds what
// that function lacks: ReleaseLinkHold (9), EndMigration (10), a hold
// placed at an instant the clock has just moved past (11), as by a walk
// that read the clock before it advanced, and holds of exactly what the
// owner reads on a node (12) or link (13), which land on the boundary of
// every feasibility check. A hop (14) holds one node, or the two of a
// commit's shares, then three links in route order — the second wraps
// onto the first now and then — as one HoldHopAt. Holds report whether
// they created one (a hop, how it ended), and
// take the instant op[0]/15 picks: the ledger's clock,
// half a hold timeout behind it, or half a timeout ahead. A clock advance
// is applied here, once for both ledgers, and is read across at the
// instant before it.
func (r *ceilingRig) decodeRefOp(op [4]byte) refOp {
	l := r.l
	owner := Owner(1 + op[1]%ceilingOwners)
	tag := int(op[1]>>4) % 3
	node := int(op[2]) % l.NumNodes()
	link := int(op[2]) % l.NumLinks()
	amount := r.share(node, op[3]%128)
	other := (node + 1 + int(op[1]>>4)) % l.NumNodes()
	// other wraps onto node now and then: a session that lists a node
	// twice, which both ledgers refuse.
	shares := []NodeShare{{ID: node, Amount: amount}, {ID: other, Amount: r.share(other, op[3]>>2)}}
	bw := l.LinkCapacity(link) * float64(op[3]%64) / 256
	links := []LinkShare{{ID: link, Amount: bw}}
	at := [3]time.Duration{ledgerClock, r.clk.now - ceilingTTL/2, r.clk.now + ceilingTTL/2}[op[0]/15%3]
	expires := r.clk.now + ceilingTTL
	held := func(ok, created bool) string { return fmt.Sprint(ok, created) }
	failed := func(err error) string { return fmt.Sprint(err != nil) }
	switch op[0] % 15 {
	case 0:
		return refOp{"HoldNodeTrackedAt", func(l fuzzedLedger) string {
			return held(l.HoldNodeTrackedAt(at, owner, tag, node, amount, expires))
		}, at}
	case 1:
		return refOp{"HoldLinkTrackedAt", func(l fuzzedLedger) string {
			return held(l.HoldLinkTrackedAt(at, owner, tag, link, bw, expires))
		}, at}
	case 2:
		return refOp{"ReleaseNodeHold", func(l fuzzedLedger) string { l.ReleaseNodeHold(owner, tag, node); return "" }, at}
	case 3:
		return refOp{"ReleaseOwner", func(l fuzzedLedger) string { l.ReleaseOwner(owner); return "" }, at}
	case 4:
		return refOp{"CommitShares", func(l fuzzedLedger) string { return failed(l.CommitShares(owner, shares, links)) }, at}
	case 5:
		return refOp{"ReleaseSession", func(l fuzzedLedger) string { l.ReleaseSession(owner); return "" }, at}
	case 6:
		session := Owner(1 + op[2]%ceilingOwners)
		return refOp{"BeginMigration", func(l fuzzedLedger) string { return failed(l.BeginMigration(owner, session)) }, at}
	case 7:
		if op[3]%2 == 0 {
			return refOp{"AbortMigration", func(l fuzzedLedger) string { l.AbortMigration(owner); return "" }, at}
		}
		session := r.l.migrations[owner]
		return refOp{"MigrateSession", func(l fuzzedLedger) string {
			return failed(l.MigrateSession(session, owner, shares, links))
		}, at}
	case 8:
		before := r.clk.now
		r.clk.now += time.Duration(op[3]) * ceilingTTL / 128
		return refOp{"clock advance", func(fuzzedLedger) string { return "" }, before}
	case 9:
		return refOp{"ReleaseLinkHold", func(l fuzzedLedger) string { l.ReleaseLinkHold(owner, tag, link); return "" }, at}
	case 10:
		// As a failed ProbeRecompose does: the walk has released its holds.
		// A window ended over holds that reuse the session's share would
		// leave them uncredited, which EndMigration's contract rules out.
		return refOp{"EndMigration", func(l fuzzedLedger) string { l.ReleaseOwner(owner); l.EndMigration(owner); return "" }, at}
	case 11:
		before := r.clk.now
		r.clk.now += time.Duration(op[3]) * ceilingTTL / 128
		return refOp{"hold behind an advanced clock", func(l fuzzedLedger) string {
			return held(l.HoldNodeTrackedAt(before, owner, tag, node, amount, before+ceilingTTL))
		}, before}
	case 12:
		return refOp{"hold all a node offers", func(l fuzzedLedger) string {
			return held(l.HoldNodeTrackedAt(at, owner, tag, node, l.NodeAvailableForAt(at, owner, node), expires))
		}, at}
	case 13:
		return refOp{"hold all a link offers", func(l fuzzedLedger) string {
			return held(l.HoldLinkTrackedAt(at, owner, tag, link, l.LinkAvailableForAt(at, owner, link), expires))
		}, at}
	default:
		route := []LinkShare{
			{ID: link, Amount: bw},
			{ID: (link + 1 + int(op[1]>>4)) % r.l.NumLinks(), Amount: bw},
			{ID: (link + 2) % r.l.NumLinks(), Amount: bw},
		}
		hop := shares[:1+int(op[1]>>6)%2]
		return refOp{"HoldHopAt", func(l fuzzedLedger) string {
			return fmt.Sprint(l.HoldHopAt(at, owner, tag, hop, route, expires))
		}, at}
	}
}

// readAll renders, bit for bit, what every owner reads on every node and
// link at the instant, and the committed availabilities.
func readAll(l fuzzedLedger, at time.Duration, nodes, links int) []uint64 {
	var bits []uint64
	for o := Owner(1); o <= ceilingOwners; o++ {
		for n := 0; n < nodes; n++ {
			avail := l.NodeAvailableForAt(at, o, n)
			bits = append(bits, math.Float64bits(avail.CPU), math.Float64bits(avail.Memory))
		}
		for k := 0; k < links; k++ {
			bits = append(bits, math.Float64bits(l.LinkAvailableForAt(at, o, k)))
		}
	}
	for n := 0; n < nodes; n++ {
		c := l.NodeCommittedAvailable(n)
		bits = append(bits, math.Float64bits(c.CPU), math.Float64bits(c.Memory))
	}
	for k := 0; k < links; k++ {
		bits = append(bits, math.Float64bits(l.LinkCommittedAvailable(k)))
	}
	return append(bits, uint64(l.ActiveSessions()))
}

// FuzzLedgerMatchesReference runs one operation sequence on Ledger and on
// referenceLedger and requires, after every operation, the same result
// (ok and created of a hold, nil or non-nil of an error), the same
// migration windows, the same reads bit for bit, and both ledgers sound.
// Commits and flips go through the dense CommitShares and MigrateSession;
// the reference renders the shares into its maps and refuses a repeated
// id itself. It is seeded with the FuzzLedgerCeiling corpus and its own,
// which lists a node twice in a commit and in a flip, and refuses a hop
// at its node, at its first link and at a later one (over a hold of the
// hop's own tag the rollback must keep).
func FuzzLedgerMatchesReference(f *testing.F) {
	files, err := filepath.Glob("testdata/fuzz/FuzzLedgerCeiling/*")
	if err != nil || len(files) == 0 {
		f.Fatalf("ceiling corpus: %v, %d files", err, len(files))
	}
	for _, name := range files {
		raw, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		lit := strings.TrimSpace(strings.TrimPrefix(string(raw), "go test fuzz v1\n"))
		seed, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lit, "[]byte("), ")"))
		if err != nil {
			f.Fatalf("%s: %v", name, err)
		}
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := newCeilingRig(t)
		ref := newReferenceLedger(ceilingMesh, qos.Resources{}, r.clk.Now)
		for n := range ref.nodes {
			ref.nodes[n].capacity = r.l.NodeCapacity(n)
		}
		nodes, links := r.l.NumNodes(), r.l.NumLinks()
		for step := 0; len(data) >= 4; step++ {
			op := r.decodeRefOp([4]byte(data[:4]))
			data = data[4:]
			if got, want := op.run(r.l), op.run(ref); got != want {
				t.Fatalf("step %d %s: ledger says %q, reference %q", step, op.name, got, want)
			}
			if !maps.Equal(r.l.migrations, ref.migrations) {
				t.Fatalf("step %d %s: migration windows %v, reference %v", step, op.name, r.l.migrations, ref.migrations)
			}
			got, want := readAll(r.l, op.readAt, nodes, links), readAll(ref, op.readAt, nodes, links)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("step %d %s: read %d is %#x, reference %#x", step, op.name, i, got[i], want[i])
				}
			}
			if err := r.l.CheckInvariants(); err != nil {
				t.Fatalf("step %d %s: %v", step, op.name, err)
			}
			if err := ref.CheckInvariants(); err != nil {
				t.Fatalf("step %d %s: reference: %v", step, op.name, err)
			}
		}
	})
}
