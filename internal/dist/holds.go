package dist

import (
	"slices"
	"sort"
	"time"

	"repro/internal/qos"
)

// hold is one transient allocation: what position pos of request owner
// reserved on this node, until expires.
type hold struct {
	owner   int64
	pos     int
	amount  qos.Resources
	expires time.Time
}

// tombstone refuses commits for an owner released before expires.
type tombstone struct {
	owner   int64
	expires time.Time
}

// holdTable is a node's transient state: its holds in one slice ordered by
// (owner, pos), with their running total, and its release tombstones in
// expiry order (the TTL is constant and the clock monotone, so that is
// arrival order).
//
// Float addition is not associative, so every sum and every tracer event
// sequence over the holds runs in slice order — the one order there is.
// Request IDs only grow, which puts a new hold at or near the tail and an
// owner's holds in one contiguous run.
type holdTable struct {
	holds     []hold
	heldTotal qos.Resources
	// earliest is a lower bound of every live hold's expiry: while the
	// clock is before it, nothing can have expired.
	earliest time.Time
	tombs    []tombstone
}

// before reports whether h sorts before (owner, pos) in the table's
// order: by owner, then position.
func (h *hold) before(owner int64, pos int) bool {
	return h.owner < owner || h.owner == owner && h.pos < pos
}

// find returns where (owner, pos) is, or where it would be inserted.
// Request IDs only grow, so the key is nearly always at or next to the
// tail: the search gallops back from the tail in doubling steps, then
// bisects the last step, O(log d) for a key d holds from the end.
func (t *holdTable) find(owner int64, pos int) (int, bool) {
	hi, step := len(t.holds), 1 // every hold from hi on sorts at or after the key
	lo := hi - 1
	for lo >= 0 && !t.holds[lo].before(owner, pos) {
		hi, lo, step = lo, lo-step, 2*step
	}
	lo = max(lo+1, 0) // holds[lo-1], if any, sorts before the key
	lo += sort.Search(hi-lo, func(i int) bool { return !t.holds[lo+i].before(owner, pos) })
	return lo, lo < len(t.holds) && t.holds[lo].owner == owner && t.holds[lo].pos == pos
}

// span returns the bounds of owner's run of holds (positions start at 0).
func (t *holdTable) span(owner int64) (lo, hi int) {
	lo, _ = t.find(owner, 0)
	for hi = lo; hi < len(t.holds) && t.holds[hi].owner == owner; hi++ {
	}
	return lo, hi
}

// available returns this node's precise local availability at now.
func (n *node) available(now time.Time) qos.Resources {
	n.purgeHolds(now)
	return n.capacity.Sub(n.committed).Sub(n.heldTotal)
}

// availableFor credits back the owner's own holds (the request must not
// block on its own reservations).
func (n *node) availableFor(owner int64, now time.Time) qos.Resources {
	avail := n.available(now)
	lo, hi := n.span(owner)
	for i := lo; i < hi; i++ {
		avail = avail.Add(n.holds[i].amount)
	}
	return avail
}

// purgeHolds drops the transient allocations and tombstones expired at
// now, returning how many holds expired. While nothing can have expired
// it costs two comparisons.
func (n *node) purgeHolds(now time.Time) int {
	if len(n.holds) == 0 && len(n.tombs) == 0 {
		return 0
	}
	dead := 0
	for dead < len(n.tombs) && !n.tombs[dead].expires.After(now) {
		dead++
	}
	n.tombs = slices.Delete(n.tombs, 0, dead) // in place: reslicing would give up the front's capacity
	if len(n.holds) == 0 || n.earliest.After(now) {
		return 0
	}
	kept := n.holds[:0]
	for _, h := range n.holds {
		if !h.expires.After(now) {
			n.heldTotal = n.heldTotal.Sub(h.amount)
			n.c.tracer.HoldReleased(h.owner, n.id)
			continue
		}
		if len(kept) == 0 || h.expires.Before(n.earliest) {
			n.earliest = h.expires
		}
		kept = append(kept, h)
	}
	expired := len(n.holds) - len(kept)
	n.holds = kept
	return expired
}

// holdFor places the transient allocation for (owner, pos) at now;
// idempotent per key (footnote 7).
func (n *node) holdFor(owner int64, pos int, amount qos.Resources, now time.Time) bool {
	n.purgeHolds(now)
	at, ok := n.find(owner, pos)
	if ok || !n.capacity.Sub(n.committed).Sub(n.heldTotal).Covers(amount) {
		return ok
	}
	h := hold{owner: owner, pos: pos, amount: amount, expires: now.Add(n.c.cfg.HoldTTL)}
	if len(n.holds) == 0 || h.expires.Before(n.earliest) {
		n.earliest = h.expires
	}
	n.holds = append(n.holds, hold{})
	copy(n.holds[at+1:], n.holds[at:])
	n.holds[at] = h
	n.heldTotal = n.heldTotal.Add(amount)
	return true
}

func (n *node) releaseHolds(owner int64) {
	lo, hi := n.span(owner)
	if lo == hi {
		return
	}
	for i := lo; i < hi; i++ {
		n.heldTotal = n.heldTotal.Sub(n.holds[i].amount)
	}
	n.holds = append(n.holds[:lo], n.holds[hi:]...)
	n.c.tracer.HoldReleased(owner, n.id)
}

// tombstoned reports whether owner was released less than a HoldTTL
// before now.
func (n *node) tombstoned(owner int64, now time.Time) bool {
	for i := len(n.tombs) - 1; i >= 0 && n.tombs[i].expires.After(now); i-- {
		if n.tombs[i].owner == owner {
			return true
		}
	}
	return false
}
