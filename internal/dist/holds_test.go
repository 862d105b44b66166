package dist

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"testing"
	"time"

	"repro/internal/harness/clock"
	"repro/internal/obs"
	"repro/internal/qos"
)

// refHolds is the hold bookkeeping this package had before the ordered
// table, kept as the reference the table is checked against: a map keyed
// by (owner, pos), and — float addition not being associative, map order
// being random — every pass over it in sorted-key order.
type refHolds struct {
	capacity  qos.Resources
	ttl       time.Duration
	holds     map[refKey]refHold
	heldTotal qos.Resources
	released  []int64 // the owner of every HoldReleased event, in order
}

type refKey struct {
	owner int64
	pos   int
}

type refHold struct {
	amount  qos.Resources
	expires time.Time
}

func (r *refHolds) sortedKeys() []refKey {
	out := make([]refKey, 0, len(r.holds))
	for key := range r.holds {
		out = append(out, key)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].owner != out[j].owner {
			return out[i].owner < out[j].owner
		}
		return out[i].pos < out[j].pos
	})
	return out
}

func (r *refHolds) purge(now time.Time) int {
	expired := 0
	for _, key := range r.sortedKeys() {
		if h := r.holds[key]; !h.expires.After(now) {
			r.heldTotal = r.heldTotal.Sub(h.amount)
			delete(r.holds, key)
			r.released = append(r.released, key.owner)
			expired++
		}
	}
	return expired
}

func (r *refHolds) availableFor(now time.Time, owner int64) qos.Resources {
	r.purge(now)
	avail := r.capacity.Sub(r.heldTotal)
	for _, key := range r.sortedKeys() {
		if key.owner == owner {
			avail = avail.Add(r.holds[key].amount)
		}
	}
	return avail
}

func (r *refHolds) holdFor(now time.Time, owner int64, pos int, amount qos.Resources) bool {
	key := refKey{owner, pos}
	if _, ok := r.holds[key]; ok {
		return true
	}
	r.purge(now)
	if !r.capacity.Sub(r.heldTotal).Covers(amount) {
		return false
	}
	r.holds[key] = refHold{amount: amount, expires: now.Add(r.ttl)}
	r.heldTotal = r.heldTotal.Add(amount)
	return true
}

func (r *refHolds) release(owner int64) {
	released := 0
	for _, key := range r.sortedKeys() {
		if key.owner == owner {
			r.heldTotal = r.heldTotal.Sub(r.holds[key].amount)
			delete(r.holds, key)
			released++
		}
	}
	if released > 0 {
		r.released = append(r.released, owner)
	}
}

func (r *refHolds) holdSum() qos.Resources {
	var sum qos.Resources
	for _, key := range r.sortedKeys() {
		sum = sum.Add(r.holds[key].amount)
	}
	return sum
}

// holdOrder is the table's order: by owner, then position.
func holdOrder(a, b hold) int {
	if c := cmp.Compare(a.owner, b.owner); c != 0 {
		return c
	}
	return cmp.Compare(a.pos, b.pos)
}

// exact prints a resource vector with every bit showing.
func exact(r qos.Resources) string { return fmt.Sprintf("(%.17g, %.17g)", r.CPU, r.Memory) }

// releaseLog collects the owners of HoldReleased events.
type releaseLog struct{ owners []int64 }

func (l *releaseLog) Emit(e obs.Event) {
	if e.Type == obs.EventHoldReleased {
		l.owners = append(l.owners, e.Req)
	}
}

// holdOp is one step of a hold-table input: place (or re-place) a hold,
// release an owner, or let wait elapse and purge.
type holdOp struct {
	kind   byte // 'h', 'r', 'p'
	owner  int64
	pos    int
	amount qos.Resources
	wait   time.Duration
}

// orderSensitiveHolds is seven holds of one owner whose amounts have no
// exact binary representation, chosen so the rounding of the running sum
// depends on the order of addition: roughly half of the 7! permutations
// land on a different low bit. Summing them in anything but (owner, pos)
// order shows.
func orderSensitiveHolds() []holdOp {
	amounts := []float64{4.1150458, 4.0319832, 5.097726801, 5.6757749, 4.97437, 0.808735, 2.6021515}
	ops := make([]holdOp, 0, len(amounts)+1)
	for _, pos := range []int{3, 0, 6, 1, 5, 2, 4} { // arrival order is not position order
		ops = append(ops, holdOp{kind: 'h', owner: 42, pos: pos,
			amount: qos.Resources{CPU: amounts[pos], Memory: 3 * amounts[pos]}})
	}
	return append(ops, holdOp{kind: 'r', owner: 42})
}

// randomHolds draws a sequence shaped like a node's life: owners grow,
// an owner lags the newest by less than lag, positions repeat (re-holds),
// some holds do not fit, time passes in steps short and long against the
// TTL.
func randomHolds(rng *rand.Rand, ttl time.Duration, n int, lag int64) []holdOp {
	ops := make([]holdOp, 0, n)
	newest := int64(1)
	for len(ops) < n {
		if rng.Intn(4) == 0 {
			newest++
		}
		owner := newest - int64(rng.Intn(int(min(newest, lag))))
		switch r := rng.Intn(20); {
		case r < 13:
			ops = append(ops, holdOp{kind: 'h', owner: owner, pos: rng.Intn(5),
				amount: qos.Resources{CPU: 1 + rng.Float64()*9, Memory: 10 + rng.Float64()*90}})
		case r < 16:
			ops = append(ops, holdOp{kind: 'r', owner: owner})
		default:
			ops = append(ops, holdOp{kind: 'p', wait: time.Duration(rng.Int63n(int64(ttl) * 3 / 4))})
		}
	}
	return ops
}

// TestHoldAccountingDeterministic is the model test of the hold table:
// the ordered slice and the map-plus-sorted-keys code it replaced are
// driven with the same inputs, and after every operation the running
// total, the sum of holds, each owner's credited availability (all
// compared as exact bits) and the HoldReleased event order must agree.
func TestHoldAccountingDeterministic(t *testing.T) {
	inputs := map[string][]holdOp{"order-sensitive amounts": orderSensitiveHolds()}
	for seed := int64(1); seed <= 40; seed++ {
		inputs["seed "+strconv.FormatInt(seed, 10)] = randomHolds(rand.New(rand.NewSource(seed)), DefaultConfig().HoldTTL, 400, 6)
	}
	// Owners up to 64 behind the newest: their keys lie far from the
	// tail, so the lookup gallops past several holds before it bisects.
	for seed := int64(1); seed <= 10; seed++ {
		inputs["old owners, seed "+strconv.FormatInt(seed, 10)] = randomHolds(rand.New(rand.NewSource(seed)), DefaultConfig().HoldTTL, 400, 64)
	}
	for name, ops := range inputs {
		clk := clock.NewVirtual()
		log := &releaseLog{}
		cfg := DefaultConfig()
		cfg.Clock = clk
		cfg.Tracer = obs.New(log)
		c, err := build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		n := c.nodes[0]
		ref := &refHolds{capacity: cfg.NodeCapacity, ttl: cfg.HoldTTL, holds: make(map[refKey]refHold)}

		for i, op := range ops {
			switch op.kind {
			case 'h':
				got, want := n.holdFor(op.owner, op.pos, op.amount, clk.Now()), ref.holdFor(clk.Now(), op.owner, op.pos, op.amount)
				if got != want {
					t.Fatalf("%s, op %d: holdFor(%d, %d) = %v, reference %v", name, i, op.owner, op.pos, got, want)
				}
			case 'r':
				n.releaseHolds(op.owner)
				ref.release(op.owner)
			case 'p':
				clk.Advance(op.wait)
				if got, want := n.purgeHolds(clk.Now()), ref.purge(clk.Now()); got != want {
					t.Fatalf("%s, op %d: purge expired %d holds, reference %d", name, i, got, want)
				}
			}
			acc := c.NodeAccountingAt(0)
			if acc.HeldTotal != ref.heldTotal || acc.HoldSum != ref.holdSum() || acc.Holds != len(ref.holds) {
				t.Fatalf("%s, op %d (%c): heldTotal %s sum %s holds %d, reference %s %s %d", name, i, op.kind,
					exact(acc.HeldTotal), exact(acc.HoldSum), acc.Holds, exact(ref.heldTotal), exact(ref.holdSum()), len(ref.holds))
			}
			for owner := op.owner - 2; owner <= op.owner+1; owner++ {
				if got, want := n.availableFor(owner, clk.Now()), ref.availableFor(clk.Now(), owner); got != want {
					t.Fatalf("%s, op %d (%c): availableFor(%d) = %s, reference %s", name, i, op.kind, owner, exact(got), exact(want))
				}
			}
			if !slices.Equal(log.owners, ref.released) {
				t.Fatalf("%s, op %d (%c): HoldReleased order %v, reference %v", name, i, op.kind, log.owners, ref.released)
			}
			if !slices.IsSortedFunc(n.holds, holdOrder) {
				t.Fatalf("%s, op %d (%c): table out of (owner, pos) order", name, i, op.kind)
			}
		}
	}
}

// TestTombstonesAgeOutWithoutSweep is the regression for the tombstone
// leak: with the sweep disabled (or on a stepped cluster nobody sweeps)
// release tombstones were never dropped — one entry per session and
// participant, forever — and, the expiry never being looked at, an expired
// tombstone still refused a commit. They now age out on the on-demand path
// that purges holds.
func TestTombstonesAgeOutWithoutSweep(t *testing.T) {
	clk := clock.NewVirtual()
	cfg := DefaultConfig()
	cfg.Clock = clk
	cfg.SweepInterval = -1
	c, err := NewUnstarted(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := &stepped{t: t, cluster: c, clk: clk}
	admitted := 0
	for i := 0; i < 300; i++ {
		req := easyRequest(i % c.NumNodes())
		if comp := s.compose(req); comp != nil {
			admitted++
			s.release(req, comp)
		}
		clk.Advance(cfg.HoldTTL + time.Millisecond)
	}
	if admitted < 250 {
		t.Fatalf("only %d of 300 requests admitted on an idle cluster", admitted)
	}
	// A node keeps what it was handed since it last looked: the release
	// of the last session it took part in, nothing older.
	for id := 0; id < c.NumNodes(); id++ {
		if got := c.NodeAccountingAt(id).Tombstones; got > 2 {
			t.Errorf("node %d keeps %d tombstones after %d sessions with every TTL long past", id, got, admitted)
		}
	}

	n := c.nodes[0]
	n.onRelease(1001)
	n.onCommit(1001, qos.Resources{CPU: 1}, 1)
	if _, ok := n.commits[1001]; ok {
		t.Error("commit accepted right after its owner's release")
	}
	n.onRelease(1002)
	clk.Advance(cfg.HoldTTL)
	n.onCommit(1002, qos.Resources{CPU: 1}, 1)
	if _, ok := n.commits[1002]; !ok {
		t.Error("a tombstone past its TTL still refuses the commit")
	}
}
