package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/component"
	"repro/internal/obs"
)

// The reference for Kernel.Select: the stable insertion sort of the whole
// ranking buffer it ran until it computed only its head, with the
// comparator and the band test as they were written then. Select must
// return this sort's first M entries in order, and cut the same
// candidates for the same reasons.

func refRisksDiffer(ri, rj float64) bool {
	return math.Abs(ri-rj) > riskBand*max(ri, rj)
}

func refRankBefore(policy SelectionPolicy, a, b rankedCand) bool {
	switch policy {
	case SelectRiskOnly:
		return a.risk < b.risk
	case SelectCongestionOnly:
		return a.cong < b.cong
	default:
		if refRisksDiffer(a.risk, b.risk) {
			return a.risk < b.risk
		}
		return a.cong < b.cong
	}
}

func refCutReason(policy SelectionPolicy, cutRisk, lastKeptRisk float64) obs.Reason {
	switch policy {
	case SelectRiskOnly:
		return obs.ReasonRiskRank
	case SelectCongestionOnly:
		return obs.ReasonCongestionRank
	default:
		if refRisksDiffer(cutRisk, lastKeptRisk) {
			return obs.ReasonRiskRank
		}
		return obs.ReasonCongestionRank
	}
}

// rankCut is one rank-cut prune: the cut candidate's node and the reason.
type rankCut struct {
	node   int
	reason obs.Reason
}

func sortCuts(cuts []rankCut) {
	slices.SortFunc(cuts, func(a, b rankCut) int {
		if a.node != b.node {
			return a.node - b.node
		}
		return strings.Compare(string(a.reason), string(b.reason))
	})
}

// refSelect ranks a copy of cands by insertion sort and returns the first
// m ids and the rank cuts, sorted.
func refSelect(policy SelectionPolicy, cands []rankedCand, m int) ([]component.ComponentID, []rankCut) {
	q := slices.Clone(cands)
	if len(q) <= m {
		return candIDs(q), nil
	}
	for i := 1; i < len(q); i++ {
		x, j := q[i], i
		for ; j > 0 && refRankBefore(policy, x, q[j-1]); j-- {
			q[j] = q[j-1]
		}
		q[j] = x
	}
	var cuts []rankCut
	for _, cut := range q[m:] {
		cuts = append(cuts, rankCut{cut.node, refCutReason(policy, cut.risk, q[m-1].risk)})
	}
	sortCuts(cuts)
	return candIDs(q[:m]), cuts
}

func candIDs(q []rankedCand) []component.ComponentID {
	ids := make([]component.ComponentID, 0, len(q))
	for _, c := range q {
		ids = append(ids, c.id)
	}
	return ids
}

// alphaFor is a probing ratio that makes probeWidth(alpha, k) exactly m.
func alphaFor(m, k int) float64 { return (float64(m) - 0.5) / float64(k) }

var selectPolicies = []SelectionPolicy{SelectRiskThenCongestion, SelectRiskOnly, SelectCongestionOnly}

// checkSelect holds Kernel.Select to refSelect for every policy and every
// M from 1 to len(cands)-1, untraced and traced: the same ids in the same
// order, and with a tracer one rank-cut prune per cut candidate, with the
// reference's reason.
func checkSelect(t *testing.T, cands []rankedCand) {
	t.Helper()
	k := len(cands)
	kern := NewKernel(nil)
	req := &component.Request{ID: 7}
	for _, policy := range selectPolicies {
		for m := 1; m < k; m++ {
			if probeWidth(alphaFor(m, k), k) != m {
				t.Fatalf("alphaFor(%d, %d) gives M = %d", m, k, probeWidth(alphaFor(m, k), k))
			}
			wantIDs, wantCuts := refSelect(policy, cands, m)

			kern.ranked = append(kern.ranked[:0], cands...)
			got := kern.Select(&Hop{Req: req, Pos: 1, Parent: 3}, policy, alphaFor(m, k), k)
			if !slices.Equal(got, wantIDs) {
				t.Fatalf("policy %d, M %d of %d: Select = %v, insertion sort = %v\ncandidates %v", policy, m, k, got, wantIDs, cands)
			}

			sink := &obs.MemorySink{}
			kern.ranked = append(kern.ranked[:0], cands...)
			got = kern.Select(&Hop{Req: req, Pos: 1, Parent: 3, Tracer: obs.New(sink)}, policy, alphaFor(m, k), k)
			if !slices.Equal(got, wantIDs) {
				t.Fatalf("policy %d, M %d of %d, traced: Select = %v, insertion sort = %v", policy, m, k, got, wantIDs)
			}
			var cuts []rankCut
			for _, e := range sink.Events() {
				if e.Type != obs.EventCandidatePruned || e.Req != req.ID || e.Probe != 0 || e.Parent != 3 || e.Pos != 1 {
					t.Fatalf("policy %d, M %d of %d: unexpected event %+v", policy, m, k, e)
				}
				cuts = append(cuts, rankCut{e.Node, e.Reason})
			}
			sortCuts(cuts)
			if !slices.Equal(cuts, wantCuts) {
				t.Fatalf("policy %d, M %d of %d: cuts %v, insertion sort cuts %v\ncandidates %v", policy, m, k, cuts, wantCuts, cands)
			}
		}
	}
}

// riskBases are the risks the fuzz decoder varies around the band edges:
// ordinary values, zeros of both signs, negatives, infinities and NaN.
var riskBases = [32]float64{
	0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8,
	0.9, 1, 0.31, 0.33, 0.35, 0.52, 0.55, 0.58,
	0, math.Copysign(0, -1), -0.3, -0.5, -1, math.Inf(1), math.Inf(-1), math.NaN(),
	1e-300, math.SmallestNonzeroFloat64, 0.95, 1 / 0.95, 0.9025, 2, 1e300, -1e-300,
}

// decodeRisk maps a byte to a risk: a base, or a point at or one ulp off
// either edge of its 5 % band (x/0.95 and x*0.95), or a point inside it.
func decodeRisk(b byte) float64 {
	r := riskBases[b>>3]
	switch b & 7 {
	case 1:
		return r * (1 - riskBand)
	case 2:
		return r / (1 - riskBand)
	case 3:
		return math.Nextafter(r/(1-riskBand), math.Inf(1))
	case 4:
		return math.Nextafter(r/(1-riskBand), math.Inf(-1))
	case 5:
		return math.Nextafter(r*(1-riskBand), math.Inf(1))
	case 6:
		return math.Nextafter(r*(1-riskBand), math.Inf(-1))
	case 7:
		return r * 1.02
	}
	return r
}

// decodeCong maps a byte to a congestion from a small set, so equal
// congestions are common; 15 is NaN.
func decodeCong(b byte) float64 {
	if b&15 == 15 {
		return math.NaN()
	}
	return float64(b&15) * 0.25
}

// decodeCands reads up to 64 candidates, two bytes each (risk, congestion).
func decodeCands(data []byte) []rankedCand {
	var cands []rankedCand
	for i := 0; i+1 < len(data) && len(cands) < 64; i += 2 {
		n := len(cands)
		cands = append(cands, rankedCand{id: component.ComponentID(100 + n), node: n, risk: decodeRisk(data[i]), cong: decodeCong(data[i+1])})
	}
	return cands
}

// FuzzSelectMatchesInsertionSort holds Kernel.Select to the insertion
// sort on arbitrary rankings of up to 64 candidates. Its seeds are in
// testdata/fuzz: band edges with equal and spread congestions, a chain of
// risks each inside its neighbour's band, NaN, ±0, ±Inf and negative
// risks, and 64 walk_loaded-like candidates.
func FuzzSelectMatchesInsertionSort(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		checkSelect(t, decodeCands(data))
	})
}

// TestSelectMatchesInsertionSort runs the fuzz check over hand-built
// rankings and a seeded sweep of sizes up to 64.
func TestSelectMatchesInsertionSort(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	mk := func(rc ...float64) []rankedCand {
		var q []rankedCand
		for i := 0; i+1 < len(rc); i += 2 {
			q = append(q, rankedCand{id: component.ComponentID(100 + i/2), node: i / 2, risk: rc[i], cong: rc[i+1]})
		}
		return q
	}
	cases := map[string][]rankedCand{
		// a ~ b and b ~ c inside the band, a and c outside it: the order
		// is not transitive, and the insertion order decides.
		"band chain":       mk(0.50, 3, 0.52, 2, 0.545, 1, 0.51, 0, 0.49, 4),
		"band chain rev":   mk(0.545, 1, 0.52, 2, 0.50, 3, 0.49, 4, 0.51, 0),
		"equal everything": mk(0.5, 1, 0.5, 1, 0.5, 1, 0.5, 1),
		"equal cong":       mk(0.3, 1, 0.9, 1, 0.1, 1, 0.5, 1, 0.31, 1),
		"band edges": mk(0.5, 2, 0.5/0.95, 1, math.Nextafter(0.5/0.95, inf), 0,
			math.Nextafter(0.5/0.95, -inf), 3, 0.5*0.95, 4, math.Nextafter(0.5*0.95, inf), 5),
		"specials":  mk(nan, 0, 0, 1, math.Copysign(0, -1), 2, inf, 3, -inf, 4, -0.3, 5, 0.2, nan, 0.2, 0),
		"negatives": mk(-1, 2, -0.96, 1, -1.04, 0, -0.5, 3, 0.01, 2, -0.01, 1),
	}
	for name, cands := range cases {
		t.Run(name, func(t *testing.T) { checkSelect(t, cands) })
	}
	r := rand.New(rand.NewSource(1))
	for k := 2; k <= 64; k++ {
		data := make([]byte, 2*k)
		r.Read(data)
		t.Run(fmt.Sprintf("sweep k=%d", k), func(t *testing.T) { checkSelect(t, decodeCands(data)) })
	}
}

// TestByRiskMatchesBand holds the branch-free band test to its
// definition, |ri-rj| > riskBand*max(ri, rj), on every pair of special and
// band-edge values and on random pairs of every sign and magnitude.
func TestByRiskMatchesBand(t *testing.T) {
	var vals []float64
	for b := 0; b < 256; b++ {
		vals = append(vals, decodeRisk(byte(b)), -decodeRisk(byte(b)))
	}
	check := func(ri, rj float64) {
		if got, want := rankingOf(SelectRiskThenCongestion).byRisk(ri, rj) != 0, refRisksDiffer(ri, rj); got != want {
			t.Fatalf("byRisk(%v, %v) = %v, band test says %v", ri, rj, got, want)
		}
	}
	for _, ri := range vals {
		for _, rj := range vals {
			check(ri, rj)
		}
	}
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 200000; i++ {
		ri := math.Float64frombits(r.Uint64())
		rj := math.Float64frombits(r.Uint64())
		if i%2 == 0 {
			rj = ri * (0.9 + 0.2*r.Float64())
		}
		check(ri, rj)
	}
}

// walkLoadedSelections are per-hop selections shaped like the ones a
// walk_loaded cluster makes: sixteen qualified candidates whose risks
// spread over ±20 % of a per-hop level, so that neighbours in risk order
// are a few percent apart and about a quarter of all pairs fall inside
// the band, with congestions within ±10 % of their own level.
func walkLoadedSelections(n int) [][]rankedCand {
	r := rand.New(rand.NewSource(1))
	sels := make([][]rankedCand, n)
	for s := range sels {
		risk, cong := 0.01+0.012*r.Float64(), 0.06+0.05*r.Float64()
		q := make([]rankedCand, 16)
		for i := range q {
			q[i] = rankedCand{
				id:   component.ComponentID(i),
				node: i,
				risk: risk * (0.8 + 0.4*r.Float64()),
				cong: cong * (0.9 + 0.2*r.Float64()),
			}
		}
		sels[s] = q
	}
	return sels
}

// BenchmarkSelect is one walk_loaded-shaped selection: sixteen candidates,
// M = 4, untraced.
func BenchmarkSelect(b *testing.B) {
	sels := walkLoadedSelections(1024)
	kern := NewKernel(nil)
	hop := &Hop{Req: &component.Request{ID: 1}, Pos: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kern.ranked = append(kern.ranked[:0], sels[i%len(sels)]...)
		kern.Select(hop, SelectRiskThenCongestion, 0.25, 16)
	}
}

// rankBefore orders two ranked candidates under the selection policy.
func rankBefore(policy SelectionPolicy, a, b rankedCand) bool {
	return rankingOf(policy).before(a, b) != 0
}
