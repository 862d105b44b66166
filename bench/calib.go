package main

import (
	"sort"
	"time"
)

// The reference kernel. The machine this benchmark runs on is a few
// cores of a shared host, and its neighbours slow memory-bound code by
// up to half for tens of seconds at a time: a 2 MB pointer chase
// swings between 40 and 68 ns per load while a register-only loop
// stays within 2 %, and every timed metric of every workload swings
// with it — more between two runs of one commit than the gate allows
// between two commits. So the harness interleaves the timed work with
// a fixed piece of work that touches nothing of the system under test
// — a scoring walk over a fixed graph with a map, a few slices and a
// sort, the kind of code the composition engine is made of — and
// reports timed metrics in reference seconds: the time the work would
// have taken had the kernel run at its nominal speed. README.md has
// the measurements behind this.

const (
	refNodes  = 4096
	refDegree = 8
	// refSteps is one sample's work, about 8 ms.
	refSteps = 40000
	// refNominalNs is the kernel's usual ns per step between slices of
	// any of the workloads, on the machine this was written on with
	// quiet neighbours. It only fixes the scale, so that a reference
	// second is a wall second there; comparisons between commits do not
	// depend on it.
	refNominalNs = 210.0
)

// reference walks a fixed random graph: at each step it scores the
// current node's neighbours by weight over load, moves to the best,
// and keeps what it saw in a map and in a slice it sorts when full.
// It allocates nothing once built and its path depends on nothing but
// the seed, so every sample does the same work.
type reference struct {
	nbr    [][]int32
	weight [][]float64
	load   []float64
	seen   map[int32]float64
	scores []float64
	at     int32
	steps  int
	sink   float64
}

func newReference() *reference {
	r := &reference{
		nbr: make([][]int32, refNodes), weight: make([][]float64, refNodes), load: make([]float64, refNodes),
		seen: make(map[int32]float64, 1024), scores: make([]float64, 0, 64),
	}
	x := uint64(1)
	next := func() uint64 {
		x = x*6364136223846793005 + 1442695040888963407
		return x >> 33
	}
	for i := range r.nbr {
		r.nbr[i] = make([]int32, refDegree)
		r.weight[i] = make([]float64, refDegree)
		for j := 0; j < refDegree; j++ {
			r.nbr[i][j] = int32(next() % refNodes)
			r.weight[i][j] = 1 + float64(next()%1000)/100
		}
	}
	return r
}

// sample runs the kernel once on the calling goroutine and returns its
// ns per step.
func (r *reference) sample() float64 {
	t0 := time.Now()
	for i := 0; i < refSteps; i++ {
		best, bestScore := int32(0), -1.0
		for j, nb := range r.nbr[r.at] {
			if s := r.weight[r.at][j] / (1 + r.load[nb] + r.seen[nb]); s > bestScore {
				best, bestScore = nb, s
			}
		}
		r.load[best] += 0.01
		r.seen[best] += 0.5
		r.scores = append(r.scores, bestScore)
		r.at = best
		r.steps++
		if len(r.scores) == cap(r.scores) {
			sort.Float64s(r.scores)
			r.sink += r.scores[len(r.scores)/2]
			r.scores = r.scores[:0]
		}
		if r.steps%2048 == 0 {
			clear(r.seen)
			clear(r.load)
		}
	}
	return float64(time.Since(t0)) / refSteps
}

// speed turns the samples taken around a stretch of work into the
// machine's speed over it, relative to nominal: above 1 is faster.
// Measured time times speed is reference time. It reads the median
// sample, which is how fast a typical moment of the stretch was: the
// scale for a percentile of latencies.
func speed(samples []float64) float64 {
	return refNominalNs / median(samples)
}

// meanSpeed reads the mean sample instead: time the machine took away
// in a few long stalls shows in it in proportion, as it does in the
// work's own total time, so it is the scale for a throughput or a mean.
func meanSpeed(samples []float64) float64 {
	sum := 0.0
	for _, v := range samples {
		sum += v
	}
	return refNominalNs * float64(len(samples)) / sum
}
