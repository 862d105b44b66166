//go:build unix

package runtime

import (
	"errors"
	"fmt"
	"math/rand"
	goruntime "runtime"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/component"
	"repro/internal/qos"
)

// BenchmarkFindAppCallers measures what one and two concurrent callers
// of FindApp/Close complete on one cluster shaped like the repository
// benchmark's walk_loaded workload: 128 overlay nodes on 3200 IP nodes,
// 16 functions, alpha 0.25, 3–5-function paths and two-branch DAGs, and
// 440 live sessions (a ring of 440/callers per caller) that every
// admitted request replaces the oldest of. It reports admitted
// sessions/s and idle-share, 1 − process CPU time / (GOMAXPROCS × wall):
// the share of the Ps' time nobody ran, which is what callers lose
// parking on a lock they could have waited out (DESIGN.md §18).
func BenchmarkFindAppCallers(b *testing.B) {
	for _, callers := range []int{1, 2} {
		b.Run(fmt.Sprintf("callers=%d", callers), func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.Seed = 1
			cfg.OverlayNodes, cfg.IPNodes = 128, 3200
			cfg.NumFunctions, cfg.ComponentsPerNode = 16, 2
			cfg.ProbingRatio = 0.25
			c, err := NewCluster(cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer c.Shutdown()

			lanes := make([]*callerLane, callers)
			for i := range lanes {
				lanes[i] = &callerLane{rng: rand.New(rand.NewSource(int64(i + 1))), ring: make([]SessionID, 0, 440/callers)}
				if err := lanes[i].fill(c); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			cpu0, start := processCPU(b), time.Now()
			var wg sync.WaitGroup
			for i, ln := range lanes {
				n := b.N / callers
				if i < b.N%callers {
					n++
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					for range n {
						if err := ln.cycle(c); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			wall := time.Since(start)
			b.StopTimer()
			admitted := 0
			for _, ln := range lanes {
				admitted += ln.admitted
			}
			b.ReportMetric(float64(admitted)/wall.Seconds(), "sessions/s")
			b.ReportMetric(1-(processCPU(b)-cpu0).Seconds()/(float64(goruntime.GOMAXPROCS(0))*wall.Seconds()), "idle-share")
		})
	}
}

// callerLane is one caller and the ring of sessions it keeps live.
type callerLane struct {
	rng      *rand.Rand
	ring     []SessionID // full after fill; head is the oldest
	head     int
	admitted int
}

// request draws 3–5 distinct functions as a path, or 5 as a DAG of two
// branches (half the time), with demands of 2–8 CPU, 20–60 MB and 20–60
// kbps per position.
func (ln *callerLane) request() FindRequest {
	n := 3 + ln.rng.Intn(3)
	dag := ln.rng.Intn(2) == 0
	if dag {
		n = 5
	}
	perm := ln.rng.Perm(16)[:n]
	fns := make([]component.FunctionID, n)
	for i, f := range perm {
		fns[i] = component.FunctionID(f)
	}
	graph := component.NewPathGraph(fns)
	if dag {
		split := 2 + ln.rng.Intn(2) // branches of 1 and 2 positions, either way round
		var err error
		if graph, err = component.NewBranchGraph(fns[0], fns[1:split], fns[split:4], fns[4]); err != nil {
			panic(err)
		}
	}
	res := make([]qos.Resources, n)
	cpu, mem := 2+ln.rng.Float64()*6, 20+ln.rng.Float64()*40
	for i := range res {
		res[i] = qos.Resources{CPU: cpu, Memory: mem}
	}
	return FindRequest{
		Graph:         graph,
		QoSReq:        qos.Vector{Delay: 1e5, LossCost: qos.LossCost(0.9)},
		ResReq:        res,
		BandwidthKbps: 20 + ln.rng.Float64()*40,
	}
}

// fill admits the lane's ring; a refused request draws the next.
func (ln *callerLane) fill(c *Cluster) error {
	for try := 0; len(ln.ring) < cap(ln.ring); try++ {
		if try == 2*cap(ln.ring) {
			return fmt.Errorf("a ring of %d sessions does not fit the substrate", cap(ln.ring))
		}
		id, err := c.FindApp(ln.request())
		if errors.Is(err, ErrNoComposition) {
			continue
		}
		if err != nil {
			return err
		}
		ln.ring = append(ln.ring, id)
	}
	return nil
}

// cycle asks for one composition; an admitted one replaces the ring's
// oldest session, which is closed.
func (ln *callerLane) cycle(c *Cluster) error {
	id, err := c.FindApp(ln.request())
	if errors.Is(err, ErrNoComposition) {
		return nil
	}
	if err != nil {
		return err
	}
	ln.admitted++
	old := ln.ring[ln.head]
	ln.ring[ln.head] = id
	ln.head = (ln.head + 1) % len(ln.ring)
	return c.Close(old)
}

// processCPU is the user and system CPU time the process has used.
func processCPU(b *testing.B) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
