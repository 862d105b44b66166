// Command acptopo generates the simulated network substrate and prints
// its statistics: IP-layer power-law degree distribution, overlay mesh
// shape, and virtual-link characteristics. It draws the graph and the
// mesh through substrate.Network from one stream seeded with -seed, the
// stream runtime.NewCluster and dist.New pass to substrate.Build, so it
// shows the network those build (acpserve's, for one) from the same seed
// and sizes. experiment.BuildPlatform seeds each stage separately, so a
// figure's platform differs.
//
// Usage:
//
//	acptopo                     # paper defaults: 3200 IP nodes, 400 overlay
//	acptopo -ipnodes 800 -nodes 100 -seed 7
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"

	"repro/internal/substrate"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "acptopo:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("acptopo", flag.ContinueOnError)
	var (
		ipNodes   = fs.Int("ipnodes", 3200, "IP-layer node count")
		nodes     = fs.Int("nodes", 400, "overlay node count")
		neighbors = fs.Int("neighbors", 6, "overlay neighbors per node")
		seed      = fs.Int64("seed", 1, "random seed")
		hist      = fs.Bool("hist", false, "print the full degree histogram")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	rng := rand.New(rand.NewSource(*seed))
	graph, mesh, err := substrate.Network(substrate.Config{
		IPNodes: *ipNodes, OverlayNodes: *nodes, NeighborsPerNode: *neighbors,
	}, rng, rng)
	if err != nil {
		return err
	}
	st := graph.Stats()
	fmt.Printf("IP-layer graph   %d nodes, %d links\n", graph.NumNodes(), graph.NumLinks())
	fmt.Printf("degrees          min=%d max=%d mean=%.2f\n", st.Min, st.Max, st.Mean)
	fmt.Printf("power-law slope  %.2f (log-log least squares; clearly negative = heavy tail)\n", st.PowerLawSlope)
	fmt.Printf("connected        %v\n", graph.Connected())

	if *hist {
		counts := make(map[int]int)
		for v := 0; v < graph.NumNodes(); v++ {
			counts[graph.Degree(v)]++
		}
		degrees := make([]int, 0, len(counts))
		for d := range counts {
			degrees = append(degrees, d)
		}
		sort.Ints(degrees)
		fmt.Println("degree histogram:")
		for _, d := range degrees {
			fmt.Printf("  %4d: %d\n", d, counts[d])
		}
	}

	fmt.Printf("\noverlay mesh     %d nodes, %d links\n", mesh.NumNodes(), mesh.NumLinks())

	var (
		minDelay, maxDelay, sumDelay float64
		minBW, maxBW, sumBW          float64
	)
	for id := 0; id < mesh.NumLinks(); id++ {
		lk := mesh.Link(id)
		if id == 0 || lk.QoS.Delay < minDelay {
			minDelay = lk.QoS.Delay
		}
		if lk.QoS.Delay > maxDelay {
			maxDelay = lk.QoS.Delay
		}
		sumDelay += lk.QoS.Delay
		if id == 0 || lk.Capacity < minBW {
			minBW = lk.Capacity
		}
		if lk.Capacity > maxBW {
			maxBW = lk.Capacity
		}
		sumBW += lk.Capacity
	}
	n := float64(mesh.NumLinks())
	fmt.Printf("link delay (ms)  min=%.1f mean=%.1f max=%.1f\n", minDelay, sumDelay/n, maxDelay)
	fmt.Printf("link cap (kbps)  min=%.0f mean=%.0f max=%.0f\n", minBW, sumBW/n, maxBW)

	// Sample virtual links between random node pairs.
	var sumVDelay float64
	var sumHops int
	const samples = 200
	for i := 0; i < samples; i++ {
		a, b := rng.Intn(mesh.NumNodes()), rng.Intn(mesh.NumNodes())
		r, ok := mesh.RouteBetween(a, b)
		if !ok {
			return fmt.Errorf("no route between overlay nodes %d and %d", a, b)
		}
		sumVDelay += r.QoS.Delay
		sumHops += len(r.Links)
	}
	fmt.Printf("virtual links    mean delay=%.1fms mean hops=%.1f (over %d samples)\n",
		sumVDelay/samples, float64(sumHops)/samples, samples)
	return nil
}
