// Observability: trace the probe lifecycle of ACP compositions and read
// the cluster's instrument registry. The tracer records every span event
// (request received, probe spawned/forwarded, candidate pruned with its
// reason, transient hold acquired/released, probe returned, composition
// committed or rolled back); the registry counts find outcomes.
//
//	go run ./examples/observability
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"os"

	acp "repro"
)

const (
	fnIngest acp.FunctionID = 0
	fnDetect acp.FunctionID = 1
	fnAlert  acp.FunctionID = 2
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// 1. Wire a memory tracer and an instrument registry into the
	//    cluster. Both are nil-safe: omit them and the hot path pays only
	//    a pointer check.
	tracer, events := acp.NewMemoryTracer()
	registry := acp.NewMetricsRegistry()
	cfg := acp.DefaultClusterConfig()
	cfg.Tracer = tracer
	cfg.Registry = registry
	cluster, err := acp.NewCluster(cfg)
	if err != nil {
		return err
	}
	defer cluster.Shutdown()

	// 2. Compose a few sessions; each Find drives one traced probe walk.
	graph := acp.NewPathGraph([]acp.FunctionID{fnIngest, fnDetect, fnAlert})
	resources := []acp.Resources{
		{CPU: 10, Memory: 100}, {CPU: 6, Memory: 60}, {CPU: 4, Memory: 40},
	}
	for i := 0; i < 3; i++ {
		session, err := cluster.Find(graph,
			acp.QoS{Delay: 500, LossCost: acp.LossCost(0.05)}, resources, 200)
		if err != nil {
			return fmt.Errorf("compose %d: %w", i, err)
		}
		defer cluster.Close(session)
	}

	// 3. Summarise the recorded spans: how many probes each request
	//    spawned, and why candidates were pruned.
	spawned := make(map[int64]int)
	pruned := make(map[string]int)
	for _, e := range events() {
		switch e.Type {
		case "probe.spawned":
			spawned[e.Req]++
		case "candidate.pruned":
			pruned[string(e.Reason)]++
		}
	}
	fmt.Println("probes spawned per request:")
	for req := int64(1); req <= int64(len(spawned)); req++ {
		fmt.Printf("  request %d: %d probes\n", req, spawned[req])
	}
	fmt.Println("prune reasons:")
	for reason, n := range pruned {
		fmt.Printf("  %-16s %d\n", reason, n)
	}

	// 4. The instrument registry snapshot is the /metrics.json document
	//    (acpsim -metrics-out writes the same).
	fmt.Println("instruments:")
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(registry.Snapshot())
}
