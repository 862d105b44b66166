package main

import (
	"math/rand"
	"time"

	"repro/internal/component"
	"repro/internal/qos"
	"repro/internal/runtime"
	"repro/internal/server"
)

// spec holds one workload's constants. Nothing here is derived from the
// running code: substrate size, probing ratio, request shapes and ring
// sizes are fixed so that occupancy, and with it mean_phi and
// probes_per_compose, is comparable between commits.
type spec struct {
	name string
	why  string
	kind kind

	// Substrate. The substrate seed is a constant of the workload, so
	// capacity is the same for every -seed.
	overlay, ipNodes, functions, perNode int
	alpha                                float64

	// Requests: path length range, share of two-branch DAGs (5
	// positions), and a scale on the acpload demand ranges.
	minLen, maxLen int
	dagShare       float64
	demandScale    float64

	// lanes is the number of closed-loop driver goroutines
	// (connections); ring the number of live sessions each keeps.
	lanes, ring int

	// procs is the GOMAXPROCS the workload runs at. Where the work is a
	// ping-pong or a single stepper it is 1: on a 2-vCPU VM a second P
	// adds no parallel work there, only cross-vCPU wake-ups whose cost
	// depends on where the host runs the vCPUs (every workload is faster
	// on one CPU than on two). walk_loaded, whose point is two callers
	// meeting on Cluster.mu, runs at 2.
	procs int

	// ladderN is how many generated requests the traced run's ladder
	// replays at each lower boundary.
	ladderN int
}

type kind int

const (
	kindWire kind = iota // TCP loopback through internal/server
	kindWalk             // runtime.FindApp/Close called directly
	kindDist             // dist.NewUnstarted stepped on a virtual clock
)

const substrateSeed = 1

// maxLanes is the most driver goroutines a workload runs: nproc.
const maxLanes = 2

// workloads lists the four workloads in the order -all runs them.
var workloads = []*spec{
	{
		name: "wire_churn",
		why:  "compose-commit-teardown over TCP at alpha 0.1: the walk is small, so server framing, codec, syscalls, quota and gauges do the work",
		kind: kindWire, overlay: 256, ipNodes: 3200, functions: 64, perNode: 2, alpha: 0.1,
		minLen: 2, maxLen: 2, demandScale: 1, lanes: 2, ring: 0, procs: 1, ladderN: 2000,
	},
	{
		name: "wire_lease_mix",
		why:  "3000 live leases with heartbeats, recomposes, abandoned composes and a disconnect: per-lease bookkeeping and live heap beside the compose path",
		kind: kindWire, overlay: 256, ipNodes: 3200, functions: 64, perNode: 2, alpha: 0.5,
		minLen: 2, maxLen: 2, demandScale: 0.2, lanes: 2, ring: 1500, procs: 1, ladderN: 2000,
	},
	{
		name: "walk_loaded",
		why:  "two callers of FindApp/Close on a cluster holding 440 sessions, 3-5-function paths and DAGs: the probe walk and ledger do the work and callers serialise on Cluster.mu",
		kind: kindWalk, overlay: 128, ipNodes: 3200, functions: 16, perNode: 2, alpha: 0.25,
		minLen: 3, maxLen: 5, dagShare: 0.5, demandScale: 1, lanes: 2, ring: 220, procs: 2, ladderN: 400,
	},
	{
		name: "dist_stepped",
		why:  "the distributed engine stepped message by message on a virtual clock: mailbox hops and the commit protocol, counts repeat exactly per seed",
		kind: kindDist, overlay: 64, ipNodes: 3200, functions: 16, perNode: 2, alpha: 0.5,
		minLen: 2, maxLen: 4, demandScale: 1, lanes: 1, ring: 150, procs: 1, ladderN: 2000,
	},
}

func findSpec(name string) *spec {
	for _, sp := range workloads {
		if sp.name == name {
			return sp
		}
	}
	return nil
}

// request is one generated compose request plus the op choices of its
// cycle. It is all the program under test ever receives from -seed.
type request struct {
	// Functions in position order; for a DAG: source, branch 1,
	// branch 2, sink.
	Functions []int `json:"functions"`
	// Branch holds the two branch lengths of a DAG; zero for a path.
	Branch        [2]int  `json:"branch"`
	CPU           float64 `json:"cpu"`
	MemoryMB      float64 `json:"memoryMB"`
	BandwidthKbps float64 `json:"bandwidthKbps"`
	// Client is the deputy node (dist_stepped; the centralized cluster
	// draws its own).
	Client int `json:"client"`
	// Picks are ring offsets: two heartbeat targets and one recompose
	// target (wire_lease_mix).
	Picks [3]int `json:"picks"`
}

// The QoS requirement is acpload's: loose enough that resources, not
// delay or loss, decide admission.
const (
	reqDelay    = 1e5
	reqLossProb = 0.9
)

// stream generates one lane's requests for one episode from (seed,
// episode, lane). Episodes draw different streams so that a run's
// medians and totals average over several trajectories of the
// allocation state, not over five replays of one.
type stream struct {
	sp   *spec
	rng  *rand.Rand
	perm []int
}

func newStream(sp *spec, seed int64, ep, lane int) *stream {
	return &stream{
		sp:   sp,
		rng:  rand.New(rand.NewSource(mix(seed, int64(ep*maxLanes+lane)))),
		perm: make([]int, sp.functions),
	}
}

// mix decorrelates small consecutive seeds and lanes (splitmix64).
func mix(seed, lane int64) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(lane+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

func (s *stream) next() request {
	sp := s.sp
	var r request
	n := sp.minLen + s.rng.Intn(sp.maxLen-sp.minLen+1)
	if s.rng.Float64() < sp.dagShare {
		n = 5
		r.Branch = [2]int{1, 2}
		if s.rng.Intn(2) == 0 {
			r.Branch = [2]int{2, 1}
		}
	}
	// Distinct functions: a partial Fisher-Yates draw.
	for i := range s.perm {
		s.perm[i] = i
	}
	r.Functions = make([]int, n)
	for i := 0; i < n; i++ {
		j := i + s.rng.Intn(len(s.perm)-i)
		s.perm[i], s.perm[j] = s.perm[j], s.perm[i]
		r.Functions[i] = s.perm[i]
	}
	r.CPU = (2 + s.rng.Float64()*6) * sp.demandScale
	r.MemoryMB = (20 + s.rng.Float64()*40) * sp.demandScale
	r.BandwidthKbps = (20 + s.rng.Float64()*40) * sp.demandScale
	r.Client = s.rng.Intn(sp.overlay)
	if sp.ring > 0 {
		for i := range r.Picks {
			r.Picks[i] = s.rng.Intn(sp.ring)
		}
	}
	return r
}

// graph builds the request's function graph.
func (r *request) graph() *component.Graph {
	fns := make([]component.FunctionID, len(r.Functions))
	for i, f := range r.Functions {
		fns[i] = component.FunctionID(f)
	}
	if r.Branch == [2]int{} {
		return component.NewPathGraph(fns)
	}
	b1 := fns[1 : 1+r.Branch[0]]
	b2 := fns[1+r.Branch[0] : 1+r.Branch[0]+r.Branch[1]]
	g, err := component.NewBranchGraph(fns[0], b1, b2, fns[len(fns)-1])
	if err != nil {
		panic(err) // branches are non-empty by construction
	}
	return g
}

func (r *request) resources() []qos.Resources {
	res := make([]qos.Resources, len(r.Functions))
	for i := range res {
		res[i] = qos.Resources{CPU: r.CPU, Memory: r.MemoryMB}
	}
	return res
}

func qosReq() qos.Vector {
	return qos.Vector{Delay: reqDelay, LossCost: qos.LossCost(reqLossProb)}
}

// wire renders the request as a compose frame (paths only: the wire
// protocol has no DAG form).
func (r *request) wire() server.Request {
	return server.Request{
		Functions:     r.Functions,
		CPU:           r.CPU,
		MemoryMB:      r.MemoryMB,
		Delay:         reqDelay,
		LossProb:      reqLossProb,
		BandwidthKbps: r.BandwidthKbps,
	}
}

// find renders the request for runtime.FindApp.
func (r *request) find(tenant string) runtime.FindRequest {
	return runtime.FindRequest{
		Tenant:        tenant,
		Graph:         r.graph(),
		QoSReq:        qosReq(),
		ResReq:        r.resources(),
		BandwidthKbps: r.BandwidthKbps,
	}
}

// component renders the request for the composer and the dist engine.
func (r *request) component(id int64, client int) *component.Request {
	return &component.Request{
		ID:           id,
		Graph:        r.graph(),
		QoSReq:       qosReq(),
		ResReq:       r.resources(),
		BandwidthReq: r.BandwidthKbps,
		Client:       client,
		Duration:     time.Hour,
	}
}
