package main

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/component"
	"repro/internal/core"
	"repro/internal/discovery"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/overlay"
	"repro/internal/qos"
	acprt "repro/internal/runtime"
	"repro/internal/state"
	"repro/internal/topology"
)

// perLayer lists every per-layer metric, in the order the layers are
// crossed from outside in. A traced run reports all of them; a layer
// the workload does not touch reads 0.
var perLayer = []struct{ name, unit string }{
	{"server.compose_rtt_us", "us"},
	{"server.commit_rtt_us", "us"},
	{"server.heartbeat_rtt_us", "us"},
	{"server.recompose_rtt_us", "us"},
	{"server.teardown_rtt_us", "us"},
	{"server.handler_compose_us", "us"},
	{"server.wire_us_per_op", "us"},
	{"server.codec_us_per_session", "us"},
	{"server.bytes_per_session", "B"},
	{"server.conn_scaling", "ratio"},
	{"server.busy_share", "ratio"},
	{"server.reaped_per_s", "1/s"},
	{"server.disconnect_release_us_per_session", "us"},

	{"runtime.findapp_us", "us"},
	{"runtime.close_us", "us"},
	{"runtime.recompose_us", "us"},
	{"runtime.findapp_2caller_us", "us"},
	{"runtime.lock_wait_share", "ratio"},
	{"runtime.nonwalk_us", "us"},
	{"runtime.quota_reject_us", "us"},
	{"runtime.series_per_session", "count"},

	{"core.probe_us", "us"},
	{"core.probe_path2_us", "us"},
	{"core.probe_path5_us", "us"},
	{"core.probe_dag5_us", "us"},
	{"core.commit_us", "us"},
	{"core.release_us", "us"},
	{"core.ns_per_probe", "ns"},
	{"core.returns_per_compose", "count"},
	{"core.useful_probe_share", "ratio"},
	{"core.allocs_per_walk", "count"},

	{"state.hold_node_ns", "ns"},
	{"state.hold_link_ns", "ns"},
	{"state.commit_session_us", "us"},
	{"state.release_session_us", "us"},
	{"state.updates_per_compose", "count"},
	{"qos.congestion_term_ns", "ns"},

	{"obs.session_gauges_ns", "ns"},
	{"obs.snapshot_ms", "ms"},
	{"obs.series_live", "count"},

	{"overlay.topology_s", "s"},
	{"overlay.mesh_build_s", "s"},
	{"overlay.place_s", "s"},

	{"dist.steps_per_compose", "count"},
	{"dist.ns_per_step", "ns"},
	{"dist.msgs_probe_per_compose", "count"},
	{"dist.msgs_commit_per_compose", "count"},
	{"dist.msgs_release_per_session", "count"},
	{"dist.timer_advances_per_compose", "count"},
	{"dist.virtual_ms_per_compose", "ms"},
	{"dist.mailbox_peak", "count"},

	{"harness.compose_p95_ms", "ms"},
	{"harness.compose_p99_ms", "ms"},
	{"harness.release_p95_ms", "ms"},
	{"harness.cpu_ms_per_session", "ms"},
	{"harness.gc_cycles_per_s", "1/s"},
	{"harness.gc_pause_ms", "ms"},
	{"harness.goroutines_end", "count"},
	{"harness.episode_spread", "ratio"},
	{"harness.machine_speed", "ratio"},
	{"harness.trace_overhead_share", "ratio"},
	{"harness.unattributed_share", "ratio"},
}

// tracedEpisodes is how many episodes record spans.
const tracedEpisodes = 2

// tracedRun is the separate run behind -trace: traced episodes for the
// spans, one untraced episode beside them (the difference is the
// tracing overhead), on the wire one more on a single connection, and
// then the ladder replay at each lower boundary.
func tracedRun(sp *spec, p params, outDir string, stderr io.Writer) (map[string]metric, int64, error) {
	m := make(map[string]float64)

	tp := p
	tp.trace = true
	tp.episodes = min(p.episodes, tracedEpisodes)
	traced, err := runWorkload(sp, tp)
	if err != nil {
		return nil, 0, fmt.Errorf("traced: %w", err)
	}
	up := p
	up.trace, up.episodes = false, 1
	plain, err := runWorkload(sp, up)
	if err != nil {
		return nil, 0, fmt.Errorf("untraced: %w", err)
	}
	attempted := traced.attempted() + plain.attempted()

	stats := spanStats(traced.logs())
	windowS := traced.sum(func(e *episode) float64 { return e.windowS })
	walks := traced.sum(func(e *episode) float64 { return float64(e.walks) })
	total := func(c counter) float64 { return traced.sum(func(e *episode) float64 { return e.counts[c] }) }
	extra := func(name string) float64 { return traced.med(func(e *episode) float64 { return e.extra[name] }) }

	var (
		top              float64 // the outermost compose the ladder explains, in us
		handlerOneConnUs float64 // the server's compose handler with no second connection to wait for
	)
	switch sp.kind {
	case kindWire:
		one := up
		one.lanes = 1
		single, err := runWorkload(sp, one)
		if err != nil {
			return nil, 0, fmt.Errorf("one connection: %w", err)
		}
		attempted += single.attempted()
		m["server.conn_scaling"] = ratio(plain.episodes[0].sessionsPerS, single.episodes[0].sessionsPerS)
		se := single.episodes[0]
		handlerOneConnUs = ratio(se.counts[cHandlerMs]*1e3, se.counts[cHandlerN])

		rttUs, handlerUs, ops := 0.0, 0.0, 0.0
		for i, name := range wireOps {
			m["server."+name.String()+"_rtt_us"] = stats[name].meanUs
			rttUs += stats[name].meanUs * float64(stats[name].n)
			handlerUs += total(cHandlerMs+counter(i)) * 1e3
			ops += total(cHandlerN + counter(i))
		}
		m["server.handler_compose_us"] = ratio(total(cHandlerMs)*1e3, total(cHandlerN))
		m["server.wire_us_per_op"] = ratio(rttUs-handlerUs, ops)
		m["server.busy_share"] = ratio(handlerUs/1e6, windowS*float64(sp.lanes))
		m["server.reaped_per_s"] = ratio(total(cReaped), windowS)
		m["server.disconnect_release_us_per_session"] = extra("server.disconnect_release_us_per_session")
		if m["server.codec_us_per_session"], m["server.bytes_per_session"], err = codecReplay(*traced.lanes[0].frames); err != nil {
			return nil, 0, fmt.Errorf("codec replay: %w", err)
		}
		top = stats[opCompose].meanUs
	case kindWalk:
		top = stats[opFindApp].meanUs
	case kindDist:
		m["dist.steps_per_compose"] = ratio(total(cSteps), walks)
		m["dist.ns_per_step"] = ratio(total(cStepWallNs), total(cSteps))
		m["dist.msgs_probe_per_compose"] = ratio(total(cProbes), walks)
		m["dist.msgs_commit_per_compose"] = ratio(total(cCommitMsgs), walks)
		m["dist.msgs_release_per_session"] = ratio(total(cReleaseMsgs), traced.sum(func(e *episode) float64 { return float64(e.lifecycles) }))
		m["dist.timer_advances_per_compose"] = ratio(total(cAdvances), walks)
		m["dist.virtual_ms_per_compose"] = ratio(total(cVirtualMs), walks)
		m["dist.mailbox_peak"] = extra("dist.mailbox_peak")
		top = stats[opCompose].meanUs
	}

	// What the probe walks of the traced windows sent, returned and
	// reported, read from the engine's own message counters.
	m["core.returns_per_compose"] = ratio(total(cReturns), walks)
	m["core.useful_probe_share"] = ratio(total(cReturns), total(cProbes))
	m["state.updates_per_compose"] = ratio(total(cStateUpdates), walks)

	var rungs []rung
	if sp.kind == kindDist {
		stepped := stats[opCompose].meanUs - stats[opCompose].selfUs
		rungs = []rung{{"messages stepped", stepped}}
		// core and state rungs stay 0: dist has its own walk and ledger.
		m["core.returns_per_compose"], m["core.useful_probe_share"] = 0, 0
		m["state.updates_per_compose"] = 0
	} else {
		if err := replayLadder(sp, p.seed, m); err != nil {
			return nil, 0, fmt.Errorf("ladder: %w", err)
		}
		// On the wire the handlers spend most of their time outside
		// FindApp, so the wait for Cluster.mu is what a second
		// connection adds to the handler's own compose time; two direct
		// callers do nothing else, so there it is what the second caller
		// adds to FindApp.
		lockWait := m["runtime.findapp_2caller_us"] - m["runtime.findapp_us"]
		if sp.kind == kindWire {
			lockWait = m["server.handler_compose_us"] - handlerOneConnUs
			rungs = []rung{
				{"wire", m["server.wire_us_per_op"]},
				{"handler-non-runtime", handlerOneConnUs - m["runtime.findapp_us"]},
			}
		}
		rungs = append(rungs,
			rung{"lock wait", lockWait},
			rung{"runtime non-walk", m["runtime.nonwalk_us"]},
			rung{"walk", m["core.probe_us"] + m["core.commit_us"]})
	}
	explained := 0.0
	for _, r := range rungs {
		explained += r.us
	}
	m["harness.unattributed_share"] = ratio(top-explained, top)

	pe := plain.episodes[0]
	m["harness.compose_p95_ms"] = pe.p95
	m["harness.compose_p99_ms"] = pe.p99
	m["harness.release_p95_ms"] = pe.releaseP95
	m["harness.cpu_ms_per_session"] = ratio(pe.cpuS*1e3, float64(pe.lifecycles))
	m["harness.gc_cycles_per_s"] = ratio(float64(pe.gcCycles), pe.windowS)
	m["harness.gc_pause_ms"] = ratio(pe.gcPauseS*1e3, float64(pe.gcCycles))
	m["harness.goroutines_end"] = float64(pe.goroutines)
	rates := []float64{pe.sessionsPerS}
	for _, e := range traced.episodes {
		rates = append(rates, e.sessionsPerS)
	}
	lo, hi := rates[0], rates[0]
	for _, v := range rates {
		lo, hi = min(lo, v), max(hi, v)
	}
	m["harness.episode_spread"] = ratio(hi-lo, median(rates))
	m["harness.machine_speed"] = pe.speed
	m["harness.trace_overhead_share"] = 1 - ratio(traced.med(func(e *episode) float64 { return e.sessionsPerS }), pe.sessionsPerS)

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, 0, err
	}
	path := filepath.Join(outDir, "trace_"+sp.name+".jsonl")
	if err := writeSpans(path, traced.logs()); err != nil {
		return nil, 0, err
	}
	printLadder(stderr, sp, stats, top, rungs, m["harness.unattributed_share"], traced.logs(), path)

	out := make(map[string]metric, len(perLayer))
	for _, pl := range perLayer {
		out[pl.name] = metric{m[pl.name], pl.unit}
	}
	return out, attempted, nil
}

// rung is one term of the ladder: a layer's share of the outermost
// compose, in microseconds.
type rung struct {
	name string
	us   float64
}

func (sp *spec) topName() string {
	switch sp.kind {
	case kindWire:
		return "server.compose_rtt_us"
	case kindWalk:
		return "runtime.FindApp span (2 callers)"
	default:
		return "dist compose span"
	}
}

func printLadder(w io.Writer, sp *spec, stats map[op]opStats, top float64, rungs []rung, unattributed float64, logs []*spanLog, path string) {
	fmt.Fprintf(w, "spans of %s (mean us, self us, count):\n", sp.name)
	for name := opCycle; int(name) < len(opNames); name++ {
		if st, ok := stats[name]; ok {
			fmt.Fprintf(w, "  %-10s %10.2f %10.2f %9d\n", name, st.meanUs, st.selfUs, st.n)
		}
	}
	fmt.Fprintf(w, "ladder of %s: %s %.2f us =", sp.name, sp.topName(), top)
	for i, r := range rungs {
		if i > 0 {
			fmt.Fprint(w, " +")
		}
		fmt.Fprintf(w, " %s %.2f", r.name, r.us)
	}
	fmt.Fprintf(w, " + unattributed %.2f (harness.unattributed_share %.3f)\n", unattributed*top, unattributed)
	dropped := 0
	for _, l := range logs {
		dropped += l.dropped
	}
	fmt.Fprintf(w, "spans written to %s (%d past the buffer dropped)\n", path, dropped)
}

// env is the composition engine's environment assembled the way
// runtime.NewCluster assembles it, so that Composer and Ledger can be
// called directly, below the runtime's lock, quota and gauges.
type env struct {
	rng      *rand.Rand
	mesh     *overlay.Mesh
	ledger   *state.Ledger
	composer *core.Composer
	start    time.Time
	nextReq  int64

	topologyS, meshS, placeS float64
}

func buildEnv(sp *spec) (*env, error) {
	cfg := clusterConfig(sp, nil)
	e := &env{rng: rand.New(rand.NewSource(cfg.Seed)), start: time.Now()}

	t0 := time.Now()
	tcfg := topology.DefaultConfig()
	tcfg.Nodes = cfg.IPNodes
	graph, err := topology.Generate(tcfg, e.rng)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	ocfg := overlay.DefaultConfig()
	ocfg.Nodes = cfg.OverlayNodes
	ocfg.NeighborsPerNode = cfg.NeighborsPerNode
	if e.mesh, err = overlay.Build(graph, ocfg, e.rng); err != nil {
		return nil, err
	}
	t2 := time.Now()
	pcfg := component.DefaultPlacementConfig()
	pcfg.NumFunctions = cfg.NumFunctions
	pcfg.ComponentsPerNode = cfg.ComponentsPerNode
	catalog, err := component.Place(e.mesh.NumNodes(), pcfg, e.rng)
	if err != nil {
		return nil, err
	}
	e.topologyS, e.meshS, e.placeS = t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds(), time.Since(t2).Seconds()

	counters := &metrics.Counters{}
	e.ledger = state.NewLedger(e.mesh, cfg.NodeCapacity, e.now)
	global, err := state.NewGlobal(e.ledger, e.mesh, state.DefaultGlobalConfig(), counters)
	if err != nil {
		return nil, err
	}
	ccfg := core.DefaultConfig()
	ccfg.Algorithm = cfg.Algorithm
	ccfg.ProbingRatio = cfg.ProbingRatio
	e.composer, err = core.NewComposer(core.Env{
		Mesh:     e.mesh,
		Catalog:  catalog,
		Registry: discovery.NewRegistry(catalog, e.mesh.NumNodes(), counters),
		Ledger:   e.ledger,
		Global:   global,
		Counters: counters,
		Now:      e.now,
		Rand:     e.rng,
		Obs:      obs.NewRegistry(),
	}, ccfg)
	return e, err
}

func (e *env) now() time.Duration { return time.Since(e.start) }

// request numbers a generated request and draws its deputy as the
// cluster does.
func (e *env) request(r *request) *component.Request {
	e.nextReq++
	return r.component(e.nextReq, e.rng.Intn(e.mesh.NumNodes()))
}

// stopwatch sums the time of repeated calls.
type stopwatch struct {
	total time.Duration
	n     int
}

func (s *stopwatch) time(f func()) {
	t0 := time.Now()
	f()
	s.total += time.Since(t0)
	s.n++
}

func (s *stopwatch) add(o stopwatch) { s.total, s.n = s.total+o.total, s.n+o.n }

func (s *stopwatch) us() float64 { return ratio(float64(s.total)/1e3, float64(s.n)) }
func (s *stopwatch) ns() float64 { return ratio(float64(s.total), float64(s.n)) }

// shapeN is how many requests of each fixed shape the ladder probes.
const shapeN = 100

// ladderStreams returns the lanes' streams afresh: every boundary of
// the ladder gets the same fill, then the same requests.
func ladderStreams(sp *spec, seed int64) []*stream {
	streams := make([]*stream, sp.lanes)
	for lane := range streams {
		streams[lane] = newStream(sp, seed, 0, lane)
	}
	return streams
}

// replayLadder measures the layers below the workload's outermost call
// on substrates built like the workload's and filled to its occupancy,
// replaying the requests the lanes generate after their fill.
func replayLadder(sp *spec, seed int64, m map[string]float64) error {
	if err := replayCore(sp, seed, m); err != nil {
		return err
	}
	return replayRuntime(sp, seed, m)
}

// replayCore calls the composer and the ledger directly: the core,
// state, qos and overlay rungs.
func replayCore(sp *spec, seed int64, m map[string]float64) error {
	streams := ladderStreams(sp, seed)
	e, err := buildEnv(sp)
	if err != nil {
		return err
	}
	m["overlay.topology_s"], m["overlay.mesh_build_s"], m["overlay.place_s"] = e.topologyS, e.meshS, e.placeS
	for i := 0; i < sp.ring; i++ {
		for _, st := range streams {
			r := st.next()
			out, err := e.composer.Probe(e.request(&r))
			if err != nil || !out.Success() {
				return fmt.Errorf("fill probe %d: %v", i, err)
			}
			if err := e.composer.Commit(out); err != nil {
				return err
			}
		}
	}
	var probe, commit, release stopwatch
	probesSent := 0
	for i := 0; i < sp.ladderN; i++ {
		r := streams[0].next()
		req := e.request(&r)
		var out *core.Outcome
		probe.time(func() { out, err = e.composer.Probe(req) })
		if err != nil {
			return err
		}
		probesSent += out.ProbesSent
		if !out.Success() {
			continue
		}
		commit.time(func() { err = e.composer.Commit(out) })
		if err != nil {
			return err
		}
		release.time(func() { e.composer.Release(req.ID) })
	}
	m["core.probe_us"], m["core.commit_us"], m["core.release_us"] = probe.us(), commit.us(), release.us()
	m["core.ns_per_probe"] = ratio(float64(probe.total), float64(probesSent))

	shapes := rand.New(rand.NewSource(mix(seed, 99)))
	for _, shape := range []struct {
		name   string
		n      int
		branch [2]int
	}{{"core.probe_path2_us", 2, [2]int{}}, {"core.probe_path5_us", 5, [2]int{}}, {"core.probe_dag5_us", 5, [2]int{1, 2}}} {
		var sw stopwatch
		for i := 0; i < shapeN; i++ {
			r := streams[0].next()
			r.Functions, r.Branch = shapes.Perm(sp.functions)[:shape.n], shape.branch
			req := e.request(&r)
			sw.time(func() { _, err = e.composer.Probe(req) })
			if err != nil {
				return err
			}
			e.composer.Abort(req.ID)
		}
		m[shape.name] = sw.us()
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < shapeN; i++ {
		r := streams[0].next()
		req := e.request(&r)
		if _, err := e.composer.Probe(req); err != nil {
			return err
		}
		e.composer.Abort(req.ID)
	}
	runtime.ReadMemStats(&m1)
	m["core.allocs_per_walk"] = float64(m1.Mallocs-m0.Mallocs) / shapeN

	measureState(e, m)
	return nil
}

// replayRuntime calls the cluster directly, one caller then two: the
// runtime and obs rungs. It reads the core rungs replayCore measured.
func replayRuntime(sp *spec, seed int64, m map[string]float64) error {
	reg := obs.NewRegistry()
	cluster, err := newCluster(sp, reg)
	if err != nil {
		return err
	}
	defer cluster.Shutdown()
	emptySeries := seriesCount(reg)
	streams := ladderStreams(sp, seed)
	var live []acprt.SessionID
	for i := 0; i < sp.ring; i++ {
		for lane, st := range streams {
			r := st.next()
			id, err := cluster.FindApp(r.find(tenant(lane)))
			if err != nil {
				return fmt.Errorf("fill findapp %d: %w", i, err)
			}
			live = append(live, id)
		}
	}
	if len(live) == 0 {
		// An empty ring still needs one session to recompose.
		r := streams[0].next()
		id, err := cluster.FindApp(r.find(tenant(0)))
		if err != nil {
			return err
		}
		live = append(live, id)
	}
	m["obs.series_live"] = float64(seriesCount(reg))
	m["runtime.series_per_session"] = ratio(m["obs.series_live"]-float64(emptySeries), float64(len(live)))
	var snapshot stopwatch
	for i := 0; i < 5; i++ {
		snapshot.time(func() { reg.Snapshot() })
	}
	m["obs.snapshot_ms"] = snapshot.us() / 1e3

	// The requests the lanes generate after their fill: one caller
	// works through lane after lane, two callers take a lane each.
	replay := make([][]request, sp.lanes)
	for lane := range replay {
		for i := 0; i < sp.ladderN/sp.lanes; i++ {
			replay[lane] = append(replay[lane], streams[lane].next())
		}
	}
	var find, closeSw, recompose, reject stopwatch
	findClose := func(lane int, find, closeSw *stopwatch) error {
		for i := range replay[lane] {
			fr := replay[lane][i].find(tenant(lane))
			var id acprt.SessionID
			var err error
			find.time(func() { id, err = cluster.FindApp(fr) })
			if errors.Is(err, acprt.ErrNoComposition) {
				continue
			}
			if err != nil {
				return err
			}
			closeSw.time(func() { err = cluster.Close(id) })
			if err != nil {
				return err
			}
		}
		return nil
	}
	for lane := range replay {
		if err := findClose(lane, &find, &closeSw); err != nil {
			return err
		}
	}
	m["runtime.findapp_us"], m["runtime.close_us"] = find.us(), closeSw.us()
	m["runtime.nonwalk_us"] = find.us() - m["core.probe_us"] - m["core.commit_us"]

	// Two callers: the same calls, a lane each at once. A caller meets
	// the other's FindApp at whichever of its lock acquisitions comes
	// next — Close takes Cluster.mu twice — so the wait is read from the
	// FindApp+Close pair, not from FindApp alone.
	finds, closes := make([]stopwatch, sp.lanes), make([]stopwatch, sp.lanes)
	errs := make([]error, sp.lanes)
	var wg sync.WaitGroup
	for lane := range finds {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			errs[lane] = findClose(lane, &finds[lane], &closes[lane])
		}(lane)
	}
	wg.Wait()
	var find2, close2 stopwatch
	for lane := range finds {
		if errs[lane] != nil {
			return errs[lane]
		}
		find2.add(finds[lane])
		close2.add(closes[lane])
	}
	m["runtime.findapp_2caller_us"] = find2.us()
	m["runtime.lock_wait_share"] = 1 - ratio(find.us()+closeSw.us(), find2.us()+close2.us())

	pick := rand.New(rand.NewSource(mix(seed, 98)))
	for i := 0; i < shapeN; i++ {
		id := live[pick.Intn(len(live))]
		recompose.time(func() { err = cluster.Recompose(id) })
		if err != nil && !errors.Is(err, acprt.ErrNoBetterComposition) {
			return err
		}
	}
	m["runtime.recompose_us"] = recompose.us()

	// A tenant whose quota is already spent: FindApp refuses before the
	// composer runs.
	cluster.SetTenantQuota("spent", acprt.TenantQuota{MaxCPU: 1e-9})
	for i := 0; i < sp.ladderN; i++ {
		r := streams[0].next()
		fr := r.find("spent")
		reject.time(func() { _, err = cluster.FindApp(fr) })
		if !errors.Is(err, acprt.ErrQuotaExceeded) {
			return fmt.Errorf("quota reject: got %v", err)
		}
	}
	m["runtime.quota_reject_us"] = reject.us()

	m["obs.session_gauges_ns"] = measureSessionGauges(len(live))
	return nil
}

// measureState times the ledger's operations at the env's occupancy,
// with amounts small enough to fit on a nearly full substrate.
func measureState(e *env, m map[string]float64) {
	const n = 20000
	l := e.ledger
	expires := e.now() + time.Hour
	owner := func(i int) state.Owner { return state.Owner(1<<40 + i) }
	small := qos.Resources{CPU: 1e-3, Memory: 1e-3}

	var holdNode, holdLink, commit, release stopwatch
	holdNode.time(func() {
		for i := 0; i < n; i++ {
			node := i % l.NumNodes()
			l.HoldNode(owner(i), 0, node, small, expires)
			l.ReleaseNodeHold(owner(i), 0, node)
		}
	})
	holdLink.time(func() {
		for i := 0; i < n; i++ {
			link := i % l.NumLinks()
			l.HoldLink(owner(i), 0, link, 1e-3, expires)
			l.ReleaseLinkHold(owner(i), 0, link)
		}
	})
	m["state.hold_node_ns"], m["state.hold_link_ns"] = holdNode.ns()/n, holdLink.ns()/n

	// A session of the workload's usual footprint: three nodes, six links.
	nodes := map[int]qos.Resources{0: small, 1: small, 2: small}
	links := map[int]float64{0: 1e-3, 1: 1e-3, 2: 1e-3, 3: 1e-3, 4: 1e-3, 5: 1e-3}
	for i := 0; i < n/10; i++ {
		commit.time(func() { _ = l.CommitSession(owner(i), nodes, links) })
		release.time(func() { l.ReleaseSession(owner(i)) })
	}
	m["state.commit_session_us"], m["state.release_session_us"] = commit.us(), release.us()

	var term stopwatch
	sink := 0.0
	term.time(func() {
		for i := 0; i < 50*n; i++ {
			sink += qos.CongestionTerm(qos.Resources{CPU: 4, Memory: 40}, qos.Resources{CPU: float64(i%97) + 1, Memory: 500})
		}
	})
	if sink < 0 {
		panic("unreachable: keeps the loop's result live")
	}
	m["qos.congestion_term_ns"] = term.ns() / (50 * n)
}

// sessionGaugeFamilies are the five per-session series the runtime
// keeps: four labelled by session, one by session and tenant.
var sessionGaugeFamilies = []string{"session.phi", "session.qos.observed", "session.qos.required", "session.phi.required"}

// measureSessionGauges times what one session costs in gauge writes —
// five With/Set at admission, five Delete at close — beside sessions
// already live.
func measureSessionGauges(live int) float64 {
	const n = 20000
	reg := obs.NewRegistry()
	var vecs []*obs.GaugeVec
	for _, name := range sessionGaugeFamilies {
		vecs = append(vecs, reg.GaugeVec(name, "session"))
	}
	byTenant := reg.GaugeVec("session.tenant", "session", "tenant")
	write := func(i int) {
		label := strconv.Itoa(i)
		for _, v := range vecs {
			v.With(label).Set(1)
		}
		byTenant.With(label, "t0").Set(1)
	}
	for i := 0; i < live; i++ {
		write(i)
	}
	var sw stopwatch
	sw.time(func() {
		for i := live; i < live+n; i++ {
			write(i)
			label := strconv.Itoa(i)
			for _, v := range vecs {
				v.Delete(label)
			}
			byTenant.Delete(label, "t0")
		}
	})
	return sw.ns() / n
}

// seriesCount is the number of series a scrape of the registry returns.
func seriesCount(reg *obs.Registry) int {
	s := reg.Snapshot()
	n := len(s.Counters) + len(s.Gauges) + len(s.Histograms) + len(s.Quantiles)
	for _, v := range s.CounterVecs {
		n += len(v.Values)
	}
	for _, v := range s.GaugeVecs {
		n += len(v.Values)
	}
	for _, v := range s.HistogramVecs {
		n += len(v.Values)
	}
	return n
}
