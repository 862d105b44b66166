// Command acpload is a closed/open-loop load generator for the ACP
// session server (acpserve). Each client connection drives full
// session lifecycles — compose, commit, optional hold, teardown —
// and the tool reports committed compositions/sec at saturation plus
// client-side compose latency quantiles (p50/p99/p999), with typed
// rejections (capacity, quota, busy) tallied separately from
// transport errors.
//
// Closed loop (the default) keeps -clients connections each with one
// request in flight — the classic saturation harness. Open loop
// (-rate) fires arrivals on a schedule regardless of completions; the
// -family flag shapes that schedule with one of internal/workload's
// scenario families (flash-crowd, diurnal, churn, ...) so the wire
// path sees the same arrival curves the simulation harness replays.
//
// Usage:
//
//	acpload -addr 127.0.0.1:7433 -clients 8 -duration 30s
//	acpload -addr 127.0.0.1:7433 -rate 50 -duration 1m
//	acpload -addr 127.0.0.1:7433 -family flash-crowd -ticks 40 -load 3
//	acpload -addr 127.0.0.1:7433 -duration 5s -json out.json
//
// -json writes the report as a JSON document.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "acpload:", err)
		os.Exit(1)
	}
}

// stats aggregates results across workers.
type stats struct {
	mu        sync.Mutex
	committed int64
	codes     map[string]int64
	transport int64
	overflow  int64 // open-loop arrivals dropped because all clients were busy
	lat       *obs.QHistogram
}

func newStats() *stats {
	return &stats{codes: make(map[string]int64), lat: obs.NewQHistogram()}
}

func (st *stats) code(c string) {
	st.mu.Lock()
	st.codes[c]++
	st.mu.Unlock()
}

// baseline is the -json report document.
type baseline struct {
	Context    map[string]string `json:"context,omitempty"`
	Benchmarks []benchmark       `json:"benchmarks"`
}

type benchmark struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("acpload", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", "127.0.0.1:7433", "acpserve session address")
		clients   = fs.Int("clients", 4, "concurrent client connections")
		duration  = fs.Duration("duration", 10*time.Second, "run length (ignored with -family)")
		rate      = fs.Float64("rate", 0, "open-loop arrivals/sec (0 = closed loop)")
		tenants   = fs.Int("tenants", 2, "tenant identities spread across clients (t0, t1, ...)")
		functions = fs.Int("functions", 16, "server's function catalogue size to draw requests from")
		seed      = fs.Int64("seed", 1, "request-shape seed")
		hold      = fs.Duration("hold", 0, "dwell between commit and teardown")
		familyS   = fs.String("family", "", "shape open-loop arrivals with a workload family (flash-crowd, diurnal, churn, hetero-nodes, zone-outage)")
		ticks     = fs.Int("ticks", 40, "family mode: episode length in ticks")
		load      = fs.Float64("load", 2, "family mode: base arrivals per tenant per tick")
		tickDur   = fs.Duration("tick", 200*time.Millisecond, "family mode: real duration of one tick")
		jsonPath  = fs.String("json", "", "write the report as JSON here")
		minCommit = fs.Int64("min-committed", 0, "fail unless at least this many sessions committed (CI gate)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if *clients < 1 || *tenants < 1 || *functions < 1 {
		return errors.New("-clients, -tenants, and -functions must be >= 1")
	}

	// Arrival schedule: nil = closed loop; otherwise a token stream the
	// workers consume. Tokens beyond the buffer are dropped and counted
	// — an open loop never queues unboundedly behind a slow server.
	var arrivals chan struct{}
	mode := "closed loop"
	var plan *workload.MultiAppPlan
	if *familyS != "" {
		fam, err := workload.ParseFamily(*familyS)
		if err != nil {
			return err
		}
		plan, err = workload.NewMultiAppPlan(workload.MultiAppPlanConfig{
			Family:   fam,
			Seed:     *seed,
			Tenants:  *tenants,
			Ticks:    *ticks,
			Load:     *load,
			Tick:     *tickDur,
			NumNodes: 64,
		})
		if err != nil {
			return err
		}
		arrivals = make(chan struct{}, 256)
		mode = "family " + *familyS
		*duration = time.Duration(*ticks) * *tickDur
	} else if *rate > 0 {
		arrivals = make(chan struct{}, 256)
		mode = fmt.Sprintf("open loop %.1f/s", *rate)
	}

	st := newStats()
	start := time.Now()
	deadline := start.Add(*duration)

	if arrivals != nil {
		go func() {
			defer close(arrivals)
			if plan != nil {
				producePlan(plan, arrivals, st)
				return
			}
			produceRate(*rate, deadline, arrivals, st)
		}()
	}

	var wg sync.WaitGroup
	for i := 0; i < *clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := &worker{
				addr:     *addr,
				tenant:   fmt.Sprintf("t%d", i%*tenants),
				rng:      rand.New(rand.NewSource(*seed + int64(i))),
				fns:      *functions,
				hold:     *hold,
				deadline: deadline,
				arrivals: arrivals,
				st:       st,
			}
			w.loop()
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	report(stdout, mode, *clients, elapsed, st)
	if *jsonPath != "" {
		if err := writeBaseline(*jsonPath, mode, elapsed, st); err != nil {
			return err
		}
	}
	if st.committed < *minCommit {
		return fmt.Errorf("committed %d sessions, need at least %d", st.committed, *minCommit)
	}
	return nil
}

// produceRate emits arrivals at a constant rate until the deadline.
func produceRate(rate float64, deadline time.Time, arrivals chan<- struct{}, st *stats) {
	interval := time.Duration(float64(time.Second) / rate)
	if interval <= 0 {
		interval = time.Microsecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for now := range tick.C {
		if now.After(deadline) {
			return
		}
		select {
		case arrivals <- struct{}{}:
		default:
			st.mu.Lock()
			st.overflow++
			st.mu.Unlock()
		}
	}
}

// producePlan replays a workload family's per-tick arrival counts on
// the wall clock: each tick's aggregate arrivals are spread evenly
// across the tick's real duration.
func producePlan(plan *workload.MultiAppPlan, arrivals chan<- struct{}, st *stats) {
	for t := 0; t < plan.Ticks; t++ {
		count := 0
		for i := range plan.Tenants {
			count += plan.Tenants[i].Arrivals[t]
		}
		if count == 0 {
			time.Sleep(plan.Tick)
			continue
		}
		gap := plan.Tick / time.Duration(count)
		for n := 0; n < count; n++ {
			select {
			case arrivals <- struct{}{}:
			default:
				st.mu.Lock()
				st.overflow++
				st.mu.Unlock()
			}
			time.Sleep(gap)
		}
	}
}

// worker drives one connection's session lifecycles.
type worker struct {
	addr     string
	tenant   string
	rng      *rand.Rand
	fns      int
	hold     time.Duration
	deadline time.Time
	arrivals <-chan struct{} // nil = closed loop
	st       *stats

	cl *server.Client
}

func (w *worker) loop() {
	defer func() {
		if w.cl != nil {
			_ = w.cl.Close()
		}
	}()
	for time.Now().Before(w.deadline) {
		if w.arrivals != nil {
			if _, ok := <-w.arrivals; !ok {
				return
			}
		}
		if !w.cycle() {
			// Transport trouble: drop the connection and redial next
			// round (the server has already released our sessions).
			if w.cl != nil {
				_ = w.cl.Close()
				w.cl = nil
			}
		}
	}
}

// connect (re)establishes the session dialogue.
func (w *worker) connect() bool {
	if w.cl != nil {
		return true
	}
	cl, err := server.Dial(w.addr)
	if err != nil {
		w.st.mu.Lock()
		w.st.transport++
		w.st.mu.Unlock()
		time.Sleep(10 * time.Millisecond)
		return false
	}
	if resp, err := cl.Hello(w.tenant); err != nil || !resp.OK {
		_ = cl.Close()
		w.st.mu.Lock()
		w.st.transport++
		w.st.mu.Unlock()
		return false
	}
	w.cl = cl
	return true
}

// cycle runs one compose→commit→teardown lifecycle. false means the
// transport failed and the connection should be rebuilt.
func (w *worker) cycle() bool {
	if !w.connect() {
		return false
	}
	length := 2 + w.rng.Intn(3)
	fns := make([]int, length)
	for i := range fns {
		fns[i] = w.rng.Intn(w.fns)
	}
	req := server.Request{
		Functions:     fns,
		CPU:           2 + w.rng.Float64()*6,
		MemoryMB:      20 + w.rng.Float64()*40,
		Delay:         1e5,
		LossProb:      0.9,
		BandwidthKbps: 20 + w.rng.Float64()*40,
	}
	composeStart := time.Now()
	resp, err := w.cl.Compose(req)
	if err != nil {
		w.st.mu.Lock()
		w.st.transport++
		w.st.mu.Unlock()
		return false
	}
	w.st.lat.Observe(float64(time.Since(composeStart)) / float64(time.Millisecond))
	if !resp.OK {
		w.st.code(resp.Code)
		return true
	}
	if cm, err := w.cl.Commit(resp.Session); err != nil || !cm.OK {
		w.st.mu.Lock()
		w.st.transport++
		w.st.mu.Unlock()
		return false
	}
	w.st.mu.Lock()
	w.st.committed++
	w.st.mu.Unlock()
	if w.hold > 0 {
		time.Sleep(w.hold)
	}
	if td, err := w.cl.Teardown(resp.Session); err != nil || !td.OK {
		w.st.mu.Lock()
		w.st.transport++
		w.st.mu.Unlock()
		return false
	}
	return true
}

func report(w io.Writer, mode string, clients int, elapsed time.Duration, st *stats) {
	st.mu.Lock()
	defer st.mu.Unlock()
	rate := float64(st.committed) / elapsed.Seconds()
	fmt.Fprintf(w, "acpload: %s, %d clients, %.1fs\n", mode, clients, elapsed.Seconds())
	fmt.Fprintf(w, "committed  %d sessions   %.1f compositions/sec\n", st.committed, rate)
	fmt.Fprintf(w, "latency    p50 %.2fms  p99 %.2fms  p999 %.2fms  max %.2fms\n",
		st.lat.Quantile(0.5), st.lat.Quantile(0.99), st.lat.Quantile(0.999), st.lat.Max())
	fmt.Fprintf(w, "rejected   capacity %d, quota %d, busy %d\n",
		st.codes[server.CodeCapacity], st.codes[server.CodeQuota], st.codes[server.CodeBusy])
	if st.transport > 0 || st.overflow > 0 {
		fmt.Fprintf(w, "trouble    transport errors %d, open-loop overflow %d\n", st.transport, st.overflow)
	}
}

func writeBaseline(path, mode string, elapsed time.Duration, st *stats) error {
	st.mu.Lock()
	doc := baseline{
		Context: map[string]string{"tool": "acpload", "mode": mode},
		Benchmarks: []benchmark{{
			Name:       "acpload/compose",
			Iterations: st.committed,
			Metrics: map[string]float64{
				"compositions/sec":  float64(st.committed) / elapsed.Seconds(),
				"p50-ms":            st.lat.Quantile(0.5),
				"p99-ms":            st.lat.Quantile(0.99),
				"p999-ms":           st.lat.Quantile(0.999),
				"max-ms":            st.lat.Max(),
				"rejected-capacity": float64(st.codes[server.CodeCapacity]),
				"rejected-quota":    float64(st.codes[server.CodeQuota]),
				"rejected-busy":     float64(st.codes[server.CodeBusy]),
				"transport-errors":  float64(st.transport),
			},
		}},
	}
	st.mu.Unlock()
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
