package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// system is one freshly built substrate driven through one episode.
// Building it is the timed set-up; the rest is the episode's shape:
// fill to the starting state, closed-loop cycles, drain, verify.
type system interface {
	// fill brings the system to the workload's starting occupancy.
	fill() error
	// cycle runs one closed-loop cycle on a lane: each call waits for
	// its replies, as a session-holding client does.
	cycle(lane int, rec *recorder)
	// counts reads the system's monotone counters; the harness
	// differences them over the timed window.
	counts() counts
	// drain releases every live session; verify then checks that the
	// substrate is pristine. close stops what build started.
	drain() error
	verify() error
	close()
}

// counter indexes one monotone counter a system exposes.
type counter int

const (
	cProbes       counter = iota // probe transmissions (dist: probe messages stepped)
	cReturns                     // complete probed paths back at the deputy
	cStateUpdates                // coarse global-state update messages

	// dist_stepped: what the driver stepped, classified from StepNode's
	// descriptions, and the virtual-clock work between messages.
	cSteps
	cCommitMsgs
	cReleaseMsgs
	cAdvances
	cVirtualMs
	cStepWallNs

	// wire: the server's own per-op handler time and op count (five
	// ops from cHandlerMs and cHandlerN, in wireOps order), and
	// sessions the reaper released for a missed commit.
	cHandlerMs
	cHandlerN = cHandlerMs + counter(len(wireOps))
	cReaped   = cHandlerN + counter(len(wireOps))
	nCounters = cReaped + 1
)

type counts [nCounters]float64

func (c counts) sub(o counts) counts {
	for i := range c {
		c[i] -= o[i]
	}
	return c
}

// sampleCap bounds each lane's per-episode latency buffers; they are
// allocated once per run so that sampling does not show in
// allocs_per_session.
const sampleCap = 1 << 18

// recorder collects one lane's observations over one phase.
type recorder struct {
	composeMs []float64 // admitted composes, client side
	releaseMs []float64

	busy       time.Duration // the lane's own time inside its closed loop
	attempts   int64         // composes attempted
	admitted   int64         // composes admitted
	walks      int64         // probe walks asked for: composes + recomposes
	lifecycles int64         // sessions admitted and released (or left to the reaper)
	failed     int64         // operations with an outcome no workload expects
	phiSum     float64
	firstErr   string

	spans  *spanLog // nil unless tracing
	frames *[]frame // nil unless tracing the wire
}

func newRecorder(samples int) *recorder {
	return &recorder{composeMs: make([]float64, 0, samples), releaseMs: make([]float64, 0, samples)}
}

func (r *recorder) reset() {
	spans, frames := r.spans, r.frames
	*r = recorder{composeMs: r.composeMs[:0], releaseMs: r.releaseMs[:0], spans: spans, frames: frames}
}

// fail counts an unexpected outcome; a run with any is not correct.
func (r *recorder) fail(format string, args ...interface{}) {
	r.failed++
	if r.firstErr == "" {
		r.firstErr = fmt.Sprintf(format, args...)
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// admit records one admitted compose; its phi must be a finite,
// non-negative Eq. 1 value.
func (r *recorder) admit(phi float64) {
	r.admitted++
	if math.IsNaN(phi) || math.IsInf(phi, 0) || phi < 0 {
		r.fail("admitted composition has phi %v", phi)
		return
	}
	r.phiSum += phi
}

// composed records the client-side latency of an admitted compose.
func (r *recorder) composed(latency time.Duration) {
	if len(r.composeMs) < cap(r.composeMs) {
		r.composeMs = append(r.composeMs, ms(latency))
	}
}

func (r *recorder) release(latency time.Duration) {
	r.lifecycles++
	if len(r.releaseMs) < cap(r.releaseMs) {
		r.releaseMs = append(r.releaseMs, ms(latency))
	}
}

// merge folds a lane's counts and samples into r.
func (r *recorder) merge(o *recorder) {
	r.composeMs = append(r.composeMs, o.composeMs...)
	r.releaseMs = append(r.releaseMs, o.releaseMs...)
	r.busy += o.busy
	r.attempts += o.attempts
	r.admitted += o.admitted
	r.walks += o.walks
	r.lifecycles += o.lifecycles
	r.failed += o.failed
	r.phiSum += o.phiSum
	if r.firstErr == "" {
		r.firstErr = o.firstErr
	}
}

// params shape one run.
type params struct {
	seed     int64
	episodes int
	window   time.Duration // measured time per episode: slices and the reference samples between them
	warmup   time.Duration
	lanes    int  // 0 means the workload's own
	trace    bool // record spans (and wire frames)
}

// lanesFor is the number of driver goroutines: the workload's own
// unless the run overrides it.
func (p params) lanesFor(sp *spec) int {
	if p.lanes > 0 {
		return p.lanes
	}
	return sp.lanes
}

// episode is what one episode measured.
type episode struct {
	setupS  float64 // reference seconds
	windowS float64 // wall seconds of the slices, as measured
	// The machine's speed over the window, from the reference samples:
	// percentiles are scaled by the median sample, means by the mean.
	speed, meanSpeed float64
	recorder
	counts     // deltas over the window
	mallocs    uint64
	cpuS       float64
	gcCycles   uint32
	gcPauseS   float64
	liveHeapMB float64 // last episode only
	goroutines int     // after the episode has closed everything

	// Timed results, in reference seconds (measured time x speed).
	sessionsPerS        float64
	p50, mean, p95, p99 float64 // admitted composes, ms
	releaseP95          float64
	extra               map[string]float64 // workload-specific per-layer readings
}

// drive runs the closed loops until the deadline, one goroutine per
// lane, and waits for them. Each lane times its own loop, so that a
// lane waiting for the other's last cycle does not count as work.
func drive(sys system, recs []*recorder, until time.Time) {
	var wg sync.WaitGroup
	for lane, rec := range recs {
		wg.Add(1)
		go func(lane int, rec *recorder) {
			defer wg.Done()
			start := time.Now()
			for time.Now().Before(until) {
				sys.cycle(lane, rec)
			}
			rec.busy += time.Since(start)
		}(lane, rec)
	}
	wg.Wait()
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// sliceLength is the stretch of closed-loop cycles between two samples
// of the reference kernel (8 ms each): the machine's speed is read
// about forty times in an episode, at the moments the work is timed.
const sliceLength = 90 * time.Millisecond

// usage is what the process spent between two readings.
type usage struct {
	mallocs  uint64
	gcCycles uint32
	gcPauseS float64
	cpuS     float64
}

func readUsage() usage {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return usage{m.Mallocs, m.NumGC, float64(m.PauseTotalNs) / 1e9, cpuSeconds()}
}

// runEpisode builds a fresh substrate (timed), fills it, warms up,
// measures one window, drains and verifies. The window is cut into
// slices with a reference sample before and after each, and so is the
// build; the episode's timed results are what was measured times the
// machine's speed over that stretch. warm and timed hold one recorder
// per lane and are reused between episodes.
func runEpisode(sp *spec, p params, ep int, ref *reference, warm, timed []*recorder) (*episode, error) {
	runtime.GC()
	before := runtime.NumGoroutine()

	around := []float64{ref.sample(), ref.sample()}
	start := time.Now()
	sys, err := build(sp, p, ep)
	if err != nil {
		return nil, fmt.Errorf("%s: build: %w", sp.name, err)
	}
	setup := time.Since(start).Seconds()
	around = append(around, ref.sample(), ref.sample())
	e := &episode{setupS: setup * speed(around)}
	defer func() {
		if sys != nil {
			sys.close()
		}
	}()
	if err := sys.fill(); err != nil {
		return nil, fmt.Errorf("%s: fill: %w", sp.name, err)
	}

	for _, r := range warm {
		r.reset()
	}
	for _, r := range timed {
		r.reset()
	}
	drive(sys, warm, time.Now().Add(p.warmup))

	// Reference samples are taken outside the usage readings, so that
	// allocs_per_session and the CPU time are the workload's alone.
	counts0 := sys.counts()
	samples := []float64{ref.sample()}
	for t0 := time.Now(); time.Since(t0) < p.window; {
		u0, s0 := readUsage(), time.Now()
		drive(sys, timed, s0.Add(sliceLength))
		e.windowS += time.Since(s0).Seconds()
		u1 := readUsage()
		e.mallocs += u1.mallocs - u0.mallocs
		e.gcCycles += u1.gcCycles - u0.gcCycles
		e.gcPauseS += u1.gcPauseS - u0.gcPauseS
		e.cpuS += u1.cpuS - u0.cpuS
		samples = append(samples, ref.sample())
	}
	e.counts = sys.counts().sub(counts0)
	e.speed = speed(samples)
	e.meanSpeed = meanSpeed(samples)

	if ep == p.episodes-1 {
		// Live heap with the ring's sessions still held.
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		e.liveHeapMB = float64(m.HeapAlloc) / (1 << 20)
	}

	for _, r := range warm {
		e.failed += r.failed
		if e.firstErr == "" {
			e.firstErr = r.firstErr
		}
	}
	for _, r := range timed {
		e.merge(r)
		e.sessionsPerS += ratio(float64(r.lifecycles), r.busy.Seconds()*e.meanSpeed)
	}
	sort.Float64s(e.composeMs)
	sort.Float64s(e.releaseMs)
	e.p50, e.p95, e.p99 = e.speed*percentile(e.composeMs, 50), e.speed*percentile(e.composeMs, 95), e.speed*percentile(e.composeMs, 99)
	e.releaseP95 = e.speed * percentile(e.releaseMs, 95)
	for _, v := range e.composeMs {
		e.mean += v
	}
	e.mean = e.meanSpeed * ratio(e.mean, float64(len(e.composeMs)))
	// The samples are not kept: a later episode's live heap must not
	// depend on how many an earlier one took.
	e.composeMs, e.releaseMs = nil, nil

	if err := sys.drain(); err != nil {
		return nil, fmt.Errorf("%s: drain: %w", sp.name, err)
	}
	if err := sys.verify(); err != nil {
		return nil, fmt.Errorf("%s: verify: %w", sp.name, err)
	}
	if x, ok := sys.(interface{ extra() map[string]float64 }); ok {
		e.extra = x.extra()
	}
	sys.close()
	sys = nil
	e.goroutines = settleGoroutines(before)
	if e.goroutines != before {
		return nil, fmt.Errorf("%s: %d goroutines after the episode, %d before it", sp.name, e.goroutines, before)
	}
	if e.failed > 0 {
		return nil, fmt.Errorf("%s: %d operations failed, first: %s", sp.name, e.failed, e.firstErr)
	}
	if e.admitted == 0 {
		return nil, fmt.Errorf("%s: no compose was admitted in the window", sp.name)
	}
	return e, nil
}

// settleGoroutines waits briefly for goroutines that are on their way
// out (closed connections' handlers, fired timers) and returns the count.
func settleGoroutines(want int) int {
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= want || time.Now().After(deadline) {
			return n
		}
		time.Sleep(time.Millisecond)
	}
}

// build constructs the workload's system; this is what setup_s times.
func build(sp *spec, p params, ep int) (system, error) {
	lanes := p.lanesFor(sp)
	switch sp.kind {
	case kindWire:
		return buildWire(sp, p, ep, lanes)
	case kindWalk:
		return buildWalk(sp, p, ep, lanes)
	default:
		return buildDist(sp, p, ep)
	}
}

// run is one full run of a workload: p.episodes episodes.
type run struct {
	episodes []*episode
	lanes    []*recorder // the timed recorders; they keep the run's spans and frames
}

// logs returns the lanes' span logs.
func (r *run) logs() []*spanLog {
	logs := make([]*spanLog, len(r.lanes))
	for i, rec := range r.lanes {
		logs[i] = rec.spans
	}
	return logs
}

func runWorkload(sp *spec, p params) (*run, error) {
	lanes := p.lanesFor(sp)
	warm, timed := make([]*recorder, lanes), make([]*recorder, lanes)
	for i := range warm {
		warm[i] = newRecorder(0)
		timed[i] = newRecorder(sampleCap)
		if p.trace {
			timed[i].spans = newSpanLog(i)
			if sp.kind == kindWire {
				timed[i].frames = new([]frame)
			}
		}
	}
	r := &run{lanes: timed}
	ref := newReference()
	for ep := 0; ep < p.episodes; ep++ {
		e, err := runEpisode(sp, p, ep, ref, warm, timed)
		if err != nil {
			return nil, fmt.Errorf("episode %d: %w", ep, err)
		}
		r.episodes = append(r.episodes, e)
	}
	return r, nil
}

// sum totals a count over the run's windows.
func (r *run) sum(f func(*episode) float64) float64 {
	t := 0.0
	for _, e := range r.episodes {
		t += f(e)
	}
	return t
}

// med is the median over episodes of a per-episode value.
func (r *run) med(f func(*episode) float64) float64 {
	v := make([]float64, len(r.episodes))
	for i, e := range r.episodes {
		v[i] = f(e)
	}
	return median(v)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEndMetrics declares the gated metrics: the same nine on every
// workload. bound is the share of the parent's median by which the
// metric may get worse; BENCHMARK.json carries the same table.
var endToEndMetrics = []struct {
	name, unit, better string
	bound              float64
}{
	{"setup_s", "s", "lower", 0.25},
	{"sessions_per_s", "1/s", "higher", 0.25},
	{"compose_p50_ms", "ms", "lower", 0.25},
	{"compose_mean_ms", "ms", "lower", 0.25},
	{"success_share", "ratio", "higher", 0.01},
	{"mean_phi", "phi", "lower", 0.10},
	{"probes_per_compose", "count", "lower", 0.10},
	{"allocs_per_session", "count", "lower", 0.05},
	{"live_heap_mb", "MB", "lower", 0.10},
}

// endToEnd computes the nine end-to-end metrics: timed ones as medians
// over episodes, counts as totals over the windows.
func (r *run) endToEnd() map[string]metric {
	total := func(f func(*episode) float64) float64 { return r.sum(f) }
	admitted := total(func(e *episode) float64 { return float64(e.admitted) })
	lifecycles := total(func(e *episode) float64 { return float64(e.lifecycles) })
	values := map[string]float64{
		"setup_s":            r.med(func(e *episode) float64 { return e.setupS }),
		"sessions_per_s":     r.med(func(e *episode) float64 { return e.sessionsPerS }),
		"compose_p50_ms":     r.med(func(e *episode) float64 { return e.p50 }),
		"compose_mean_ms":    r.med(func(e *episode) float64 { return e.mean }),
		"success_share":      ratio(admitted, total(func(e *episode) float64 { return float64(e.attempts) })),
		"mean_phi":           ratio(total(func(e *episode) float64 { return e.phiSum }), admitted),
		"probes_per_compose": ratio(total(func(e *episode) float64 { return e.counts[cProbes] }), total(func(e *episode) float64 { return float64(e.walks) })),
		"allocs_per_session": ratio(total(func(e *episode) float64 { return float64(e.mallocs) }), lifecycles),
		"live_heap_mb":       r.episodes[len(r.episodes)-1].liveHeapMB,
	}
	out := make(map[string]metric, len(endToEndMetrics))
	for _, em := range endToEndMetrics {
		out[em.name] = metric{values[em.name], em.unit}
	}
	return out
}

// attempted counts the composes the run's windows attempted.
func (r *run) attempted() int64 {
	return int64(r.sum(func(e *episode) float64 { return float64(e.attempts) }))
}
