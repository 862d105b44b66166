package experiment

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/tuning"
	"repro/internal/workload"
)

// Options scales a figure reproduction. The zero value means full paper
// scale with seed 1.
type Options struct {
	// Seed controls platform and workload randomness (default 1).
	Seed int64
	// DurationScale multiplies simulated durations; benchmarks use small
	// fractions. Durations never fall below two sampling periods.
	DurationScale float64
	// IPNodes overrides the IP-layer graph size (default 3200).
	IPNodes int
}

func (o Options) normalize() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.DurationScale <= 0 {
		o.DurationScale = 1
	}
	if o.IPNodes == 0 {
		o.IPNodes = 3200
	}
	return o
}

func (o Options) duration(full time.Duration) time.Duration {
	d := time.Duration(float64(full) * o.DurationScale)
	if d < 10*time.Minute {
		d = 10 * time.Minute
	}
	return d
}

// probeBudget bounds per-request probe fan-out on the dense (10
// candidates per function) platform used by Figures 5 and 8, where high
// probing ratios would otherwise expand 10^5 probes per request.
const probeBudget = 2000

// alphaGrid is the probing-ratio x-axis of Figure 5.
var alphaGrid = []float64{0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}

// densePlatform builds the 10-candidates-per-function system used by the
// probing-ratio experiments (Figures 5 and 8): the paper's §3.4 example
// speaks of ten candidate components per function.
func densePlatform(o Options, overlayNodes int) (*Platform, error) {
	cfg := DefaultSystemConfig()
	cfg.Seed = o.Seed
	cfg.IPNodes = o.IPNodes
	cfg.OverlayNodes = overlayNodes
	cfg.ComponentsPerNode = 2
	return BuildPlatform(cfg)
}

// sparsePlatform builds the 5-candidates-per-function system used by the
// algorithm-comparison experiments (Figures 6 and 7), keeping the
// exhaustive Optimal baseline tractable.
func sparsePlatform(o Options, overlayNodes int) (*Platform, error) {
	cfg := DefaultSystemConfig()
	cfg.Seed = o.Seed
	cfg.IPNodes = o.IPNodes
	cfg.OverlayNodes = overlayNodes
	cfg.ComponentsPerNode = 1
	return BuildPlatform(cfg)
}

func fmtPct(v float64) string  { return fmt.Sprintf("%.1f", 100*v) }
func fmtRate(v float64) string { return fmt.Sprintf("%.0f", v) }

// Figure5a reproduces Figure 5(a): composition success rate as a
// function of the probing ratio under different request rates (50 and
// 100 requests/minute, N=400).
func Figure5a(o Options) ([]*Table, error) {
	o = o.normalize()
	p, err := densePlatform(o, 400)
	if err != nil {
		return nil, err
	}
	rates := []float64{50, 100}
	t := &Table{
		Title:  "Figure 5(a): success rate (%) vs probing ratio under request rates",
		Header: []string{"probing ratio", "50 reqs/min", "100 reqs/min"},
	}
	var rcs []RunConfig
	for _, alpha := range alphaGrid {
		for _, rate := range rates {
			rc := DefaultRunConfig(rate)
			rc.Seed = o.Seed
			rc.ProbingRatio = alpha
			rc.Duration = o.duration(100 * time.Minute)
			rc.MaxProbesPerRequest = probeBudget
			rcs = append(rcs, rc)
		}
	}
	results, err := RunConcurrent(p, rcs, 0)
	if err != nil {
		return nil, err
	}
	for i, alpha := range alphaGrid {
		row := []string{fmt.Sprintf("%.2f", alpha)}
		for j := range rates {
			row = append(row, fmtPct(results[i*len(rates)+j].SuccessRate))
		}
		t.AddRow(row...)
	}
	return []*Table{t}, nil
}

// Figure5b reproduces Figure 5(b): success rate vs probing ratio under
// different QoS strictness levels (rate 80, N=400). The run tightens the
// per-function delay budget so the QoS constraint — not only resource
// contention — shapes the saturation level.
func Figure5b(o Options) ([]*Table, error) {
	o = o.normalize()
	p, err := densePlatform(o, 400)
	if err != nil {
		return nil, err
	}
	levels := []workload.QoSLevel{workload.QoSLow, workload.QoSHigh, workload.QoSVeryHigh}
	t := &Table{
		Title:  "Figure 5(b): success rate (%) vs probing ratio under QoS requirements",
		Header: []string{"probing ratio", "low QoS", "high QoS", "very high QoS"},
	}
	var rcs []RunConfig
	for _, alpha := range alphaGrid {
		for _, lvl := range levels {
			rc := DefaultRunConfig(80)
			rc.Seed = o.Seed
			rc.ProbingRatio = alpha
			rc.QoSLevel = lvl
			rc.Duration = o.duration(100 * time.Minute)
			rc.MaxProbesPerRequest = probeBudget
			rc.WorkloadOverride = func(w *workload.Config) {
				w.DelayReqPerFunctionMin = 45
				w.DelayReqPerFunctionMax = 80
			}
			rcs = append(rcs, rc)
		}
	}
	results, err := RunConcurrent(p, rcs, 0)
	if err != nil {
		return nil, err
	}
	for i, alpha := range alphaGrid {
		row := []string{fmt.Sprintf("%.2f", alpha)}
		for j := range levels {
			row = append(row, fmtPct(results[i*len(levels)+j].SuccessRate))
		}
		t.AddRow(row...)
	}
	return []*Table{t}, nil
}

// figure6Algorithms is the legend of Figure 6(a)/7(a).
var figure6Algorithms = []core.Algorithm{
	core.AlgOptimal, core.AlgACP, core.AlgSP, core.AlgRP, core.AlgRandom, core.AlgStatic,
}

// overheadAlgorithms is the legend of Figure 6(b)/7(b).
var overheadAlgorithms = []core.Algorithm{core.AlgOptimal, core.AlgACP, core.AlgRP}

// Figure6 reproduces the efficiency evaluation: Figure 6(a) success rate
// and Figure 6(b) control overhead versus request rate on a 400-node
// system with probing ratio 0.3.
func Figure6(o Options) ([]*Table, error) {
	o = o.normalize()
	p, err := sparsePlatform(o, 400)
	if err != nil {
		return nil, err
	}
	rates := []float64{20, 40, 60, 80, 100}

	succ := &Table{
		Title:  "Figure 6(a): success rate (%) vs request rate (reqs/min), N=400, alpha=0.3",
		Header: []string{"request rate"},
	}
	ovh := &Table{
		Title:  "Figure 6(b): overhead (messages/min) vs request rate, N=400, alpha=0.3",
		Header: []string{"request rate"},
	}
	for _, alg := range figure6Algorithms {
		succ.Header = append(succ.Header, alg.String())
	}
	for _, alg := range overheadAlgorithms {
		ovh.Header = append(ovh.Header, alg.String())
	}

	for _, rate := range rates {
		succRow := []string{fmtRate(rate)}
		ovhByAlg := make(map[core.Algorithm]float64, len(figure6Algorithms))
		for _, alg := range figure6Algorithms {
			rc := DefaultRunConfig(rate)
			rc.Seed = o.Seed
			rc.Algorithm = alg
			rc.Duration = o.duration(100 * time.Minute)
			res, err := Run(p, rc)
			if err != nil {
				return nil, err
			}
			succRow = append(succRow, fmtPct(res.SuccessRate))
			ovhByAlg[alg] = res.OverheadPerMinute
		}
		succ.AddRow(succRow...)
		ovhRow := []string{fmtRate(rate)}
		for _, alg := range overheadAlgorithms {
			ovhRow = append(ovhRow, fmt.Sprintf("%.0f", ovhByAlg[alg]))
		}
		ovh.AddRow(ovhRow...)
	}
	return []*Table{succ, ovh}, nil
}

// Figure7 reproduces the scalability evaluation: Figure 7(a) success
// rate and Figure 7(b) overhead versus system size (200-600 nodes) at 80
// requests/minute. Candidate components per function grow proportionally
// with the node count, as in §4.2.
func Figure7(o Options) ([]*Table, error) {
	o = o.normalize()
	sizes := []int{200, 300, 400, 500, 600}

	succ := &Table{
		Title:  "Figure 7(a): success rate (%) vs node number, rate=80, alpha=0.3",
		Header: []string{"node number"},
	}
	ovh := &Table{
		Title:  "Figure 7(b): overhead (messages/min) vs node number, rate=80, alpha=0.3",
		Header: []string{"node number"},
	}
	for _, alg := range figure6Algorithms {
		succ.Header = append(succ.Header, alg.String())
	}
	for _, alg := range overheadAlgorithms {
		ovh.Header = append(ovh.Header, alg.String())
	}

	for _, n := range sizes {
		p, err := sparsePlatform(o, n)
		if err != nil {
			return nil, err
		}
		succRow := []string{fmt.Sprintf("%d", n)}
		ovhByAlg := make(map[core.Algorithm]float64, len(figure6Algorithms))
		for _, alg := range figure6Algorithms {
			rc := DefaultRunConfig(80)
			rc.Seed = o.Seed
			rc.Algorithm = alg
			rc.Duration = o.duration(100 * time.Minute)
			res, err := Run(p, rc)
			if err != nil {
				return nil, err
			}
			succRow = append(succRow, fmtPct(res.SuccessRate))
			ovhByAlg[alg] = res.OverheadPerMinute
		}
		succ.AddRow(succRow...)
		ovhRow := []string{fmt.Sprintf("%d", n)}
		for _, alg := range overheadAlgorithms {
			ovhRow = append(ovhRow, fmt.Sprintf("%.0f", ovhByAlg[alg]))
		}
		ovh.AddRow(ovhRow...)
	}
	return []*Table{succ, ovh}, nil
}

// figure8Phases is the dynamic workload of the adaptability experiment:
// 40 reqs/min, spiking to 80 at t=50 min and relaxing to 60 at t=100 min
// over a 150-minute run. Scaling compresses the phase boundaries with
// the duration.
func figure8Phases(o Options) ([]workload.Phase, time.Duration) {
	total := o.duration(150 * time.Minute)
	return []workload.Phase{
		{Until: total / 3, RatePerMinute: 40},
		{Until: 2 * total / 3, RatePerMinute: 80},
		{Until: 1 << 62, RatePerMinute: 60},
	}, total
}

func seriesTable(title string, res *Result, withRatio bool) *Table {
	header := []string{"time (min)", "success rate (%)"}
	if withRatio {
		header = append(header, "probing ratio")
	}
	t := &Table{Title: title, Header: header}
	ratioAt := make(map[time.Duration]float64, len(res.RatioSeries))
	for _, pt := range res.RatioSeries {
		ratioAt[pt.At] = pt.Value
	}
	for _, pt := range res.SuccessSeries {
		row := []string{fmt.Sprintf("%.0f", pt.At.Minutes()), fmtPct(pt.Value)}
		if withRatio {
			row = append(row, fmt.Sprintf("%.2f", ratioAt[pt.At]))
		}
		t.AddRow(row...)
	}
	return t
}

// Figure8a reproduces Figure 8(a): success rate over time under the
// dynamic workload with a fixed probing ratio of 0.3.
func Figure8a(o Options) ([]*Table, error) {
	o = o.normalize()
	p, err := densePlatform(o, 400)
	if err != nil {
		return nil, err
	}
	phases, total := figure8Phases(o)
	rc := DefaultRunConfig(0)
	rc.Seed = o.Seed
	rc.Phases = phases
	rc.Duration = total
	rc.ProbingRatio = 0.3
	rc.MaxProbesPerRequest = probeBudget
	res, err := Run(p, rc)
	if err != nil {
		return nil, err
	}
	return []*Table{seriesTable(
		"Figure 8(a): success rate over time, fixed probing ratio 0.3, rate 40->80->60",
		res, false)}, nil
}

// Figure8b reproduces Figure 8(b): the probing-ratio tuner holding a 90%
// success-rate target under the same dynamic workload.
func Figure8b(o Options) ([]*Table, error) {
	o = o.normalize()
	p, err := densePlatform(o, 400)
	if err != nil {
		return nil, err
	}
	phases, total := figure8Phases(o)
	rc := DefaultRunConfig(0)
	rc.Seed = o.Seed
	rc.Phases = phases
	rc.Duration = total
	rc.ProbingRatio = 0.1
	rc.MaxProbesPerRequest = probeBudget
	tcfg := tuning.DefaultConfig()
	tcfg.ErrorThreshold = 0.05 // damp window-noise flapping
	rc.Tuning = &tcfg
	rc.TraceCap = 100
	res, err := Run(p, rc)
	if err != nil {
		return nil, err
	}
	return []*Table{seriesTable(
		"Figure 8(b): success rate and tuned probing ratio over time, target 90%, rate 40->80->60",
		res, true)}, nil
}

// FigureFunc regenerates one paper figure at the given options.
type FigureFunc func(Options) ([]*Table, error)

// Figures maps figure identifiers to their runners.
func Figures() map[string]FigureFunc {
	return map[string]FigureFunc{
		"5a": Figure5a,
		"5b": Figure5b,
		"6a": func(o Options) ([]*Table, error) { tables, err := Figure6(o); return slice(tables, err, 0) },
		"6b": func(o Options) ([]*Table, error) { tables, err := Figure6(o); return slice(tables, err, 1) },
		"6":  Figure6,
		"7a": func(o Options) ([]*Table, error) { tables, err := Figure7(o); return slice(tables, err, 0) },
		"7b": func(o Options) ([]*Table, error) { tables, err := Figure7(o); return slice(tables, err, 1) },
		"7":  Figure7,
		"8a": Figure8a,
		"8b": Figure8b,
	}
}

// FigureNames returns the sorted identifiers Figures accepts.
func FigureNames() []string {
	m := Figures()
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

func slice(tables []*Table, err error, idx int) ([]*Table, error) {
	if err != nil {
		return nil, err
	}
	if idx < 0 || idx >= len(tables) {
		return nil, fmt.Errorf("experiment: table index %d out of range", idx)
	}
	return []*Table{tables[idx]}, nil
}
