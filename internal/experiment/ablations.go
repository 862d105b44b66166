package experiment

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/state"
)

// ablationRates is the request-rate x-axis shared by the ablation sweeps.
var ablationRates = []float64{20, 40, 60, 80, 100}

// ablationSweep runs ACP across the rate axis once per variant and
// tabulates the success rate.
func ablationSweep(o Options, p *Platform, title string, variants []struct {
	name   string
	mutate func(*RunConfig)
}) (*Table, error) {
	t := &Table{Title: title, Header: []string{"request rate"}}
	for _, v := range variants {
		t.Header = append(t.Header, v.name)
	}
	for _, rate := range ablationRates {
		row := []string{fmtRate(rate)}
		for _, v := range variants {
			rc := DefaultRunConfig(rate)
			rc.Seed = o.Seed
			rc.Duration = o.duration(100 * time.Minute)
			v.mutate(&rc)
			res, err := Run(p, rc)
			if err != nil {
				return nil, err
			}
			row = append(row, fmtPct(res.SuccessRate))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// AblationStaleness compares the paper's coarse threshold-triggered
// global state against always-fresh and frozen extremes (§3.2).
func AblationStaleness(o Options) ([]*Table, error) {
	o = o.normalize()
	p, err := sparsePlatform(o, 400)
	if err != nil {
		return nil, err
	}
	t, err := ablationSweep(o, p,
		"Ablation: global-state freshness (ACP success %, N=400, alpha=0.3)",
		[]struct {
			name   string
			mutate func(*RunConfig)
		}{
			{name: "coarse (paper)", mutate: func(rc *RunConfig) { rc.State = StateCoarse }},
			{name: "always fresh", mutate: func(rc *RunConfig) { rc.State = StateFresh }},
			{name: "frozen", mutate: func(rc *RunConfig) { rc.State = StateFrozen }},
		})
	if err != nil {
		return nil, err
	}
	return []*Table{t}, nil
}

// AblationSelection compares the per-hop candidate ranking policies of
// §3.5.
func AblationSelection(o Options) ([]*Table, error) {
	o = o.normalize()
	p, err := sparsePlatform(o, 400)
	if err != nil {
		return nil, err
	}
	policies := []struct {
		name string
		sel  core.SelectionPolicy
	}{
		{name: "risk+congestion", sel: core.SelectRiskThenCongestion},
		{name: "risk only", sel: core.SelectRiskOnly},
		{name: "congestion only", sel: core.SelectCongestionOnly},
		{name: "random", sel: core.SelectRandom},
	}
	variants := make([]struct {
		name   string
		mutate func(*RunConfig)
	}, len(policies))
	for i, pol := range policies {
		sel := pol.sel
		variants[i].name = pol.name
		variants[i].mutate = func(rc *RunConfig) { rc.Selection = sel }
	}
	t, err := ablationSweep(o, p,
		"Ablation: per-hop candidate selection policy (ACP success %, N=400, alpha=0.3)", variants)
	if err != nil {
		return nil, err
	}
	return []*Table{t}, nil
}

// AblationUpdateThreshold sweeps the global-state update threshold,
// trading maintenance messages against guidance quality (§3.2's knob).
func AblationUpdateThreshold(o Options) ([]*Table, error) {
	o = o.normalize()
	p, err := sparsePlatform(o, 400)
	if err != nil {
		return nil, err
	}
	thresholds := []float64{0.02, 0.05, 0.10, 0.25, 0.50}
	t := &Table{
		Title:  "Ablation: global-state update threshold (ACP, N=400, alpha=0.3, rate=80)",
		Header: []string{"threshold", "success %", "state updates/min", "total overhead/min"},
	}
	for _, th := range thresholds {
		rc := DefaultRunConfig(80)
		rc.Seed = o.Seed
		rc.Duration = o.duration(100 * time.Minute)
		gcfg := state.DefaultGlobalConfig()
		gcfg.UpdateThreshold = th
		rc.GlobalStateConfig = gcfg
		res, err := Run(p, rc)
		if err != nil {
			return nil, err
		}
		minutes := rc.Duration.Minutes()
		t.AddRow(
			fmt.Sprintf("%.2f", th),
			fmtPct(res.SuccessRate),
			fmt.Sprintf("%.0f", float64(res.Messages.StateUpdates)/minutes),
			fmt.Sprintf("%.0f", res.OverheadPerMinute),
		)
	}
	return []*Table{t}, nil
}

// Ablations maps ablation identifiers to runners, the companion
// registry to Figures.
func Ablations() map[string]FigureFunc {
	return map[string]FigureFunc{
		"staleness": AblationStaleness,
		"selection": AblationSelection,
		"threshold": AblationUpdateThreshold,
	}
}
