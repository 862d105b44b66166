package experiment

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/state"
)

// AblationStaleness compares the paper's coarse threshold-triggered
// global state against always-fresh and frozen extremes (§3.2).
func AblationStaleness(o Options) ([]*Table, error) {
	o = o.normalize()
	p, err := sparsePlatform(o, 400)
	if err != nil {
		return nil, err
	}
	policies := []StatePolicy{StateCoarse, StateFresh, StateFrozen}
	return successFigure("Ablation: global-state freshness (ACP success %, N=400, alpha=0.3)",
		[]string{"request rate", "coarse (paper)", "always fresh", "frozen"}, labels(rateAxis, fmtRate),
		func(r, c int) (*Platform, RunConfig) {
			rc := o.baseRun(rateAxis[r])
			rc.State = policies[c]
			return p, rc
		})
}

// AblationSelection compares the per-hop candidate ranking policies of
// §3.5.
func AblationSelection(o Options) ([]*Table, error) {
	o = o.normalize()
	p, err := sparsePlatform(o, 400)
	if err != nil {
		return nil, err
	}
	policies := []core.SelectionPolicy{
		core.SelectRiskThenCongestion, core.SelectRiskOnly, core.SelectCongestionOnly, core.SelectRandom,
	}
	return successFigure("Ablation: per-hop candidate selection policy (ACP success %, N=400, alpha=0.3)",
		[]string{"request rate", "risk+congestion", "risk only", "congestion only", "random"}, labels(rateAxis, fmtRate),
		func(r, c int) (*Platform, RunConfig) {
			rc := o.baseRun(rateAxis[r])
			rc.Selection = policies[c]
			return p, rc
		})
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
	results, err := sweep(len(thresholds), 1, 0, func(r, _ int) (*Platform, RunConfig) {
		rc := o.baseRun(80)
		rc.GlobalStateConfig = state.DefaultGlobalConfig()
		rc.GlobalStateConfig.UpdateThreshold = thresholds[r]
		return p, rc
	})
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Ablation: global-state update threshold (ACP, N=400, alpha=0.3, rate=80)",
		Header: []string{"threshold", "success %", "state updates/min", "total overhead/min"},
	}
	minutes := o.baseRun(80).Duration.Minutes()
	for r, row := range results {
		res := row[0]
		t.AddRow(
			fmtRatio(thresholds[r]),
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
