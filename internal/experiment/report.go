package experiment

import (
	_ "embed"
	"fmt"
	"io"
	"strings"
	"text/template"
)

// reportTemplate is the paper report: prose, parameters and one
// {{tables "<runner>"}} per figure and ablation, never a measured value.
//
//go:embed report.md.tmpl
var reportTemplate string

// reportRunners names, in order, the runners the report places: the six
// figure runners (6 and 7 cover their (a) and (b) tables) and the three
// ablations. Runner resolves each name.
var reportRunners = []string{
	"5a", "5b", "6", "7", "8a", "8b",
	"ablation-selection", "ablation-staleness", "ablation-threshold",
}

// Runner returns the runner a name selects: a Figures key, or
// "ablation-" followed by an Ablations key.
func Runner(name string) (FigureFunc, bool) {
	if abl, ok := strings.CutPrefix(name, "ablation-"); ok {
		fn, ok := Ablations()[abl]
		return fn, ok
	}
	fn, ok := Figures()[name]
	return fn, ok
}

// Report runs every runner of reportRunners at the options and writes
// the paper report: the setup, each figure's expected shape, tables and
// verdict, the ablations and the known deviations.
func Report(w io.Writer, opts Options) error {
	opts = opts.normalize()
	tables := make(map[string][]*Table, len(reportRunners))
	for _, name := range reportRunners {
		fn, _ := Runner(name)
		t, err := fn(opts)
		if err != nil {
			return fmt.Errorf("figure %s: %w", name, err)
		}
		tables[name] = t
	}
	return renderReport(w, reportTemplate, opts, tables)
}

// renderReport executes a report template over computed tables. The
// template function {{tables "<runner>"}} places one runner's tables in
// a fenced block, exactly as Table.Fprint prints them, a blank line
// between two tables. Nothing is written when the template fails, names
// a runner it has no tables for, places one twice or never places one.
func renderReport(w io.Writer, text string, opts Options, tables map[string][]*Table) error {
	placed := make(map[string]bool, len(tables))
	place := func(name string) (string, error) {
		ts, ok := tables[name]
		switch {
		case !ok:
			return "", fmt.Errorf("no runner %q", name)
		case placed[name]:
			return "", fmt.Errorf("runner %q placed twice", name)
		}
		placed[name] = true
		printed := make([]string, len(ts))
		for i, t := range ts {
			printed[i] = t.String()
		}
		return "```\n" + strings.Join(printed, "\n") + "```", nil
	}
	tmpl, err := template.New("report").Funcs(template.FuncMap{"tables": place}).Parse(text)
	if err != nil {
		return err
	}
	var out strings.Builder
	if err := tmpl.Execute(&out, opts); err != nil {
		return err
	}
	if len(placed) < len(tables) {
		return fmt.Errorf("experiment: the report places %d of its %d runners", len(placed), len(tables))
	}
	_, err = io.WriteString(w, out.String())
	return err
}
