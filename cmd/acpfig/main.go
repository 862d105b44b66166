// Command acpfig regenerates the paper's evaluation figures as tables.
//
// Usage:
//
//	acpfig -fig 6a                # one figure at full paper scale
//	acpfig -fig all -scale 0.2    # everything, at 20% simulated duration
//	acpfig -fig 8b -seed 7        # different randomness
//	acpfig -fig ablations -scale 0.1   # the ablation sweeps
//
// Figure identifiers: 5a 5b 6 6a 6b 7 7a 7b 8a 8b, plus
// ablation-{staleness,selection,threshold}.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/experiment"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "acpfig:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("acpfig", flag.ContinueOnError)
	var (
		fig     = fs.String("fig", "all", "figure to regenerate ("+strings.Join(experiment.FigureNames(), " ")+" or all)")
		scale   = fs.Float64("scale", 1.0, "simulated-duration scale factor (1.0 = paper scale)")
		seed    = fs.Int64("seed", 1, "random seed")
		ipNodes = fs.Int("ipnodes", 3200, "IP-layer topology size")
		timing  = fs.Bool("timing", false, "print wall-clock time per figure")
		asCSV   = fs.Bool("csv", false, "emit CSV instead of aligned tables")
		seeds   = fs.Int("seeds", 1, "average the figure over this many consecutive seeds")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	opts := experiment.Options{Seed: *seed, DurationScale: *scale, IPNodes: *ipNodes}
	figures := experiment.Figures()
	for name, fn := range experiment.Ablations() {
		figures["ablation-"+name] = fn
	}

	var names []string
	switch *fig {
	case "all":
		// The combined 6 and 7 runners cover 6a/6b and 7a/7b.
		names = []string{"5a", "5b", "6", "7", "8a", "8b"}
	case "ablations":
		for name := range experiment.Ablations() {
			names = append(names, "ablation-"+name)
		}
	default:
		if _, ok := figures[*fig]; !ok {
			return fmt.Errorf("unknown figure %q (have: %s, all, ablations, ablation-...)",
				*fig, strings.Join(experiment.FigureNames(), " "))
		}
		names = []string{*fig}
	}
	sort.Strings(names)

	for _, name := range names {
		start := time.Now()
		tables, err := experiment.ReproduceAveraged(figures[name], opts, *seeds)
		if err != nil {
			return fmt.Errorf("figure %s: %w", name, err)
		}
		for _, t := range tables {
			render := t.Fprint
			if *asCSV {
				render = t.FprintCSV
			}
			if err := render(os.Stdout); err != nil {
				return err
			}
			fmt.Println()
		}
		if *timing {
			fmt.Printf("(figure %s: %v)\n\n", name, time.Since(start).Round(time.Millisecond))
		}
	}
	return nil
}
