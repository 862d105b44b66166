package main

import (
	"fmt"
	"io"
)

// repeat makes o.repeat full runs of each workload, each with another
// seed as the gate does, and prints per metric the median, the
// quartiles, their distance and the range as shares of the median
// beside the bound. It fails when the medians of the two halves of the
// runs disagree by more than a bound: the benchmark would then reject
// a change that changed nothing.
func repeat(specs []*spec, o options, stdout, stderr io.Writer) error {
	if o.repeat < 4 {
		return fmt.Errorf("-repeat %d: quartiles of two halves need at least 4 runs", o.repeat)
	}
	disagree := 0
	for _, sp := range specs {
		values := make(map[string][]float64)
		for i := 0; i < o.repeat; i++ {
			ro := o
			ro.seed = o.seed + int64(i)
			res, err := measure(sp, ro, stderr)
			if err != nil {
				return err
			}
			for name, m := range res.Metrics {
				values[name] = append(values[name], m.Value)
			}
		}
		fmt.Fprintf(stdout, "%s: %d runs, seeds %d..%d\n", sp.name, o.repeat, o.seed, o.seed+int64(o.repeat)-1)
		fmt.Fprintf(stdout, "  %-20s %12s %12s %12s %8s %8s %6s %8s\n", "metric", "median", "q1", "q3", "iqr/med", "rng/med", "bound", "halves")
		for _, em := range endToEndMetrics {
			v := values[em.name]
			med := median(v)
			q1, q3 := quartiles(v)
			lo, hi := v[0], v[0]
			for _, x := range v {
				lo, hi = min(lo, x), max(hi, x)
			}
			first, second := median(v[:len(v)/2]), median(v[len(v)/2:])
			worse := ratio(second-first, first)
			if em.better == "higher" {
				worse = -worse
			}
			verdict := ""
			if worse > em.bound || ratio(q3-q1, med) > em.bound {
				verdict = "  <-- over the bound"
				disagree++
			}
			fmt.Fprintf(stdout, "  %-20s %12.6g %12.6g %12.6g %8.4f %8.4f %6.2f %+8.4f%s\n",
				em.name, med, q1, q3, ratio(q3-q1, med), ratio(hi-lo, med), em.bound, worse, verdict)
		}
	}
	if disagree > 0 {
		return fmt.Errorf("%d metrics spread or drifted past their bound between runs of the same code", disagree)
	}
	return nil
}
