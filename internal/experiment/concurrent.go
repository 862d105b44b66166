package experiment

import (
	"fmt"
	"runtime"
	"sync"
)

// RunConcurrent executes independent run configurations against a shared
// platform with up to workers simulations in flight, returning results
// in input order. Every Run call builds its own engine, RNG, ledger,
// global state, outage schedule and composer over the platform's
// read-only mesh, catalog and library, so concurrent runs cannot observe
// each other; per-run results are bit-identical to a serial Run of the
// same configuration.
//
// Configurations must not share a Tracer: trace clocks are rebound per
// run. workers <= 0 selects GOMAXPROCS. The first error wins; remaining
// runs still drain before it is returned.
func RunConcurrent(p *Platform, rcs []RunConfig, workers int) ([]*Result, error) {
	rows, err := sweep(1, len(rcs), workers, func(_, c int) (*Platform, RunConfig) { return p, rcs[c] })
	if err != nil {
		return nil, err
	}
	return rows[0], nil
}

// sweep runs a grid of rows × cols runs in one pool of up to workers
// simulations and returns the results by row: cell (r, c) runs the
// configuration at(r, c) returns on the platform it names. Every figure
// grid and RunConcurrent go through it.
func sweep(rows, cols, workers int, at func(r, c int) (*Platform, RunConfig)) ([][]*Result, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	results := make([]*Result, rows*cols)
	errs := make([]error, len(results))
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for i := range results {
		p, rc := at(i/cols, i%cols)
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			results[i], errs[i] = Run(p, rc)
			<-sem
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("experiment: concurrent run %d: %w", i, err)
		}
	}
	out := make([][]*Result, rows)
	for r := range out {
		out[r] = results[r*cols : (r+1)*cols]
	}
	return out, nil
}
