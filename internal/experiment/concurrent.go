package experiment

import (
	"fmt"
	"runtime"
	"sync"
)

// sweep runs a grid of rows × cols runs in one pool of up to workers
// simulations and returns the results by row: cell (r, c) runs the
// configuration at(r, c) returns on the platform it names. Every figure
// grid goes through it. Every Run builds its own engine, RNG, ledger,
// global state, outage schedule and composer over the platform's
// read-only mesh, catalog and library, so concurrent runs cannot observe
// each other: each result is bit-identical to a serial Run of the same
// configuration. Configurations must not share a Tracer: trace clocks
// are rebound per run. workers <= 0 selects GOMAXPROCS. The first error
// wins; remaining runs still drain before it is returned.
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
