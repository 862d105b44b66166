package runtime

import (
	"runtime"
	"sync"
	"time"

	"repro/internal/component"
	"repro/internal/qos"
)

// FindSpec describes one composition request in a FindBatch call.
type FindSpec struct {
	// Tenant and Weight carry the request's tenant identity, as in
	// FindRequest: quota-charged before the probe, typed *QuotaError
	// rejection when over budget.
	Tenant        string
	Weight        float64
	Graph         *component.Graph
	QoSReq        qos.Vector
	ResReq        []qos.Resources
	BandwidthKbps float64
}

// FindResult is one FindBatch outcome, parallel to the input specs.
// Err is nil on success, ErrNoComposition when no qualified composition
// exists, or the underlying probe/commit error.
type FindResult struct {
	Session SessionID
	Err     error
}

// FindBatch composes independent requests concurrently: up to workers
// requests at a time run the same prepare / compose / finish phases as
// FindApp, each on a composer of the cluster's pool.
//
// Request IDs and client nodes are drawn sequentially up front, so a
// batch consumes the cluster's RNG exactly like the same sequence of
// Find calls. The admission outcomes themselves can differ from serial
// execution — concurrent requests genuinely contend for holds, which is
// the behaviour being exercised. workers <= 0 selects GOMAXPROCS.
func (c *Cluster) FindBatch(specs []FindSpec, workers int) ([]FindResult, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(specs) {
		workers = len(specs)
	}
	results := make([]FindResult, len(specs))

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, errShutDown
	}
	reqs := make([]*component.Request, len(specs))
	for i, spec := range specs {
		reqs[i] = &component.Request{
			Graph:        spec.Graph,
			QoSReq:       spec.QoSReq,
			ResReq:       append([]qos.Resources(nil), spec.ResReq...),
			BandwidthReq: spec.BandwidthKbps,
			Duration:     time.Hour,
			Tenant:       spec.Tenant,
			Weight:       spec.Weight,
		}
		c.drawLocked(reqs[i], false)
	}
	c.mu.Unlock()

	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				req := reqs[i]
				demand := quotaDemand(req.Graph, req.ResReq, req.BandwidthReq)
				c.mu.Lock()
				composer, err := c.beginLocked(req.Tenant, demand)
				c.mu.Unlock()
				if err == nil {
					results[i].Session, err = c.composeAndAdmit(composer, req, demand)
				}
				results[i].Err = err
			}
		}()
	}
	for i := range specs {
		work <- i
	}
	close(work)
	wg.Wait()
	return results, nil
}
