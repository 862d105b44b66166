package runtime

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/internal/component"
	"repro/internal/core"
	"repro/internal/discovery"
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
// probe walks run in parallel against the shared ledger and global
// state, which are switched to their opt-in locked mode on the first
// call. Each worker drives its own composer (composers reuse per-walk
// scratch state and are not safe for concurrent use); commits and
// session registration serialize on the cluster lock, exactly as serial
// Find calls would.
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
		return nil, errors.New("runtime: cluster is shut down")
	}
	reqs := make([]*component.Request, len(specs))
	for i, spec := range specs {
		c.nextReq++
		reqs[i] = &component.Request{
			ID:           c.nextReq,
			Graph:        spec.Graph,
			QoSReq:       spec.QoSReq,
			ResReq:       append([]qos.Resources(nil), spec.ResReq...),
			BandwidthReq: spec.BandwidthKbps,
			Client:       c.rng.Intn(c.mesh.NumNodes()),
			Duration:     time.Hour,
			Tenant:       spec.Tenant,
			Weight:       spec.Weight,
		}
	}
	seeds := make([]int64, workers)
	for i := range seeds {
		seeds[i] = c.rng.Int63()
	}
	ccfg := c.composer.Config()
	c.mu.Unlock()

	// Locked mode is idempotent and one-way; serial Finds keep working,
	// they just pay an uncontended lock.
	c.ledger.EnableLocking()
	c.global.EnableLocking()

	composers := make([]*core.Composer, workers)
	for w := range composers {
		env := core.Env{
			Mesh:     c.mesh,
			Catalog:  c.catalog,
			Registry: discovery.NewRegistry(c.catalog, c.mesh.NumNodes(), c.counters),
			Ledger:   c.ledger,
			Global:   c.global,
			Counters: c.counters,
			Now:      c.now,
			Rand:     rand.New(rand.NewSource(seeds[w])),
			Tracer:   c.cfg.Tracer,
		}
		composer, err := core.NewComposer(env, ccfg)
		if err != nil {
			return nil, err
		}
		composers[w] = composer
	}

	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(composer *core.Composer) {
			defer wg.Done()
			for i := range work {
				results[i] = c.findOne(composer, reqs[i])
			}
		}(composers[w])
	}
	for i := range specs {
		work <- i
	}
	close(work)
	wg.Wait()
	return results, nil
}

// findOne runs one batched request on a worker composer: charge the
// tenant's quota, probe without the cluster lock, then commit and
// register under it. Charging before the (unlocked) probe is what keeps
// concurrent workers from oversubscribing a tenant: the quota table is
// its own critical section, and a worker whose probe fails refunds its
// reservation.
func (c *Cluster) findOne(composer *core.Composer, req *component.Request) FindResult {
	demand := quotaDemand(req.Graph, req.ResReq, req.BandwidthReq)
	if qerr := c.quota.charge(req.Tenant, demand); qerr != nil {
		c.quotaRejections.With(tenantLabel(req.Tenant)).Inc()
		return FindResult{Err: qerr}
	}
	findStart := c.now()
	c.finds.Inc()
	outcome, err := composer.Probe(req)
	c.observeFindLatency(findStart)
	if err != nil {
		c.quota.refund(req.Tenant, demand)
		c.findFailures.Inc()
		return FindResult{Err: err}
	}
	if !outcome.Success() {
		c.quota.refund(req.Tenant, demand)
		c.findFailures.Inc()
		c.mu.Lock()
		c.observeFind(false)
		c.mu.Unlock()
		return FindResult{Err: ErrNoComposition}
	}
	if err := composer.Commit(outcome); err != nil {
		composer.Abort(req.ID)
		c.quota.refund(req.Tenant, demand)
		c.findFailures.Inc()
		c.mu.Lock()
		c.observeFind(false)
		c.mu.Unlock()
		return FindResult{Err: fmt.Errorf("runtime: commit: %w", err)}
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	c.observeFind(true)
	return FindResult{Session: c.admit(req, outcome, demand)}
}
