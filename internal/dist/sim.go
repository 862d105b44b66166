package dist

import (
	"maps"

	"repro/internal/component"
	"repro/internal/core"
	"repro/internal/overlay"
	"repro/internal/qos"
)

// This file is the deterministic-simulation surface of the cluster,
// used by internal/harness. A simulated cluster is built with
// NewUnstarted — same substrate, same per-node protocol state, but no
// node goroutines — and driven one message at a time by a
// single-threaded scheduler that owns the (virtual) clock. Because
// every dispatch, timer callback, and fault decision then happens on
// the driving goroutine in an order fixed by the harness seed, a run
// is bit-reproducible.
//
// The accessors here read node state without locks; they are only
// meaningful on an unstarted cluster, between steps, on the driving
// goroutine.

// NewUnstarted builds a cluster without starting the node goroutines.
// Nodes then process messages only when the caller steps them
// (StepNode/SweepNode); Compose, Idle, and Shutdown — which hand work
// to node goroutines and wait — must not be used. The mailbox bound is
// raised so that deputy timer events (which block on a full mailbox)
// cannot deadlock the single-threaded driver; a mailbox grows with what
// it holds, so the bound is a number, not memory.
func NewUnstarted(cfg Config) (*Cluster, error) {
	cfg.mailboxSize = steppedMailbox
	return build(cfg)
}

// SimHandle tracks one asynchronously issued compose request on an
// unstarted cluster.
type SimHandle struct {
	ReqID int64
	reply chan composeReply
}

// Poll reports the request's outcome without blocking. done is false
// while the protocol is still in flight. The deputy resolves the
// request synchronously inside a StepNode call, so after the step that
// decides it, Poll observes the result deterministically.
func (h *SimHandle) Poll() (comp *Composition, err error, done bool) {
	select {
	case out := <-h.reply:
		return out.comp, out.err, true
	default:
		return nil, nil, false
	}
}

// ComposeAsync injects one compose request into the client node's
// mailbox and returns a handle to poll for the outcome. Unlike
// Compose it never blocks and never retries — the harness owns
// scheduling, so protocol retries would hide steps from its log.
func (c *Cluster) ComposeAsync(req *component.Request) (*SimHandle, error) {
	reqID, reply, err := c.submit(req, c.cfg.ProbingRatio)
	if err != nil {
		return nil, err
	}
	return &SimHandle{ReqID: reqID, reply: reply}, nil
}

// MailboxDepth reports how many messages wait in a node's mailbox.
func (c *Cluster) MailboxDepth(id int) int { return int(c.nodes[id].mailbox.depth.Load()) }

// StepNode pops one message from the node's mailbox and dispatches it
// on the calling goroutine, applying any due crash/restart transition
// first (in a started cluster the node goroutine does both). It
// returns a short description of the message for the harness step log,
// and false when the mailbox was empty.
func (c *Cluster) StepNode(id int) (string, bool) {
	var m message
	if !c.nodes[id].step(&m) {
		return "", false
	}
	return c.steps.line(&m), true
}

// SweepNode runs one hold-expiry sweep pass on the node (the periodic
// tick a started node's goroutine drives itself). The crash schedule
// is applied first, as on the goroutine's tick path.
func (c *Cluster) SweepNode(id int) {
	n := c.nodes[id]
	n.checkCrash()
	n.sweep()
}

// NodeAccounting is a consistent snapshot of one node's resource
// ledger, taken between simulation steps for invariant auditing.
type NodeAccounting struct {
	Capacity  qos.Resources
	Committed qos.Resources
	// HeldTotal is the node's running total of transient holds;
	// HoldSum re-derives it from the individual holds so the auditor
	// can cross-check the incremental bookkeeping.
	HeldTotal qos.Resources
	HoldSum   qos.Resources
	Holds     int
	// Commits maps session owner -> committed amount.
	Commits map[int64]qos.Resources
	// Tombstones counts live release-before-commit tombstones.
	Tombstones int
	// Pending counts requests this node deputies that are unresolved.
	Pending int
	Down    bool
}

// NodeAccountingAt snapshots node id's ledger. Unstarted clusters only.
func (c *Cluster) NodeAccountingAt(id int) NodeAccounting {
	n := c.nodes[id]
	acc := NodeAccounting{
		Capacity:   n.capacity,
		Committed:  n.committed,
		HeldTotal:  n.heldTotal,
		Holds:      len(n.holds),
		Commits:    maps.Clone(n.commits),
		Tombstones: len(n.tombs),
		Pending:    len(n.pending),
		Down:       n.down,
	}
	for i := range n.holds {
		acc.HoldSum = acc.HoldSum.Add(n.holds[i].amount)
	}
	return acc
}

// LinkAvailability snapshots every overlay link's available and total
// bandwidth, indexed by link ID.
func (c *Cluster) LinkAvailability() (avail, capacity []float64) {
	avail = make([]float64, c.links.NumLinks())
	capacity = make([]float64, c.links.NumLinks())
	for i := range avail {
		avail[i] = c.links.LinkAvailable(i)
		capacity[i] = c.links.LinkCapacity(i)
	}
	return avail, capacity
}

// Mesh exposes the overlay substrate so a model-based oracle can run
// the centralized composer over the identical network.
func (c *Cluster) Mesh() *overlay.Mesh { return c.mesh }

// Catalog exposes the component deployment for the same purpose.
func (c *Cluster) Catalog() *component.Catalog { return c.catalog }

// SessionDemands reports the per-node resource and per-link bandwidth
// demand of a composition for the given request — what commit placed
// and release must return.
func (c *Cluster) SessionDemands(req *component.Request, comp *Composition) ([]core.NodeDemand, []core.LinkDemand) {
	// A committed composition's edges are all routable.
	routes, _ := c.routesOf(nil, req, comp.Components)
	return core.NewKernel(c.catalog).Stack(req, comp.Components, routes)
}

// Owner reports the internal request identity a composition was
// committed under (the key its holds, commits, and tombstones use).
func (comp *Composition) Owner() int64 { return comp.owner }
