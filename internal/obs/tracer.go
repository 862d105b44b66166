package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// EventType names one probe-lifecycle transition.
type EventType string

// The probe-lifecycle event schema. A probe span opens with
// EventProbeSpawned and closes with exactly one of EventProbeReturned,
// EventProbeForwarded, EventProbeDropped, or EventCandidatePruned
// carrying the same probe ID; every other event is request-scoped.
const (
	// EventRequestReceived marks the deputy accepting a composition
	// request (§3.3 step 1).
	EventRequestReceived EventType = "request.received"
	// EventProbeSpawned marks one probe message sent to a candidate's
	// host; it opens the probe's span.
	EventProbeSpawned EventType = "probe.spawned"
	// EventProbeForwarded closes a probe span whose per-hop checks passed
	// and whose children were fanned out to the next graph position.
	EventProbeForwarded EventType = "probe.forwarded"
	// EventProbeReturned closes the span of a probe that completed the
	// graph and travelled back to the deputy (§3.3 step 3).
	EventProbeReturned EventType = "probe.returned"
	// EventProbeDropped closes the span of a probe lost in transit
	// (mailbox overflow, shutdown) rather than processed.
	EventProbeDropped EventType = "probe.dropped"
	// EventCandidatePruned records a candidate rejected either before a
	// probe was sent (probe ID 0: coarse-state prefilter or ranking cut)
	// or at the candidate's own node (probe ID set, closing that span).
	EventCandidatePruned EventType = "candidate.pruned"
	// EventHoldAcquired records a transient resource allocation placed at
	// a node (§3.3 step 2).
	EventHoldAcquired EventType = "hold.acquired"
	// EventHoldReleased records transient allocations released (losing
	// probes cancelled, or a failed request cleaned up). Node -1 means
	// every node holding for the request.
	EventHoldReleased EventType = "hold.released"
	// EventDecided marks the deputy closing its collection window and
	// picking a winner (reason "selected") or giving up ("no-composition").
	EventDecided EventType = "request.decided"
	// EventCommitted marks the winning composition's confirmation
	// completing (§3.3 step 4).
	EventCommitted EventType = "composition.committed"
	// EventRolledBack marks a commit phase undone (nack, timeout, abort).
	EventRolledBack EventType = "composition.rolledback"
	// EventSessionReleased marks a committed session torn down.
	EventSessionReleased EventType = "session.released"
	// EventSessionMigrated marks a make-before-break re-composition
	// flip: a live session's committed allocation was atomically swapped
	// to the composition reserved by its re-probe. Req carries the new
	// request ID (the session's owner after the flip); Detail names the
	// request ID it migrated from.
	EventSessionMigrated EventType = "session.migrated"
	// EventMsgDropped records a non-probe protocol message lost by fault
	// injection or a node outage (lost probes close their span with
	// EventProbeDropped instead).
	EventMsgDropped EventType = "msg.dropped"
	// EventMsgDelayed records an injected delivery delay.
	EventMsgDelayed EventType = "msg.delayed"
	// EventMsgDuplicated records an injected duplicate delivery.
	EventMsgDuplicated EventType = "msg.duplicated"
	// EventNodeCrashed marks a node entering a scheduled outage; its
	// volatile state (holds, in-flight requests) is lost.
	EventNodeCrashed EventType = "node.crashed"
	// EventNodeRestarted marks a node coming back from an outage.
	EventNodeRestarted EventType = "node.restarted"
	// EventHoldSwept records the periodic sweep expiring transient
	// allocations orphaned past their TTL (holds whose probes were lost).
	EventHoldSwept EventType = "hold.swept"
	// EventComposeRetried marks the deputy-side retry of a compose
	// attempt that failed under transient loss.
	EventComposeRetried EventType = "request.retried"
	// EventQoSDrift marks the adaptation controller seeing a session's
	// observed phi cross its admission-time bound (reason drift-exceeded)
	// or come back under it (drift-recovered). Session, Observed, and
	// Required carry the comparison.
	EventQoSDrift EventType = "qos.drift"
	// EventTraceDropped is synthesized into a subscription's stream in
	// place of events its bounded ring overwrote; Count says how many
	// were lost. It never reaches the tracer's base sink.
	EventTraceDropped EventType = "trace.dropped"
)

// Reason classifies why a candidate was pruned, a probe dropped, or a
// composition rolled back.
type Reason string

// The prune-reason taxonomy.
const (
	// ReasonQoS: accumulated QoS exceeded the requirement (Eq. 6).
	ReasonQoS Reason = "qos"
	// ReasonSecurity: the candidate's security level is below the
	// request's minimum (§6).
	ReasonSecurity Reason = "security"
	// ReasonResources: node resources cannot cover the demand (Eq. 7).
	ReasonResources Reason = "resources"
	// ReasonBandwidth: a predecessor virtual link cannot carry the
	// required bandwidth (Eq. 8).
	ReasonBandwidth Reason = "bandwidth"
	// ReasonRiskRank: cut by the §3.5 ranking on the risk function D
	// (Eq. 9).
	ReasonRiskRank Reason = "risk-rank"
	// ReasonCongestionRank: survived the risk band but cut on the
	// congestion function W (Eq. 10).
	ReasonCongestionRank Reason = "congestion-rank"
	// ReasonRandomRank: cut by RP's uniform random per-hop selection.
	ReasonRandomRank Reason = "random-rank"
	// ReasonHoldNode: the transient node allocation could not be placed.
	ReasonHoldNode Reason = "hold-node"
	// ReasonHoldLink: a transient link allocation could not be placed.
	ReasonHoldLink Reason = "hold-link"
	// ReasonBudget: the per-request probe budget was exhausted.
	ReasonBudget Reason = "budget"
	// ReasonBound: the probe's lower bound of phi (Eq. 1) already exceeds
	// the best composition its walk has found.
	ReasonBound Reason = "incumbent-bound"
	// ReasonMailbox: the destination node's mailbox was full.
	ReasonMailbox Reason = "mailbox-full"
	// ReasonShutdown: the cluster stopped with the probe still in flight.
	ReasonShutdown Reason = "shutdown"
	// ReasonNoComposition: no qualified composition survived to the
	// deputy's decision.
	ReasonNoComposition Reason = "no-composition"
	// ReasonCommitNack: a node refused to confirm its allocation.
	ReasonCommitNack Reason = "commit-nack"
	// ReasonCommitTimeout: commit acknowledgements were overdue.
	ReasonCommitTimeout Reason = "commit-timeout"
	// ReasonAbort: the caller abandoned a successful outcome.
	ReasonAbort Reason = "abort"
	// ReasonFaultInjected: the message was lost by fault injection.
	ReasonFaultInjected Reason = "fault-injected"
	// ReasonNodeDown: the destination (or processing) node was inside a
	// scheduled outage.
	ReasonNodeDown Reason = "node-down"
	// ReasonNodeCrash: a node outage wiped the in-flight request state.
	ReasonNodeCrash Reason = "node-crash"
	// ReasonDriftExceeded: a session's observed gauge crossed its Eq. 3
	// requirement (qos.drift events).
	ReasonDriftExceeded Reason = "drift-exceeded"
	// ReasonDriftRecovered: a previously drifting session came back
	// under its requirement (qos.drift events).
	ReasonDriftRecovered Reason = "drift-recovered"
)

// Event is one structured probe-lifecycle record.
type Event struct {
	// AtMicros is the emission time in microseconds on the tracer's
	// clock (virtual time under the simulator, wall time in dist).
	AtMicros int64 `json:"at"`
	// Type is the lifecycle transition.
	Type EventType `json:"type"`
	// Req is the request ID every event is scoped to.
	Req int64 `json:"req"`
	// Probe is the probe span ID; 0 for request-scoped events and for
	// prunes that happened before a probe was sent.
	Probe int64 `json:"probe,omitempty"`
	// Parent is the span ID of the probe whose hop produced this event,
	// for events that do not themselves close that span: a ranking or
	// random-policy cut in per-hop candidate selection carries the
	// selecting probe's span here (0 at the walk root). Unlike Probe,
	// a non-zero Parent never closes a span.
	Parent int64 `json:"parent,omitempty"`
	// Pos is the function-graph position being probed; -1 when not
	// applicable.
	Pos int `json:"pos"`
	// Node is the overlay node the event happened at; -1 when not
	// applicable (or "all nodes" for hold.released).
	Node int `json:"node"`
	// Reason qualifies prunes, drops, decisions, and rollbacks.
	Reason Reason `json:"reason,omitempty"`
	// Children is the fan-out size on probe.forwarded events.
	Children int `json:"children,omitempty"`
	// LatencyMs is the probe's accumulated travel time in milliseconds
	// on spawn/return events.
	LatencyMs float64 `json:"latencyMs,omitempty"`
	// Count is a small event-specific tally: holds expired on
	// hold.swept, the attempt number on request.retried.
	Count int `json:"count,omitempty"`
	// Detail carries free-form context: the superseded request on
	// session.migrated events.
	Detail string `json:"detail,omitempty"`
	// Session names the committed session a qos.drift event is about.
	Session string `json:"session,omitempty"`
	// Observed is the session's observed gauge value on qos.drift events.
	Observed float64 `json:"observed,omitempty"`
	// Required is the session's Eq. 3 requirement on qos.drift events.
	Required float64 `json:"required,omitempty"`
}

// OpensSpan reports whether the event opens a probe span.
func (e Event) OpensSpan() bool { return e.Type == EventProbeSpawned }

// ClosesSpan reports whether the event closes a probe span.
func (e Event) ClosesSpan() bool {
	switch e.Type {
	case EventProbeReturned, EventProbeForwarded, EventProbeDropped:
		return true
	case EventCandidatePruned:
		return e.Probe != 0
	}
	return false
}

// LeakedSpans returns the IDs of probe spans that were opened but never
// closed, in first-opened order — the invariant checked by the dist
// integration tests ("no probe is silently lost").
func LeakedSpans(events []Event) []int64 {
	closed := make(map[int64]bool)
	for _, e := range events {
		if e.ClosesSpan() {
			closed[e.Probe] = true
		}
	}
	var leaked []int64
	for _, e := range events {
		if e.OpensSpan() && !closed[e.Probe] {
			leaked = append(leaked, e.Probe)
		}
	}
	return leaked
}

// Sink consumes emitted events. Implementations must be safe for
// concurrent Emit calls.
type Sink interface {
	Emit(Event)
}

// Tracer emits probe-lifecycle events to a sink. The zero of usefulness
// is the nil *Tracer: every method is a nil-safe no-op, so call sites
// need no conditionals and the disabled hot path costs one pointer check.
type Tracer struct {
	sink     Sink
	start    time.Time
	now      func() time.Duration
	probeSeq atomic.Int64

	// subs is the copy-on-write live-subscription list (see Subscribe):
	// emit loads it with one atomic read, mutation happens under subsMu.
	subs   atomic.Pointer[[]*Subscription]
	subsMu sync.Mutex
}

// New wires a tracer to a sink, stamping events with wall-clock time
// since creation. Use SetClock to substitute virtual time.
func New(sink Sink) *Tracer {
	if sink == nil {
		return nil
	}
	return &Tracer{sink: sink, start: time.Now()} //acp:nondeterminism-ok wall-clock base is the documented default; deterministic harnesses substitute virtual time via SetClock
}

// NewLive returns a tracer with no base sink, for consumers that attach
// through Subscribe (the /trace endpoint, a test's event feed). Until the first subscriber arrives the tracer reports
// disabled and emission costs one atomic load.
func NewLive() *Tracer {
	return &Tracer{start: time.Now()} //acp:nondeterminism-ok wall-clock base is the documented default; deterministic harnesses substitute virtual time via SetClock
}

// SetClock replaces the tracer's timestamp source (e.g. the simulator's
// virtual clock). Call before emitting from multiple goroutines.
func (t *Tracer) SetClock(now func() time.Duration) {
	if t != nil {
		t.now = now
	}
}

// Enabled reports whether anything consumes emitted events — a base
// sink or at least one live subscription. Call sites use it to skip
// building emission arguments that would need extra work.
func (t *Tracer) Enabled() bool {
	if t == nil {
		return false
	}
	if t.sink != nil {
		return true
	}
	list := t.subs.Load()
	return list != nil && len(*list) > 0
}

// emit stamps e and hands it to the sink and every live subscription.
// Callers check Enabled first, so a disabled tracer builds no Event.
func (t *Tracer) emit(e Event) {
	if t.now != nil {
		e.AtMicros = t.now().Microseconds()
	} else {
		e.AtMicros = time.Since(t.start).Microseconds() //acp:nondeterminism-ok fallback for live (non-replayed) tracers only; replayed runs install t.now via SetClock
	}
	if t.sink != nil {
		t.sink.Emit(e)
	}
	if list := t.subs.Load(); list != nil {
		for _, s := range *list {
			s.push(e)
		}
	}
}

// QoSDrift records the adaptation controller's verdict for one session:
// its observed phi crossed (drift-exceeded) or re-satisfied
// (drift-recovered) its admission-time bound.
func (t *Tracer) QoSDrift(session string, observed, required float64, reason Reason) {
	if t.Enabled() {
		t.emit(Event{Type: EventQoSDrift, Pos: -1, Node: -1, Session: session, Observed: observed, Required: required, Reason: reason})
	}
}

// NextProbeID allocates a tracer-unique probe span ID; 0 (the "no span"
// ID) when the tracer is nil.
func (t *Tracer) NextProbeID() int64 {
	if t == nil {
		return 0
	}
	return t.probeSeq.Add(1)
}

// RequestReceived records the deputy accepting a request.
func (t *Tracer) RequestReceived(req int64, node int) {
	if t.Enabled() {
		t.emit(Event{Type: EventRequestReceived, Req: req, Pos: -1, Node: node})
	}
}

// ProbeSpawned opens a probe span: one probe message sent toward the
// candidate for graph position pos hosted at node.
func (t *Tracer) ProbeSpawned(req, probe int64, pos, node int, latencyMs float64) {
	if t.Enabled() {
		t.emit(Event{Type: EventProbeSpawned, Req: req, Probe: probe, Pos: pos, Node: node, LatencyMs: latencyMs})
	}
}

// ProbeForwarded closes a probe span that passed its per-hop checks and
// fanned out children child probes for the next position.
func (t *Tracer) ProbeForwarded(req, probe int64, pos, node, children int) {
	if t.Enabled() {
		t.emit(Event{Type: EventProbeForwarded, Req: req, Probe: probe, Pos: pos, Node: node, Children: children})
	}
}

// ProbeReturned closes the span of a probe whose complete composition
// reached the deputy, with its full round-trip travel time.
func (t *Tracer) ProbeReturned(req, probe int64, node int, latencyMs float64) {
	if t.Enabled() {
		t.emit(Event{Type: EventProbeReturned, Req: req, Probe: probe, Pos: -1, Node: node, LatencyMs: latencyMs})
	}
}

// ProbeDropped closes the span of a probe lost in transit.
func (t *Tracer) ProbeDropped(req, probe int64, pos, node int, reason Reason) {
	if t.Enabled() {
		t.emit(Event{Type: EventProbeDropped, Req: req, Probe: probe, Pos: pos, Node: node, Reason: reason})
	}
}

// CandidatePruned records a rejected candidate. probe is 0 when the
// prune happened before any probe was sent (coarse prefilter or ranking
// cut); otherwise it closes that probe's span. parent attributes the
// prune to the span of the probe performing the hop — the selecting
// parent for pre-send cuts — so summaries can tell a root-level cut from
// one deep in the walk; 0 when the hop has no live span.
func (t *Tracer) CandidatePruned(req, probe, parent int64, pos, node int, reason Reason) {
	if t.Enabled() {
		t.emit(Event{Type: EventCandidatePruned, Req: req, Probe: probe, Parent: parent, Pos: pos, Node: node, Reason: reason})
	}
}

// HoldAcquired records a transient node allocation placed for (req, pos).
func (t *Tracer) HoldAcquired(req, probe int64, pos, node int) {
	if t.Enabled() {
		t.emit(Event{Type: EventHoldAcquired, Req: req, Probe: probe, Pos: pos, Node: node})
	}
}

// HoldReleased records the request's transient allocations released at
// node, or everywhere when node is -1.
func (t *Tracer) HoldReleased(req int64, node int) {
	if t.Enabled() {
		t.emit(Event{Type: EventHoldReleased, Req: req, Pos: -1, Node: node})
	}
}

// Decided records the deputy's decision for the request: reason
// ReasonNoComposition on failure, empty on success.
func (t *Tracer) Decided(req int64, node int, reason Reason) {
	if t.Enabled() {
		t.emit(Event{Type: EventDecided, Req: req, Pos: -1, Node: node, Reason: reason})
	}
}

// Committed records the composition's confirmation completing.
func (t *Tracer) Committed(req int64, node int) {
	if t.Enabled() {
		t.emit(Event{Type: EventCommitted, Req: req, Pos: -1, Node: node})
	}
}

// RolledBack records the commit phase (or a held outcome) undone.
func (t *Tracer) RolledBack(req int64, node int, reason Reason) {
	if t.Enabled() {
		t.emit(Event{Type: EventRolledBack, Req: req, Pos: -1, Node: node, Reason: reason})
	}
}

// SessionMigrated records a make-before-break re-composition flip from
// the session owned by oldReq to the composition probed under newReq.
func (t *Tracer) SessionMigrated(oldReq, newReq int64, node int) {
	if t.Enabled() {
		t.emit(Event{Type: EventSessionMigrated, Req: newReq, Pos: -1, Node: node, Detail: fmt.Sprintf("from-request=%d", oldReq)})
	}
}

// SessionReleased records a committed session torn down.
func (t *Tracer) SessionReleased(req int64) {
	if t.Enabled() {
		t.emit(Event{Type: EventSessionReleased, Req: req, Pos: -1, Node: -1})
	}
}

// MsgDropped records a non-probe protocol message lost in transit to
// node (fault injection or outage). Lost probes are recorded with
// ProbeDropped instead so their span closes.
func (t *Tracer) MsgDropped(req int64, node int, reason Reason) {
	if t.Enabled() {
		t.emit(Event{Type: EventMsgDropped, Req: req, Pos: -1, Node: node, Reason: reason})
	}
}

// MsgDelayed records an injected delivery delay toward node.
func (t *Tracer) MsgDelayed(req int64, node int, delayMs float64) {
	if t.Enabled() {
		t.emit(Event{Type: EventMsgDelayed, Req: req, Pos: -1, Node: node, Reason: ReasonFaultInjected, LatencyMs: delayMs})
	}
}

// MsgDuplicated records an injected duplicate delivery toward node.
func (t *Tracer) MsgDuplicated(req int64, node int) {
	if t.Enabled() {
		t.emit(Event{Type: EventMsgDuplicated, Req: req, Pos: -1, Node: node, Reason: ReasonFaultInjected})
	}
}

// NodeCrashed marks node entering an outage, losing its volatile state.
func (t *Tracer) NodeCrashed(node int) {
	if t.Enabled() {
		t.emit(Event{Type: EventNodeCrashed, Pos: -1, Node: node, Reason: ReasonNodeCrash})
	}
}

// NodeRestarted marks node coming back from an outage.
func (t *Tracer) NodeRestarted(node int) {
	if t.Enabled() {
		t.emit(Event{Type: EventNodeRestarted, Pos: -1, Node: node})
	}
}

// HoldSwept records the periodic sweep at node expiring count orphaned
// transient allocations past their TTL.
func (t *Tracer) HoldSwept(node, count int) {
	if t.Enabled() {
		t.emit(Event{Type: EventHoldSwept, Pos: -1, Node: node, Count: count})
	}
}

// ComposeRetried records the deputy retrying a failed compose attempt;
// attempt is 1-based and req is the ID of the attempt that failed.
func (t *Tracer) ComposeRetried(req int64, node, attempt int) {
	if t.Enabled() {
		t.emit(Event{Type: EventComposeRetried, Req: req, Pos: -1, Node: node, Count: attempt})
	}
}

// MemorySink collects events in memory for tests and in-process
// analysis.
type MemorySink struct {
	mu     sync.Mutex
	events []Event
}

// Emit appends one event.
func (s *MemorySink) Emit(e Event) {
	s.mu.Lock()
	s.events = append(s.events, e)
	s.mu.Unlock()
}

// Events returns a copy of everything collected so far.
func (s *MemorySink) Events() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Event(nil), s.events...)
}

// Len returns the number of collected events.
func (s *MemorySink) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.events)
}

// JSONLSink streams events as JSON lines. Emissions are serialized by a
// mutex; the first write error is latched and surfaced by Flush.
type JSONLSink struct {
	mu    sync.Mutex
	bw    *bufio.Writer
	enc   *json.Encoder
	count int
	err   error
}

// NewJSONLSink wraps w for event streaming; call Flush when done.
func NewJSONLSink(w io.Writer) *JSONLSink {
	bw := bufio.NewWriter(w)
	return &JSONLSink{bw: bw, enc: json.NewEncoder(bw)}
}

// Emit writes one event as a JSON line.
func (s *JSONLSink) Emit(e Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	if s.err = s.enc.Encode(e); s.err == nil {
		s.count++
	}
}

// Count returns how many events were successfully encoded.
func (s *JSONLSink) Count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count
}

// Flush drains buffered output and reports the first error encountered.
func (s *JSONLSink) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	return s.bw.Flush()
}

// ReadEvents parses a JSONL event stream back into its event sequence.
func ReadEvents(r io.Reader) ([]Event, error) {
	var out []Event
	dec := json.NewDecoder(r)
	for {
		var e Event
		if err := dec.Decode(&e); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("obs: event %d: %w", len(out), err)
		}
		out = append(out, e)
	}
	return out, nil
}
