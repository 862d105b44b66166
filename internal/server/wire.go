// Package server serves the ACP session interface (§2.2's Find /
// Process / Close, plus the adaptation plane's Recompose) over a
// long-lived TCP connection, so clients in other processes — the
// acpload generator, an operator's netcat — drive a live
// runtime.Cluster through the same admission, quota, and teardown
// paths the in-process harnesses exercise.
//
// The protocol is JSON lines: one request object per line, one
// response object per line, answered in order per connection.
// Concurrency comes from connections, not pipelining — each
// connection's operations are serialised, which keeps the per-session
// state machine trivial and the wire format debuggable by hand:
//
//	{"op":"hello","seq":1,"proto":1,"tenant":"t0"}
//	{"op":"compose","seq":2,"functions":[3,1,4],"cpu":4,"memoryMB":40,
//	 "delay":1e5,"lossProb":0.9,"bandwidthKbps":30}
//	{"op":"commit","seq":3,"session":1}
//	{"op":"heartbeat","seq":4,"session":1}
//	{"op":"recompose","seq":5,"session":1}
//	{"op":"teardown","seq":6,"session":1}
//
// Failure is typed, not stringly: every error response carries a
// machine-readable code so a load generator can distinguish "the
// cluster is full" (capacity) from "your tenant is over budget"
// (quota, with the tripped dimension) from "you sent nonsense"
// (protocol) without parsing prose.
package server

import (
	"repro/internal/runtime"
)

// ProtoVersion is the wire protocol version hello must announce.
const ProtoVersion = 1

// maxFunctions bounds a compose template, hence a reply's components.
const maxFunctions = 64

// maxFrameBytes bounds one frame line each way: the server scans
// requests and Dial's client scans responses up to it.
const maxFrameBytes = 1 << 20

// Ops. hello must come first on a connection; compose returns a
// pending session that must be committed before its commit deadline;
// committed sessions live until teardown, disconnect, or heartbeat
// expiry.
const (
	OpHello     = "hello"
	OpCompose   = "compose"
	OpCommit    = "commit"
	OpHeartbeat = "heartbeat"
	OpRecompose = "recompose"
	OpTeardown  = "teardown"
)

// opKind is an op resolved once per frame: the index of its counter
// and phase histogram and the case of the handler switch. Everything a
// client can send that is not one of the six ops is opUnknown, so the
// op label set is closed whatever arrives.
type opKind int

const (
	opHello opKind = iota
	opCompose
	opCommit
	opHeartbeat
	opRecompose
	opTeardown
	opUnknown
	numOpKinds
)

// opNames are the kinds' wire names and `server.ops` label values.
var opNames = [numOpKinds]string{OpHello, OpCompose, OpCommit, OpHeartbeat, OpRecompose, OpTeardown, "unknown"}

func opKindOf(op string) opKind {
	switch op {
	case OpHello:
		return opHello
	case OpCompose:
		return opCompose
	case OpCommit:
		return opCommit
	case OpHeartbeat:
		return opHeartbeat
	case OpRecompose:
		return opRecompose
	case OpTeardown:
		return opTeardown
	}
	return opUnknown
}

// Error codes. Distinct failure classes get distinct codes; clients
// branch on Code, never on Error text.
const (
	// CodeProtocol: malformed frame, unknown op, op out of order
	// (compose before hello), or invalid field values. The server
	// closes the connection after answering — a client that cannot
	// frame requests cannot be trusted to keep session state.
	CodeProtocol = "protocol"
	// CodeCapacity: the composition engine found no qualified
	// composition (runtime.ErrNoComposition) — the cluster has no room
	// or the QoS requirement is unmeetable right now.
	CodeCapacity = "capacity"
	// CodeQuota: the tenant's admission quota rejected the request
	// before the composer ran (runtime.QuotaError). Dimension carries
	// the tripped axis ("sessions", "cpu", "memory", "bandwidth").
	CodeQuota = "quota"
	// CodeBusy: server-side admission control refused the compose —
	// the live-session cap or the in-flight compose limit is reached.
	// Back off and retry; nothing was charged.
	CodeBusy = "busy"
	// CodeUnknownSession: the session ID was never issued, was torn
	// down, or was reaped.
	CodeUnknownSession = "unknown-session"
	// CodeNoBetter: recompose re-probed but found no composition
	// meeting the session's admission-time phi bound
	// (runtime.ErrNoBetterComposition); the session is untouched.
	CodeNoBetter = "no-better"
	// CodeInternal: unexpected server-side failure.
	CodeInternal = "internal"
)

// codes lists the error codes, for the decoder to intern.
var codes = [...]string{CodeProtocol, CodeCapacity, CodeQuota, CodeBusy, CodeUnknownSession, CodeNoBetter, CodeInternal}

// Request is one client frame.
type Request struct {
	Op  string `json:"op"`
	Seq int64  `json:"seq,omitempty"`

	// hello
	Proto  int    `json:"proto,omitempty"`
	Tenant string `json:"tenant,omitempty"`

	// compose: a path-graph application template. Functions lists the
	// required function per position; CPU and MemoryMB are the uniform
	// per-position resource requirement; Delay and LossProb are the
	// end-to-end QoS requirement (LossProb is converted to the paper's
	// additive loss cost server-side); BandwidthKbps is the
	// per-virtual-link stream bandwidth; Weight the phi weight under
	// weighted fairness (0 = default 1).
	Functions     []int   `json:"functions,omitempty"`
	CPU           float64 `json:"cpu,omitempty"`
	MemoryMB      float64 `json:"memoryMB,omitempty"`
	Delay         float64 `json:"delay,omitempty"`
	LossProb      float64 `json:"lossProb,omitempty"`
	BandwidthKbps float64 `json:"bandwidthKbps,omitempty"`
	Weight        float64 `json:"weight,omitempty"`

	// commit / heartbeat / recompose / teardown
	Session int64 `json:"session,omitempty"`
}

// PlacedComponent mirrors runtime.PlacedComponent on the wire.
type PlacedComponent struct {
	Position  int `json:"position"`
	Function  int `json:"function"`
	Component int `json:"component"`
	Node      int `json:"node"`
}

// Response is one server frame. OK distinguishes success; on failure
// Code is always set and Error carries the human-readable cause.
type Response struct {
	OK   bool   `json:"ok"`
	Op   string `json:"op"`
	Seq  int64  `json:"seq,omitempty"`
	Code string `json:"code,omitempty"`
	// Dimension refines CodeQuota with the tripped quota axis.
	Dimension string `json:"dimension,omitempty"`
	Error     string `json:"error,omitempty"`

	// hello
	Proto int `json:"proto,omitempty"`

	// compose / recompose
	Session    int64             `json:"session,omitempty"`
	Phi        float64           `json:"phi,omitempty"`
	Components []PlacedComponent `json:"components,omitempty"`
	// CommitDeadlineMs (compose only) is how long the client has to
	// commit before the pending session is reaped.
	CommitDeadlineMs int64 `json:"commitDeadlineMs,omitempty"`
}

// appendWire appends a runtime composition's placements, rendered for
// the wire, to dst.
func appendWire(dst []PlacedComponent, comps []runtime.PlacedComponent) []PlacedComponent {
	for _, pc := range comps {
		dst = append(dst, PlacedComponent{
			Position:  pc.Position,
			Function:  int(pc.Function),
			Component: int(pc.Component),
			Node:      pc.Node,
		})
	}
	return dst
}
