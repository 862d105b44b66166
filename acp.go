package acp

import (
	"io"

	"repro/internal/component"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/obs"
	"repro/internal/qos"
	"repro/internal/runtime"
)

// Re-exported identifiers: the public surface mirrors the internal
// packages so downstream users never import repro/internal directly.
type (
	// Cluster is a live in-process distributed stream processing system
	// with the paper's Find / Process / Close session interface.
	Cluster = runtime.Cluster
	// ClusterConfig sizes and tunes a cluster.
	ClusterConfig = runtime.Config
	// SessionID identifies a composed stream processing session.
	SessionID = runtime.SessionID
	// DataUnit is one element of a data stream.
	DataUnit = runtime.DataUnit
	// ProcessorFunc is the per-unit work of a stream processing function.
	ProcessorFunc = runtime.ProcessorFunc

	// FunctionID identifies an atomic stream processing function.
	FunctionID = component.FunctionID
	// Graph is a function graph: the template of an application.
	Graph = component.Graph
	// QoS is an additive, minimum-optimal QoS vector.
	QoS = qos.Vector
	// Resources is an end-system resource vector.
	Resources = qos.Resources

	// Algorithm selects a composition algorithm.
	Algorithm = core.Algorithm

	// FigureOptions scales a paper-figure reproduction.
	FigureOptions = experiment.Options
	// ResultTable is a printable experiment result.
	ResultTable = experiment.Table

	// Tracer records probe-lifecycle span events; wire one into a
	// ClusterConfig to observe composition decisions.
	Tracer = obs.Tracer
	// TraceEvent is one recorded span event.
	TraceEvent = obs.Event
	// MetricsRegistry is a concurrency-safe instrument registry
	// (counters, gauges, histograms).
	MetricsRegistry = obs.Registry
)

// Composition algorithms (§4.1 of the paper).
const (
	ACP     = core.AlgACP
	Optimal = core.AlgOptimal
	SP      = core.AlgSP
	RP      = core.AlgRP
	Random  = core.AlgRandom
	Static  = core.AlgStatic
)

// Sentinel errors of the session interface.
var (
	// ErrNoComposition is Find's "null sessionId": no qualified
	// composition exists for the request.
	ErrNoComposition = runtime.ErrNoComposition
	// ErrUnknownSession marks session IDs never issued or already closed.
	ErrUnknownSession = runtime.ErrUnknownSession
)

// NewCluster builds a live in-process cluster: it generates the network
// substrate, deploys components, and starts the ACP composition engine.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	return runtime.NewCluster(cfg)
}

// DefaultClusterConfig returns a laptop-sized cluster configuration.
func DefaultClusterConfig() ClusterConfig {
	return runtime.DefaultConfig()
}

// NewPathGraph builds a pipeline function graph.
func NewPathGraph(functions []FunctionID) *Graph {
	return component.NewPathGraph(functions)
}

// NewBranchGraph builds the paper's two-branch DAG shape: a shared
// source, two parallel branches, and a shared sink (Figure 1(c)).
func NewBranchGraph(source FunctionID, branch1, branch2 []FunctionID, sink FunctionID) (*Graph, error) {
	return component.NewBranchGraph(source, branch1, branch2, sink)
}

// NewJSONLTracer returns a tracer streaming span events to w as JSON
// lines, plus the flush to call when done.
func NewJSONLTracer(w io.Writer) (*Tracer, func() error) {
	sink := obs.NewJSONLSink(w)
	return obs.New(sink), sink.Flush
}

// NewMemoryTracer returns a tracer collecting span events in memory and
// the accessor for what it collected.
func NewMemoryTracer() (*Tracer, func() []TraceEvent) {
	sink := &obs.MemorySink{}
	return obs.New(sink), sink.Events
}

// NewMetricsRegistry returns an empty instrument registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// ReadTraceEvents parses a JSONL span-event stream (as written by
// NewJSONLTracer or acpsim -trace-out).
func ReadTraceEvents(r io.Reader) ([]TraceEvent, error) { return obs.ReadEvents(r) }

// LossProb converts an additive loss cost back to a probability.
func LossProb(cost float64) float64 { return qos.LossProb(cost) }

// LossCost converts a loss probability into its additive cost, the form
// QoS vectors carry (footnote 3 of the paper).
func LossCost(p float64) float64 { return qos.LossCost(p) }

// ReproduceFigure regenerates one figure of the paper's evaluation
// ("5a", "5b", "6", "6a", "6b", "7", "7a", "7b", "8a", "8b") at the
// given options, returning its result tables.
func ReproduceFigure(name string, opts FigureOptions) ([]*ResultTable, error) {
	fn, ok := experiment.Figures()[name]
	if !ok {
		return nil, &UnknownFigureError{Name: name}
	}
	return fn(opts)
}

// FigureNames lists the figure identifiers ReproduceFigure accepts.
func FigureNames() []string { return experiment.FigureNames() }

// UnknownFigureError reports a figure identifier ReproduceFigure does
// not recognise.
type UnknownFigureError struct {
	Name string
}

func (e *UnknownFigureError) Error() string {
	return "acp: unknown figure " + e.Name
}
