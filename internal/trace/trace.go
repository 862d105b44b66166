// Package trace records and replays composition request workloads.
//
// The paper's tuner relies on "trace replay of actual workloads in the
// last sampling period" (§3.4); this package extends the idea to whole
// experiments: a run can record every arrival as a JSON line, and a
// later run can replay the trace bit-for-bit — across processes and
// machines — instead of drawing a synthetic workload. Traces make
// simulation results portable evidence.
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"repro/internal/component"
	"repro/internal/qos"
)

// Record is the serializable form of one composition request and its
// arrival time.
type Record struct {
	ID            int64     `json:"id"`
	ArrivalMillis int64     `json:"arrivalMillis"`
	Functions     []int     `json:"functions"`
	Edges         [][2]int  `json:"edges,omitempty"`
	DelayReqMs    float64   `json:"delayReqMillis"`
	LossReq       float64   `json:"lossReq"`
	CPUReq        []float64 `json:"cpuReq"`
	MemoryReq     []float64 `json:"memoryReq"`
	BandwidthKbps float64   `json:"bandwidthKbps"`
	Client        int       `json:"client"`
	DurationMs    int64     `json:"durationMillis"`
	MinSecurity   int       `json:"minSecurity,omitempty"`
}

// FromRequest converts a request arriving at the given virtual time into
// its serializable record.
func FromRequest(req *component.Request, arrival time.Duration) Record {
	rec := Record{
		ID:            req.ID,
		ArrivalMillis: arrival.Milliseconds(),
		Functions:     make([]int, len(req.Graph.Functions)),
		DelayReqMs:    req.QoSReq.Delay,
		LossReq:       qos.LossProb(req.QoSReq.LossCost),
		CPUReq:        make([]float64, len(req.ResReq)),
		MemoryReq:     make([]float64, len(req.ResReq)),
		BandwidthKbps: req.BandwidthReq,
		Client:        req.Client,
		DurationMs:    req.Duration.Milliseconds(),
		MinSecurity:   req.MinSecurity,
	}
	for i, f := range req.Graph.Functions {
		rec.Functions[i] = int(f)
	}
	for _, e := range req.Graph.Edges {
		rec.Edges = append(rec.Edges, [2]int{e.From, e.To})
	}
	for i, r := range req.ResReq {
		rec.CPUReq[i] = r.CPU
		rec.MemoryReq[i] = r.Memory
	}
	return rec
}

// Request reconstructs the composition request; Arrival returns its
// virtual arrival time.
func (r Record) Request() (*component.Request, error) {
	if len(r.CPUReq) != len(r.Functions) || len(r.MemoryReq) != len(r.Functions) {
		return nil, fmt.Errorf("trace: record %d has %d functions but %d/%d resource entries",
			r.ID, len(r.Functions), len(r.CPUReq), len(r.MemoryReq))
	}
	graph := &component.Graph{Functions: make([]component.FunctionID, len(r.Functions))}
	for i, f := range r.Functions {
		graph.Functions[i] = component.FunctionID(f)
	}
	for _, e := range r.Edges {
		graph.Edges = append(graph.Edges, component.Edge{From: e[0], To: e[1]})
	}
	req := &component.Request{
		ID:    r.ID,
		Graph: graph,
		QoSReq: qos.Vector{
			Delay:    r.DelayReqMs,
			LossCost: qos.LossCost(r.LossReq),
		},
		ResReq:       make([]qos.Resources, len(r.Functions)),
		BandwidthReq: r.BandwidthKbps,
		Client:       r.Client,
		Duration:     time.Duration(r.DurationMs) * time.Millisecond,
		MinSecurity:  r.MinSecurity,
	}
	for i := range req.ResReq {
		req.ResReq[i] = qos.Resources{CPU: r.CPUReq[i], Memory: r.MemoryReq[i]}
	}
	if err := req.Validate(); err != nil {
		return nil, fmt.Errorf("trace: record %d: %w", r.ID, err)
	}
	return req, nil
}

// Arrival returns the record's virtual arrival time.
func (r Record) Arrival() time.Duration {
	return time.Duration(r.ArrivalMillis) * time.Millisecond
}

// Writer streams records as JSON lines.
type Writer struct {
	w   *bufio.Writer
	enc *json.Encoder
}

// NewWriter wraps w for record streaming; call Flush when done.
func NewWriter(w io.Writer) *Writer {
	bw := bufio.NewWriter(w)
	return &Writer{w: bw, enc: json.NewEncoder(bw)}
}

// Write appends one record.
func (t *Writer) Write(rec Record) error {
	return t.enc.Encode(rec)
}

// Flush drains buffered output.
func (t *Writer) Flush() error {
	return t.w.Flush()
}

// Read parses a JSON-lines trace. Arrival times must be non-negative and
// non-decreasing.
func Read(r io.Reader) ([]Record, error) {
	var out []Record
	dec := json.NewDecoder(r)
	prev := int64(0)
	for {
		var rec Record
		if err := dec.Decode(&rec); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("trace: record %d: %w", len(out), err)
		}
		if rec.ArrivalMillis < 0 {
			return nil, fmt.Errorf("trace: record %d arrives at %dms, before the run starts",
				len(out), rec.ArrivalMillis)
		}
		if rec.ArrivalMillis < prev {
			return nil, fmt.Errorf("trace: record %d arrives at %dms before previous %dms",
				len(out), rec.ArrivalMillis, prev)
		}
		prev = rec.ArrivalMillis
		out = append(out, rec)
	}
	return out, nil
}
