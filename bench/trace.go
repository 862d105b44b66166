package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/server"
)

// op names a call the driver makes into the system; a span is recorded
// around each.
type op uint8

const (
	opCycle op = iota // one closed-loop cycle: the root of its spans
	opCompose
	opCommit
	opHeartbeat
	opRecompose
	opTeardown
	opFindApp
	opDescribe
	opClose
	opStep
	opRelease
)

var opNames = [...]string{"cycle", "compose", "commit", "heartbeat", "recompose", "teardown",
	"findapp", "describe", "close", "step", "release"}

// wireOps are the session-protocol ops, in the order the server's
// per-op counters are read.
var wireOps = [...]op{opCompose, opCommit, opHeartbeat, opRecompose, opTeardown}

// String names the op; the wire ops carry the protocol's own names.
func (o op) String() string { return opNames[o] }

// span is one timed call. Spans of one request share req; parent is
// the id of the span that caused this one, 0 for a cycle.
type span struct {
	id, parent int32
	name       op
	req        int32
	start, end int64 // ns since the trace epoch
}

// spanCap bounds one lane's spans (32 MB); spans past it are counted,
// not kept.
const spanCap = 1 << 20

// traceEpoch anchors span times.
var traceEpoch = time.Now()

// spanLog is one lane's in-memory span buffer. A nil log records
// nothing, which is how untraced runs pay only a nil check.
type spanLog struct {
	lane    int
	spans   []span
	dropped int
}

func newSpanLog(lane int) *spanLog {
	return &spanLog{lane: lane, spans: make([]span, 0, spanCap)}
}

// open reserves a slot for a span that will have children, so that
// they can name it as parent before it ends; parent 0 opens a cycle.
// It returns 0 when not recording.
func (l *spanLog) open(parent int32) int32 {
	if l == nil {
		return 0
	}
	if len(l.spans) == cap(l.spans) {
		l.dropped++
		return 0
	}
	l.spans = append(l.spans, span{parent: parent})
	return int32(len(l.spans))
}

// close fills the slot open reserved.
func (l *spanLog) close(id int32, name op, req int32, start, end time.Time) {
	if l == nil || id == 0 {
		return
	}
	s := &l.spans[id-1]
	s.id, s.name, s.req = id, name, req
	s.start, s.end = int64(start.Sub(traceEpoch)), int64(end.Sub(traceEpoch))
}

// add records a finished child span.
func (l *spanLog) add(parent int32, name op, req int32, start, end time.Time) {
	if l == nil || parent == 0 {
		return
	}
	if len(l.spans) == cap(l.spans) {
		l.dropped++
		return
	}
	l.spans = append(l.spans, span{id: int32(len(l.spans)) + 1, parent: parent, name: name, req: req,
		start: int64(start.Sub(traceEpoch)), end: int64(end.Sub(traceEpoch))})
}

// selfTimes returns, per span, its duration minus the part of that
// interval its child spans cover.
func selfTimes(spans []span) []int64 {
	children := make(map[int32][]span)
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[s.id]
		sort.Slice(kids, func(a, b int) bool { return kids[a].start < kids[b].start })
		covered, edge := int64(0), s.start
		for _, k := range kids {
			lo, hi := max(k.start, edge), min(k.end, s.end)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.end - s.start - covered
	}
	return self
}

// opStats is the count and mean duration of one op's spans.
type opStats struct {
	n      int
	meanUs float64
	selfUs float64
}

// spanStats aggregates the lanes' spans by op.
func spanStats(logs []*spanLog) map[op]opStats {
	type acc struct{ n, dur, self int64 }
	sums := make(map[op]*acc)
	for _, l := range logs {
		self := selfTimes(l.spans)
		for i, s := range l.spans {
			a := sums[s.name]
			if a == nil {
				a = &acc{}
				sums[s.name] = a
			}
			a.n++
			a.dur += s.end - s.start
			a.self += self[i]
		}
	}
	out := make(map[op]opStats, len(sums))
	for name, a := range sums {
		out[name] = opStats{n: int(a.n), meanUs: float64(a.dur) / float64(a.n) / 1e3, selfUs: float64(a.self) / float64(a.n) / 1e3}
	}
	return out
}

// writeSpans writes every lane's spans as JSON lines. Ids are unique
// across lanes: lane*spanCap*2 + index.
func writeSpans(path string, logs []*spanLog) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	for _, l := range logs {
		base := int64(l.lane) * spanCap * 2
		for _, s := range l.spans {
			parent := int64(0)
			if s.parent != 0 {
				parent = base + int64(s.parent)
			}
			fmt.Fprintf(w, `{"id":%d,"parent":%d,"name":%q,"req":%d,"lane":%d,"start":%d,"end":%d}`+"\n",
				base+int64(s.id), parent, s.name.String(), s.req, l.lane, s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// frame is one request/response pair as it crossed the wire, kept for
// the codec replay.
type frame struct {
	req  server.Request
	resp server.Response
}

// frameCap is how many frames a lane keeps: the ops of about two
// thousand sessions.
const frameCap = 8192

func (r *recorder) frame(req server.Request, resp server.Response) {
	if r.frames == nil || len(*r.frames) >= frameCap {
		return
	}
	*r.frames = append(*r.frames, frame{req, resp})
}

// codecReplay pushes the recorded frames through encoding/json the way
// the two ends of a connection do — the client encodes a request the
// server decodes, the server encodes a response the client decodes —
// and returns the time and bytes per session (per teardown frame).
func codecReplay(frames []frame) (usPerSession, bytesPerSession float64, err error) {
	sessions, bytes := 0, 0
	start := time.Now()
	for i := range frames {
		f := &frames[i]
		if f.req.Op == server.OpTeardown {
			sessions++
		}
		line, err := json.Marshal(&f.req)
		if err != nil {
			return 0, 0, err
		}
		var req server.Request
		if err := json.Unmarshal(line, &req); err != nil {
			return 0, 0, err
		}
		bytes += len(line) + 1
		if line, err = json.Marshal(&f.resp); err != nil {
			return 0, 0, err
		}
		var resp server.Response
		if err := json.Unmarshal(line, &resp); err != nil {
			return 0, 0, err
		}
		bytes += len(line) + 1
	}
	elapsed := time.Since(start)
	return ratio(float64(elapsed)/1e3, float64(sessions)), ratio(float64(bytes), float64(sessions)), nil
}
