// Command acptrace summarises a probe-lifecycle trace recorded with
// acpsim -trace-out (or any obs.JSONLSink): per-request span accounting,
// the prune-reason taxonomy, and span-leak detection.
//
// Usage:
//
//	acpsim -trace-out probes.jsonl && acptrace probes.jsonl
//	acptrace -requests probes.jsonl
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "acptrace:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("acptrace", flag.ContinueOnError)
	perReq := fs.Bool("requests", false, "print the per-request span table")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var in io.Reader = os.Stdin
	name := "stdin"
	if fs.NArg() > 1 {
		return fmt.Errorf("expected at most one trace file, got %d", fs.NArg())
	}
	if fs.NArg() == 1 {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
		name = fs.Arg(0)
	}
	events, err := obs.ReadEvents(in)
	if err != nil {
		return err
	}
	if len(events) == 0 {
		return fmt.Errorf("%s: empty trace", name)
	}

	s := summarise(events)
	fmt.Fprintf(w, "trace            %s: %d events, %d requests\n", name, len(events), len(s.requests))
	fmt.Fprintf(w, "spans            %d spawned, %d returned, %d forwarded, %d dropped, %d pruned in flight\n",
		s.spawned, s.returned, s.forwarded, s.dropped, s.prunedInFlight)
	fmt.Fprintf(w, "before send      %d candidates cut, never sent (%d attributed to a parent probe)\n",
		s.prunedPreSend, s.prunedWithParent)
	fmt.Fprintf(w, "decisions        %d committed, %d rolled back\n", s.committed, s.rolledBack)
	if len(s.pruneReasons) > 0 {
		fmt.Fprintln(w, "prune reasons:")
		fmt.Fprintf(w, "  %-16s %11s %9s\n", "", "before send", "in flight")
		for _, reason := range sortedReasonKeys(s.pruneReasons) {
			n := s.pruneReasons[reason]
			fmt.Fprintf(w, "  %-16s %11d %9d\n", reason, n[preSend], n[inFlight])
		}
	}
	if s.drifts > 0 || s.recoveries > 0 {
		fmt.Fprintf(w, "qos drift        %d exceeded, %d recovered\n", s.drifts, s.recoveries)
	}
	if s.lostEvents > 0 {
		fmt.Fprintf(w, "TRACE GAPS       %d events lost to subscriber ring overflow\n", s.lostEvents)
	}
	if leaked := obs.LeakedSpans(events); len(leaked) > 0 {
		fmt.Fprintf(w, "LEAKED SPANS     %d probes never closed: %v\n", len(leaked), leaked)
	} else {
		fmt.Fprintln(w, "span check       every spawned probe span closed")
	}

	printDurations(w, events)

	if *perReq {
		fmt.Fprintln(w, "\nper-request spans (request, spawned, returned, pruned):")
		for _, id := range sortedRequestIDs(s.requests) {
			r := s.requests[id]
			fmt.Fprintf(w, "  %6d  %4d  %4d  %4d\n", id, r.spawned, r.returned, r.pruned)
		}
	}
	return nil
}

type requestSummary struct {
	spawned  int
	returned int
	pruned   int
}

type summary struct {
	spawned, returned, forwarded, dropped int
	prunedInFlight                        int
	// prunedPreSend counts candidates cut before a probe was ever sent to
	// them (probe id 0) — by per-hop selection, the probe budget or the
	// sender's incumbent bound; prunedWithParent is the subset attributed
	// to a live parent probe's span via Event.Parent rather than to the
	// walk root.
	prunedPreSend         int
	prunedWithParent      int
	committed, rolledBack int
	drifts, recoveries    int
	lostEvents            int
	// pruneReasons counts each reason before send and in flight (pruned
	// or dropped after the probe was sent).
	pruneReasons map[obs.Reason][2]int
	requests     map[int64]*requestSummary
}

// The two columns of summary.pruneReasons.
const (
	preSend = iota
	inFlight
)

func summarise(events []obs.Event) summary {
	s := summary{
		pruneReasons: make(map[obs.Reason][2]int),
		requests:     make(map[int64]*requestSummary),
	}
	req := func(id int64) *requestSummary {
		r, ok := s.requests[id]
		if !ok {
			r = &requestSummary{}
			s.requests[id] = r
		}
		return r
	}
	count := func(reason obs.Reason, column int) {
		n := s.pruneReasons[reason]
		n[column]++
		s.pruneReasons[reason] = n
	}
	for _, e := range events {
		switch e.Type {
		case obs.EventRequestReceived:
			req(e.Req)
		case obs.EventProbeSpawned:
			s.spawned++
			req(e.Req).spawned++
		case obs.EventProbeReturned:
			s.returned++
			req(e.Req).returned++
		case obs.EventProbeForwarded:
			s.forwarded++
		case obs.EventProbeDropped:
			s.dropped++
			count(e.Reason, inFlight)
		case obs.EventCandidatePruned:
			req(e.Req).pruned++
			if e.Probe != 0 {
				s.prunedInFlight++
				count(e.Reason, inFlight)
			} else {
				count(e.Reason, preSend)
				s.prunedPreSend++
				if e.Parent != 0 {
					s.prunedWithParent++
				}
			}
		case obs.EventCommitted:
			s.committed++
		case obs.EventRolledBack:
			s.rolledBack++
		case obs.EventQoSDrift:
			if e.Reason == obs.ReasonDriftExceeded {
				s.drifts++
			} else {
				s.recoveries++
			}
		case obs.EventTraceDropped:
			s.lostEvents += e.Count
		}
	}
	return s
}

// printDurations reports per-span-kind duration quantiles. Three kinds
// of span live in a trace: probe spans (spawned -> returned; forwarded,
// pruned, and dropped probes end without a walk RTT), request spans
// (received -> decided, the collection window), and hold spans
// (acquired -> released, the transient-allocation lifetime).
// Probe durations prefer the closing event's recorded latencyMs (the
// modeled RTT — the simulator composes a request at one simulated
// instant, so its timestamp deltas are zero); request and hold spans
// use event timestamp deltas, which are wall time for dist traces.
func printDurations(w io.Writer, events []obs.Event) {
	probes := obs.NewQHistogram()
	requests := obs.NewQHistogram()
	holds := obs.NewQHistogram()

	probeOpen := make(map[int64]int64)
	reqOpen := make(map[int64]int64)
	reqClosed := make(map[int64]bool)
	// req -> node -> open hold timestamps; a release with node -1 drops
	// the request's holds everywhere (the simulator's release path).
	holdOpen := make(map[int64]map[int][]int64)

	ms := func(fromMicros, toMicros int64) float64 {
		return float64(toMicros-fromMicros) / 1000
	}
	for _, e := range events {
		switch {
		case e.OpensSpan():
			if _, ok := probeOpen[e.Probe]; !ok {
				probeOpen[e.Probe] = e.AtMicros
			}
		case e.ClosesSpan():
			at, ok := probeOpen[e.Probe]
			delete(probeOpen, e.Probe)
			// Only a returned probe completed a walk; forwarded, pruned,
			// and dropped spans end without a meaningful RTT.
			if ok && e.Type == obs.EventProbeReturned {
				if e.LatencyMs > 0 {
					probes.Observe(e.LatencyMs)
				} else {
					probes.Observe(ms(at, e.AtMicros))
				}
			}
		}
		switch e.Type {
		case obs.EventRequestReceived:
			if _, ok := reqOpen[e.Req]; !ok {
				reqOpen[e.Req] = e.AtMicros
			}
		case obs.EventDecided, obs.EventCommitted, obs.EventRolledBack:
			// The first decision-ish event closes the request span; the
			// simulator emits committed/rolledback without a decided.
			if at, ok := reqOpen[e.Req]; ok && !reqClosed[e.Req] {
				reqClosed[e.Req] = true
				requests.Observe(ms(at, e.AtMicros))
			}
		case obs.EventHoldAcquired:
			if holdOpen[e.Req] == nil {
				holdOpen[e.Req] = make(map[int][]int64)
			}
			holdOpen[e.Req][e.Node] = append(holdOpen[e.Req][e.Node], e.AtMicros)
		case obs.EventHoldReleased:
			if e.Node >= 0 {
				for _, at := range holdOpen[e.Req][e.Node] {
					holds.Observe(ms(at, e.AtMicros))
				}
				delete(holdOpen[e.Req], e.Node)
				continue
			}
			for _, opens := range holdOpen[e.Req] {
				for _, at := range opens {
					holds.Observe(ms(at, e.AtMicros))
				}
			}
			delete(holdOpen, e.Req)
		}
	}

	fmt.Fprintln(w, "\nspan durations (ms):")
	fmt.Fprintf(w, "  %-10s %7s %9s %9s %9s %9s\n", "kind", "count", "p50", "p99", "p999", "max")
	for _, row := range []struct {
		kind string
		h    *obs.QHistogram
	}{{"probe", probes}, {"request", requests}, {"hold", holds}} {
		if row.h.Count() == 0 {
			fmt.Fprintf(w, "  %-10s %7d\n", row.kind, 0)
			continue
		}
		fmt.Fprintf(w, "  %-10s %7d %9.3f %9.3f %9.3f %9.3f\n", row.kind, row.h.Count(),
			row.h.Quantile(0.5), row.h.Quantile(0.99), row.h.Quantile(0.999), row.h.Max())
	}
}

func sortedReasonKeys(m map[obs.Reason][2]int) []obs.Reason {
	out := make([]obs.Reason, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sortedRequestIDs(m map[int64]*requestSummary) []int64 {
	out := make([]int64, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
