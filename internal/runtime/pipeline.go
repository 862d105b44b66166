package runtime

import (
	"sync"
)

// startPipeline wires the session's component graph into goroutines and
// channels: one goroutine per composed component, one bounded channel
// per dependency edge (the component input queues of §2.1), a merger in
// front of join components, and duplication after split components.
func startPipeline(s *session) {
	graph := s.request.Graph
	n := graph.NumPositions()

	// One channel per graph edge.
	edgeCh := make([]chan DataUnit, len(graph.Edges))
	for i := range edgeCh {
		edgeCh[i] = make(chan DataUnit, queueSize)
	}

	var wg sync.WaitGroup
	// sinkWg tracks sink goroutines: they share the single session
	// output channel, so none of them may close it directly — a closer
	// goroutine waits for all sinks and closes it exactly once. (With one
	// sink per graph this is equivalent to the sink closing it; with
	// several it prevents a close-of-closed-channel panic.)
	var sinkWg sync.WaitGroup
	for pos := 0; pos < n; pos++ {
		var ins []<-chan DataUnit
		var outs []chan<- DataUnit
		for i, e := range graph.Edges {
			if e.To == pos {
				ins = append(ins, edgeCh[i])
			}
			if e.From == pos {
				outs = append(outs, edgeCh[i])
			}
		}
		if len(ins) == 0 {
			ins = []<-chan DataUnit{s.input} // source reads the session input
		}
		isSink := len(outs) == 0
		if isSink {
			outs = []chan<- DataUnit{s.output}
			sinkWg.Add(1)
		}

		in := mergeStreams(&wg, s.quit, ins)
		fn := s.procFn[pos]

		wg.Add(1)
		go func(in <-chan DataUnit, outs []chan<- DataUnit, fn ProcessorFunc, pos int, isSink bool) {
			defer wg.Done()
			defer func() {
				if isSink {
					sinkWg.Done() // shared output closes via the closer
					return
				}
				for _, out := range outs {
					close(out) // edge channels have exactly one producer
				}
			}()
			for {
				var (
					unit DataUnit
					ok   bool
				)
				select {
				case unit, ok = <-in:
					if !ok {
						return // input flushed: graceful drain
					}
				case <-s.quit:
					return // forced teardown
				}
				results := []DataUnit{unit}
				if fn != nil {
					results = fn(unit)
				}
				for _, r := range results {
					s.perComp[pos].Add(1)
					if isSink {
						s.processd.Add(1)
					}
					// Splits duplicate the unit to every outgoing branch;
					// quit unblocks sends into queues whose consumer has
					// already torn down.
					for _, out := range outs {
						select {
						case out <- r:
						case <-s.quit:
							return
						}
					}
				}
			}
		}(in, outs, fn, pos, isSink)
	}

	// The single closer for the shared session output: fires once every
	// sink goroutine has exited.
	go func() {
		sinkWg.Wait()
		close(s.output)
	}()

	// The drain watcher closes done once every component goroutine has
	// exited (all queues flushed).
	go func() {
		wg.Wait()
		close(s.done)
	}()
}

// mergeStreams funnels several input queues into one stream for join
// components. A single input passes through untouched. Forwarders abort
// on quit so a forced teardown cannot wedge them against a full merge
// channel.
func mergeStreams(wg *sync.WaitGroup, quit <-chan struct{}, ins []<-chan DataUnit) <-chan DataUnit {
	if len(ins) == 1 {
		return ins[0]
	}
	merged := make(chan DataUnit)
	var inner sync.WaitGroup
	for _, in := range ins {
		inner.Add(1)
		go func(in <-chan DataUnit) {
			defer inner.Done()
			for {
				var (
					unit DataUnit
					ok   bool
				)
				select {
				case unit, ok = <-in:
					if !ok {
						return
					}
				case <-quit:
					return
				}
				select {
				case merged <- unit:
				case <-quit:
					return
				}
			}
		}(in)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		inner.Wait()
		close(merged)
	}()
	return merged
}
