package obs

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestVecBasics(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("rpc.calls", "method", "node")
	cv.With("find", "3").Add(2)
	cv.With("find", "3").Inc()
	cv.With("close", "3").Inc()
	s := r.Snapshot().CounterVecs["rpc.calls"]
	if !reflect.DeepEqual(s.LabelNames, []string{"method", "node"}) {
		t.Fatalf("LabelNames = %v", s.LabelNames)
	}
	want := []LabeledValue{
		{Labels: []string{"close", "3"}, Value: 1},
		{Labels: []string{"find", "3"}, Value: 3},
	}
	if !reflect.DeepEqual(s.Values, want) {
		t.Fatalf("Values = %+v, want %+v", s.Values, want)
	}

	gv := r.GaugeVec("session.phi", "session")
	gv.With("9").Set(0.7)
	gv.Delete("missing")
	if got, want := r.Snapshot().GaugeVecs["session.phi"].Values, []LabeledValue{{Labels: []string{"9"}, Value: 0.7}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("gauge rows = %+v, want %+v", got, want)
	}
	gv.Delete("9")
	if got := r.Snapshot().GaugeVecs["session.phi"].Values; len(got) != 0 {
		t.Fatalf("Delete left %+v behind", got)
	}

	hv := r.HistogramVec("op.latency", "op")
	hv.With("find").Observe(3)
	hv.With("find").Observe(5)
	hs := r.Snapshot().HistogramVecs["op.latency"]
	if len(hs.Values) != 1 || hs.Values[0].Histogram.Count != 2 {
		t.Fatalf("histogram vec snapshot = %+v", hs)
	}
}

func TestVecArityMismatch(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("v", "a", "b")
	if c := cv.With("only-one"); c != nil {
		t.Fatal("arity mismatch returned a live child")
	}
	// The no-op child is safe to use.
	cv.With("only-one").Inc()
	if got := r.Snapshot().Counters["obs.registry.label_errors"]; got != 2 {
		t.Fatalf("label_errors = %d, want 2", got)
	}
	// Re-registering the same name with different label names is also a
	// label error and yields the original vector.
	if again := r.CounterVec("v", "different"); again != cv {
		t.Fatal("re-registration returned a different vector")
	}
	if got := r.Snapshot().Counters["obs.registry.label_errors"]; got != 3 {
		t.Fatalf("label_errors after re-register = %d, want 3", got)
	}
}

func TestNilVecsAreNoOps(t *testing.T) {
	var (
		cv *CounterVec
		gv *GaugeVec
		hv *HistogramVec
	)
	cv.With("x").Inc()
	cv.Delete("x")
	gv.With("x").Set(1)
	if gv.With("x") != nil {
		t.Fatal("nil GaugeVec.With returned a child")
	}
	hv.With("x").Observe(1)
	hv.Delete("x")

	// A nil registry vends nil vectors.
	var r *Registry
	if v := r.GaugeVec("x", "l"); v != nil {
		t.Fatal("nil registry returned a vector")
	}
}

func TestVecLabelValuesSorted(t *testing.T) {
	r := NewRegistry()
	gv := r.GaugeVec("g", "session")
	for _, s := range []string{"30", "1", "2", "10"} {
		gv.With(s).Set(1)
	}
	var got [][]string
	for _, lv := range r.Snapshot().GaugeVecs["g"].Values {
		got = append(got, lv.Labels)
	}
	want := [][]string{{"1"}, {"10"}, {"2"}, {"30"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("snapshot labels = %v, want %v", got, want)
	}
}

// TestVecConcurrent is the -race gate for the vector fast path: many
// goroutines creating and bumping overlapping children while snapshots
// run.
func TestVecConcurrent(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("c", "k")
	var wg sync.WaitGroup
	const workers, perWorker = 8, 2000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				cv.With(fmt.Sprint(i % 17)).Inc()
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			_ = r.Snapshot()
		}
	}()
	wg.Wait()
	<-done
	var total float64
	for _, lv := range r.Snapshot().CounterVecs["c"].Values {
		total += lv.Value
	}
	if total != workers*perWorker {
		t.Fatalf("total = %v, want %d", total, workers*perWorker)
	}
}

// TestVecObserveAllocationFree guards the labeled hot path: bumping an
// existing child must not allocate.
func TestVecObserveAllocationFree(t *testing.T) {
	r := NewRegistry()
	hv := r.HistogramVec("h", "k")
	child := hv.With("steady")
	if n := testing.AllocsPerRun(1000, func() { child.Observe(1.5) }); n != 0 {
		t.Errorf("cached child Observe allocates %v per call", n)
	}
	cv := r.CounterVec("c", "k")
	cc := cv.With("steady")
	if n := testing.AllocsPerRun(1000, func() { cc.Inc() }); n != 0 {
		t.Errorf("cached child Inc allocates %v per call", n)
	}
}

func TestRegistryHistogramBoundsConflict(t *testing.T) {
	r := NewRegistry()
	a := r.Histogram("h", []float64{1, 2, 3})
	b := r.Histogram("h", []float64{1, 2, 3})
	if a != b {
		t.Fatal("same-bounds re-registration returned a different histogram")
	}
	if got, ok := r.Snapshot().Counters["obs.registry.histogram_bounds_conflicts"]; ok {
		t.Fatalf("conflicts = %d before any mismatch", got)
	}
	// Mismatched bounds return the existing histogram and record the
	// conflict instead of silently mis-bucketing.
	c := r.Histogram("h", []float64{5, 10})
	if c != a {
		t.Fatal("conflicting re-registration returned a different histogram")
	}
	if got := r.Snapshot().Counters["obs.registry.histogram_bounds_conflicts"]; got != 1 {
		t.Fatalf("snapshot conflict counter = %d, want 1", got)
	}
}

// tableSource is a collect-backed gauge family over a fixed table, in
// the order given; it counts its reads and the scrapes they served.
type tableSource struct {
	rows    [][]string
	values  []float64
	reads   int
	scrapes map[uint64]int
}

func (s *tableSource) collect(scrape uint64, emit func([]string, float64)) {
	s.reads++
	if s.scrapes == nil {
		s.scrapes = make(map[uint64]int)
	}
	s.scrapes[scrape]++
	for i, labels := range s.rows {
		emit(labels, s.values[i])
	}
}

// TestGaugeVecFuncRefusesWrites: a collect-backed vector has no children
// to write, so With hands out a nil child, Delete does nothing, and both
// count a label error; the collected rows are untouched.
func TestGaugeVecFuncRefusesWrites(t *testing.T) {
	r := NewRegistry()
	src := &tableSource{rows: [][]string{{"7"}}, values: []float64{0.5}}
	gv := r.GaugeVecFunc("session.phi", src.collect, "session")
	if c := gv.With("7"); c != nil {
		t.Fatal("With on a collect-backed vector returned a child")
	}
	gv.With("8").Set(3) // the nil child is safe to use
	gv.Delete("7")
	s := r.Snapshot()
	if got := s.Counters["obs.registry.label_errors"]; got != 3 {
		t.Fatalf("label_errors = %d, want 3", got)
	}
	want := []LabeledValue{{Labels: []string{"7"}, Value: 0.5}}
	if got := s.GaugeVecs["session.phi"].Values; !reflect.DeepEqual(got, want) {
		t.Fatalf("rows = %+v, want %+v", got, want)
	}

	var nilReg *Registry
	if v := nilReg.GaugeVecFunc("x", src.collect, "l"); v != nil {
		t.Fatal("nil registry returned a vector")
	}
}

// TestGaugeVecFuncReadsMatchStored: a collect-backed vector reads like a
// stored one holding the same children: their snapshots agree, in the
// order stored children sort in, whatever order the source emits. The label values include prefixes of each other, on both sides
// of the key separator, which is where joined-key order and element-wise
// order part.
func TestGaugeVecFuncReadsMatchStored(t *testing.T) {
	rows := [][]string{
		{"10", "b"}, {"1", "b"}, {"1", "a"}, {"2", "a"}, {"100", "a"},
		{"1\x1e", "a"}, {"1\n", "z"}, {"", "q"}, {"1", ""}, {"1 ", "a"},
	}
	src := &tableSource{rows: rows}
	for i := range rows {
		src.values = append(src.values, float64(i))
	}
	r := NewRegistry()
	stored := r.GaugeVec("stored", "session", "tenant")
	for i, labels := range rows {
		stored.With(labels...).Set(src.values[i])
	}
	r.GaugeVecFunc("collected", src.collect, "session", "tenant")

	s := r.Snapshot()
	if !reflect.DeepEqual(s.GaugeVecs["collected"], s.GaugeVecs["stored"]) {
		t.Fatalf("collected snapshot %+v\n stored snapshot %+v", s.GaugeVecs["collected"], s.GaugeVecs["stored"])
	}
}

// TestCompareLabelsMatchesKeys holds compareLabels to the order of the
// joined keys over short random tuples drawn from an alphabet that
// includes the separator and bytes either side of it.
func TestCompareLabelsMatchesKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	alphabet := []byte{'\n', '\x1e', '\x1f', ' ', '0', '1', 'a'}
	tuple := func() []string {
		out := make([]string, 1+rng.Intn(3))
		for i := range out {
			b := make([]byte, rng.Intn(4))
			for j := range b {
				b[j] = alphabet[rng.Intn(len(alphabet))]
			}
			out[i] = string(b)
		}
		return out
	}
	sign := func(x int) int { return cmp.Compare(x, 0) }
	for i := 0; i < 200000; i++ {
		a, b := tuple(), tuple()
		if got, want := sign(compareLabels(a, b)), strings.Compare(labelKey(a), labelKey(b)); got != want {
			t.Fatalf("compareLabels(%q, %q) = %d, keys order %d", a, b, got, want)
		}
	}
}

// TestGaugeVecFuncOneScrapePerSnapshot: every collect-backed family one
// Snapshot reads sees the same scrape, and the next Snapshot a new one.
func TestGaugeVecFuncOneScrapePerSnapshot(t *testing.T) {
	r := NewRegistry()
	src := &tableSource{rows: [][]string{{"1"}}, values: []float64{1}}
	for _, name := range []string{"a", "b", "c"} {
		r.GaugeVecFunc(name, src.collect, "session")
	}
	r.Snapshot()
	r.Snapshot()
	if src.reads != 6 || len(src.scrapes) != 2 {
		t.Fatalf("%d reads over %d scrapes, want 6 over 2", src.reads, len(src.scrapes))
	}
}

// TestGaugeVecFuncSecondSourceRefused: a family has one source. A second
// GaugeVecFunc for a registered name — collect-backed or stored — is
// refused and counted; the registry keeps exporting what it had, and the
// refused caller's vector still reads its own source.
func TestGaugeVecFuncSecondSourceRefused(t *testing.T) {
	r := NewRegistry()
	first := &tableSource{rows: [][]string{{"1"}}, values: []float64{1}}
	second := &tableSource{rows: [][]string{{"2"}}, values: []float64{2}}
	r.GaugeVecFunc("session.phi", first.collect, "session")
	refused := r.GaugeVecFunc("session.phi", second.collect, "session")
	r.GaugeVec("stored", "session").With("3").Set(3)
	r.GaugeVecFunc("stored", second.collect, "session")

	s := r.Snapshot()
	if got := s.Counters["obs.registry.label_errors"]; got != 2 {
		t.Fatalf("label_errors = %d, want 2", got)
	}
	if got := s.GaugeVecs["session.phi"].Values; len(got) != 1 || got[0].Labels[0] != "1" {
		t.Fatalf("session.phi exports %+v, want the first source's row", got)
	}
	if got := s.GaugeVecs["stored"].Values; len(got) != 1 || got[0].Labels[0] != "3" {
		t.Fatalf("stored exports %+v, want its stored child", got)
	}
	if got := collectRows(refused, newScrape()); len(got) != 1 || got[0].Labels[0] != "2" {
		t.Fatalf("refused vector reads %+v, want its own source", got)
	}
	if r.GaugeVec("session.phi", "session").With("9") != nil {
		t.Fatal("GaugeVec on a collect-backed name handed out a writable child")
	}
}
