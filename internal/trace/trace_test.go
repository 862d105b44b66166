package trace

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/component"
	"repro/internal/qos"
	"repro/internal/workload"
)

func sampleRequest(t *testing.T, seed int64) *component.Request {
	t.Helper()
	lib, err := component.GenerateLibrary(component.DefaultTemplateConfig(), rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	cfg := workload.DefaultConfig(lib, 100)
	cfg.SecureFraction = 0.5
	gen, err := workload.NewGenerator(cfg, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return gen.Next()
}

func TestRecordRoundTrip(t *testing.T) {
	req := sampleRequest(t, 1)
	rec := FromRequest(req, 90*time.Second)
	back, err := rec.Request()
	if err != nil {
		t.Fatal(err)
	}
	if back.ID != req.ID || back.Client != req.Client || back.MinSecurity != req.MinSecurity {
		t.Errorf("identity fields differ: %+v vs %+v", back, req)
	}
	if back.Graph.NumPositions() != req.Graph.NumPositions() || len(back.Graph.Edges) != len(req.Graph.Edges) {
		t.Fatal("graph shape differs")
	}
	for i, f := range req.Graph.Functions {
		if back.Graph.Functions[i] != f {
			t.Fatal("functions differ")
		}
	}
	if diff := back.QoSReq.Delay - req.QoSReq.Delay; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("delay requirement differs by %v", diff)
	}
	lossDiff := qos.LossProb(back.QoSReq.LossCost) - qos.LossProb(req.QoSReq.LossCost)
	if lossDiff > 1e-9 || lossDiff < -1e-9 {
		t.Errorf("loss requirement differs by %v", lossDiff)
	}
	if rec.Arrival() != 90*time.Second {
		t.Errorf("arrival = %v", rec.Arrival())
	}
	// Millisecond truncation on duration is the only allowed loss.
	if back.Duration.Truncate(time.Millisecond) != req.Duration.Truncate(time.Millisecond) {
		t.Errorf("duration differs: %v vs %v", back.Duration, req.Duration)
	}
}

func TestWriterReadStream(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	var want []Record
	for i := 0; i < 20; i++ {
		req := sampleRequest(t, int64(i+2))
		req.ID = int64(i)
		rec := FromRequest(req, time.Duration(i)*time.Second)
		want = append(want, rec)
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("read %d records, wrote %d", len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID || got[i].ArrivalMillis != want[i].ArrivalMillis {
			t.Fatalf("record %d differs", i)
		}
	}
}

func TestReadRejectsDisorder(t *testing.T) {
	input := `{"id":1,"arrivalMillis":5000,"functions":[1],"cpuReq":[1],"memoryReq":[1],"durationMillis":60000,"delayReqMillis":10}
{"id":2,"arrivalMillis":1000,"functions":[1],"cpuReq":[1],"memoryReq":[1],"durationMillis":60000,"delayReqMillis":10}`
	if _, err := Read(strings.NewReader(input)); err == nil {
		t.Error("out-of-order arrivals accepted")
	}
}

// TestReadRejectsNegativeArrival: a replayed run schedules each record
// at its arrival on a clock that starts at zero, so a record from before
// the start is malformed input, not an event to run at once.
func TestReadRejectsNegativeArrival(t *testing.T) {
	input := `{"id":1,"arrivalMillis":-1,"functions":[1],"cpuReq":[1],"memoryReq":[1],"durationMillis":60000,"delayReqMillis":10}`
	if _, err := Read(strings.NewReader(input)); err == nil {
		t.Error("negative arrival accepted")
	}
	input = `{"id":1,"arrivalMillis":0,"functions":[1],"cpuReq":[1],"memoryReq":[1],"durationMillis":60000,"delayReqMillis":10}`
	if recs, err := Read(strings.NewReader(input)); err != nil || len(recs) != 1 {
		t.Errorf("arrival at zero: %d records, %v", len(recs), err)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(strings.NewReader("{not json")); err == nil {
		t.Error("garbage accepted")
	}
}

func TestRecordRequestValidation(t *testing.T) {
	rec := Record{ID: 1, Functions: []int{1, 2}, CPUReq: []float64{1}, MemoryReq: []float64{1, 2}, DurationMs: 1000}
	if _, err := rec.Request(); err == nil {
		t.Error("mismatched resource arrays accepted")
	}
	rec = Record{ID: 1, Functions: []int{1}, CPUReq: []float64{1}, MemoryReq: []float64{1}, DurationMs: 0}
	if _, err := rec.Request(); err == nil {
		t.Error("zero duration accepted")
	}
}

// TestPropertyRoundTripAnyRequest: serialization is faithful for
// arbitrary generated workload requests.
func TestPropertyRoundTripAnyRequest(t *testing.T) {
	f := func(seed int64) bool {
		req := sampleRequest(t, seed)
		back, err := FromRequest(req, 0).Request()
		if err != nil {
			return false
		}
		if len(back.ResReq) != len(req.ResReq) {
			return false
		}
		for i := range req.ResReq {
			if d := back.ResReq[i].CPU - req.ResReq[i].CPU; d > 1e-9 || d < -1e-9 {
				return false
			}
		}
		return back.BandwidthReq == req.BandwidthReq
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
