package obs

import (
	"sync"
	"testing"
	"time"
)

func TestSubscribeDeliversEvents(t *testing.T) {
	tr := NewLive()
	if tr.Enabled() {
		t.Fatal("tracer enabled before any subscriber")
	}
	sub := tr.Subscribe(8)
	defer sub.Close()
	if !tr.Enabled() {
		t.Fatal("tracer not enabled with a live subscriber")
	}

	tr.RequestReceived(1, 4)
	tr.Committed(1, 4)
	<-sub.Ready()
	got := sub.Drain()
	if len(got) != 2 || got[0].Type != EventRequestReceived || got[1].Type != EventCommitted {
		t.Fatalf("Drain = %+v", got)
	}
	if got := sub.Drain(); got != nil {
		t.Fatalf("second Drain = %+v, want nil", got)
	}
	if sub.Drops() != 0 {
		t.Fatalf("Drops = %d", sub.Drops())
	}
}

func TestSubscribeRingOverflowDropsOldest(t *testing.T) {
	tr := NewLive()
	sub := tr.Subscribe(4)
	defer sub.Close()

	for i := int64(1); i <= 10; i++ {
		tr.RequestReceived(i, 0)
	}
	got := sub.Drain()
	// 6 events lost; the batch opens with the synthetic gap marker then
	// the 4 survivors (requests 7..10).
	if len(got) != 5 {
		t.Fatalf("Drain returned %d events: %+v", len(got), got)
	}
	if got[0].Type != EventTraceDropped || got[0].Count != 6 {
		t.Fatalf("gap marker = %+v, want trace.dropped count 6", got[0])
	}
	for i, want := range []int64{7, 8, 9, 10} {
		if got[i+1].Req != want {
			t.Fatalf("survivor %d = req %d, want %d", i, got[i+1].Req, want)
		}
	}
	if sub.Drops() != 6 {
		t.Fatalf("Drops = %d, want 6", sub.Drops())
	}
	// The drop counter is cumulative; the gap marker is not re-emitted.
	if got := sub.Drain(); got != nil {
		t.Fatalf("post-overflow Drain = %+v", got)
	}
}

func TestSubscribeClose(t *testing.T) {
	tr := NewLive()
	sub := tr.Subscribe(0) // default capacity
	tr.RequestReceived(1, 0)
	sub.Close()
	sub.Close() // idempotent
	if !sub.Closed() {
		t.Fatal("Closed() false after Close")
	}
	if tr.Enabled() {
		t.Fatal("tracer still enabled after last subscriber closed")
	}
	// Events emitted after Close are not delivered.
	tr.RequestReceived(2, 0)
	got := sub.Drain()
	if len(got) != 1 || got[0].Req != 1 {
		t.Fatalf("post-close Drain = %+v", got)
	}
	// Ready is closed so waiters wake instead of hanging.
	<-sub.Ready()
}

func TestSubscribeNilSafety(t *testing.T) {
	var tr *Tracer
	sub := tr.Subscribe(8)
	if sub != nil {
		t.Fatal("nil tracer returned a subscription")
	}
	sub.Close()
	if sub.Drain() != nil || sub.Drops() != 0 || !sub.Closed() {
		t.Fatal("nil subscription not inert")
	}
}

func TestSubscribeFanOut(t *testing.T) {
	tr := NewLive()
	a := tr.Subscribe(8)
	b := tr.Subscribe(8)
	defer a.Close()
	defer b.Close()
	tr.Committed(7, 1)
	for _, sub := range []*Subscription{a, b} {
		got := sub.Drain()
		if len(got) != 1 || got[0].Req != 7 {
			t.Fatalf("fan-out Drain = %+v", got)
		}
	}
	a.Close()
	tr.Committed(8, 1)
	if got := a.Drain(); got != nil {
		t.Fatalf("closed subscriber received %+v", got)
	}
	if got := b.Drain(); len(got) != 1 {
		t.Fatalf("live subscriber missed event: %+v", got)
	}
}

// TestSubscribeConcurrent is the -race gate: concurrent emitters, a
// draining subscriber, and subscribers churning on and off. It is also
// the lock-order gate for the tracer's subscriber list and each
// subscription's ring: every method that takes either lock runs against
// every other, four churners at once, so a nested acquisition in one
// order and its inverse deadlock here, and the watchdog fails the test.
func TestSubscribeConcurrent(t *testing.T) {
	tr := NewLive()
	stable := tr.Subscribe(256) // closed at the end: a deferred Close would wait on a deadlock

	var wg sync.WaitGroup
	const emitters, perEmitter = 4, 1000
	for e := 0; e < emitters; e++ {
		wg.Add(1)
		go func(e int) {
			defer wg.Done()
			for i := 0; i < perEmitter; i++ {
				tr.RequestReceived(int64(e*perEmitter+i), 0)
			}
		}(e)
	}
	const churners = 4
	for c := 0; c < churners; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				s := tr.Subscribe(16)
				_ = s.Drain()
				_ = s.Drops()
				_ = tr.subscribers()
				s.Close()
				_ = s.Closed()
			}
		}()
	}

	var received int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stable.Ready():
				for _, ev := range stable.Drain() {
					if ev.Type == EventRequestReceived {
						received++
					}
				}
			case <-done:
				return
			}
		}
	}()
	joined := make(chan struct{})
	go func() {
		wg.Wait()
		close(joined)
	}()
	select {
	case <-joined:
	case <-time.After(10 * time.Second):
		t.Fatal("emitters and churners did not finish in 10 s: a lock-order inversion deadlocked them")
	}
	done <- struct{}{}
	<-done
	for _, ev := range stable.Drain() {
		if ev.Type == EventRequestReceived {
			received++
		}
	}
	if got := received + stable.Drops(); got != emitters*perEmitter {
		t.Fatalf("received %d + dropped %d = %d, want %d",
			received, stable.Drops(), got, emitters*perEmitter)
	}
	stable.Close()
}

// TestEmitAllocationFreeWithoutSubscribers guards the disabled path: a
// tracer with no sink and no subscribers must not allocate per emit.
func TestEmitAllocationFreeWithoutSubscribers(t *testing.T) {
	tr := NewLive()
	if n := testing.AllocsPerRun(1000, func() { tr.RequestReceived(1, 0) }); n != 0 {
		t.Errorf("subscriber-less emit allocates %v per call", n)
	}
	var nilTr *Tracer
	if n := testing.AllocsPerRun(1000, func() { nilTr.RequestReceived(1, 0) }); n != 0 {
		t.Errorf("nil tracer emit allocates %v per call", n)
	}
}

func BenchmarkEmitNoSubscribers(b *testing.B) {
	tr := NewLive()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.RequestReceived(int64(i), 0)
	}
}

// BenchmarkEmitNilTracer is the cost core.Env documents for a walk with no
// tracer: an emitting method on a nil *Tracer, which builds no Event.
func BenchmarkEmitNilTracer(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.CandidatePruned(int64(i), 0, 0, 1, 2, ReasonQoS)
	}
}

func BenchmarkEmitOneSubscriber(b *testing.B) {
	tr := NewLive()
	sub := tr.Subscribe(1024)
	defer sub.Close()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.RequestReceived(int64(i), 0)
	}
}
