package clock

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestWallBasics(t *testing.T) {
	c := Or(nil)
	start := c.Now()
	c.Sleep(time.Millisecond)
	if c.Since(start) <= 0 {
		t.Error("wall Since did not advance across Sleep")
	}
	fired := make(chan struct{})
	c.AfterFunc(time.Millisecond, func() { close(fired) })
	select {
	case <-fired:
	case <-time.After(2 * time.Second):
		t.Fatal("wall AfterFunc never fired")
	}
	if _, ok := c.(wallClock); !ok {
		t.Errorf("Or(nil) is %T, not the wall clock", c)
	}
	if v := NewVirtual(); Or(v) != v {
		t.Error("Or(v) did not pass the clock through")
	}
}

func TestVirtualAdvanceFiresInOrder(t *testing.T) {
	v := NewVirtual()
	var order []int
	v.AfterFunc(30*time.Millisecond, func() { order = append(order, 3) })
	v.AfterFunc(10*time.Millisecond, func() { order = append(order, 1) })
	v.AfterFunc(10*time.Millisecond, func() { order = append(order, 2) }) // same deadline: registration order
	v.AfterFunc(50*time.Millisecond, func() { order = append(order, 4) })

	v.Advance(40 * time.Millisecond)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("fired order %v, want [1 2 3]", order)
	}
	if got := v.PendingTimers(); got != 1 {
		t.Errorf("pending = %d, want 1", got)
	}
	v.Advance(10 * time.Millisecond)
	if len(order) != 4 || order[3] != 4 {
		t.Errorf("late timer did not fire: %v", order)
	}
}

func TestVirtualAdvanceToNext(t *testing.T) {
	v := NewVirtual()
	epoch := v.Now()
	fired := 0
	v.AfterFunc(7*time.Millisecond, func() { fired++ })
	v.AfterFunc(20*time.Millisecond, func() { fired++ })

	step, ok := v.AdvanceToNext()
	if !ok || step != 7*time.Millisecond || fired != 1 {
		t.Fatalf("first AdvanceToNext: step=%v ok=%v fired=%d", step, ok, fired)
	}
	step, ok = v.AdvanceToNext()
	if !ok || step != 13*time.Millisecond || fired != 2 {
		t.Fatalf("second AdvanceToNext: step=%v ok=%v fired=%d", step, ok, fired)
	}
	if _, ok := v.AdvanceToNext(); ok {
		t.Error("AdvanceToNext reported a timer on an empty clock")
	}
	if got := v.Since(epoch); got != 20*time.Millisecond {
		t.Errorf("virtual elapsed = %v, want 20ms", got)
	}
}

func TestVirtualCallbackReschedules(t *testing.T) {
	// A callback that re-arms itself within the advance window must fire
	// again inside the same Advance call (retry-backoff chains rely on
	// this).
	v := NewVirtual()
	count := 0
	var rearm func()
	rearm = func() {
		count++
		if count < 3 {
			v.AfterFunc(time.Millisecond, rearm)
		}
	}
	v.AfterFunc(time.Millisecond, rearm)
	v.Advance(10 * time.Millisecond)
	if count != 3 {
		t.Errorf("chained callback fired %d times, want 3", count)
	}
}

// TestVirtualAdvanceFiresAtTarget pins the edge of an Advance window: a
// timer due exactly at the target fires, so does one its callback
// schedules for that same instant, and one a nanosecond later does not.
// A negative delay is clamped to now. Time ends at the target even when
// the queue drained earlier.
func TestVirtualAdvanceFiresAtTarget(t *testing.T) {
	v := NewVirtual()
	epoch := v.Now()
	var fired []string
	v.AfterFunc(4*time.Second, func() {
		fired = append(fired, "target")
		v.AfterFunc(0, func() { fired = append(fired, "same instant") })
		v.AfterFunc(time.Nanosecond, func() { fired = append(fired, "late") })
	})
	v.AfterFunc(-time.Second, func() { fired = append(fired, "clamped") })
	v.Advance(4 * time.Second)
	want := []string{"clamped", "target", "same instant"}
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	}
	if got := v.Since(epoch); got != 4*time.Second {
		t.Errorf("now = %v after Advance(4s)", got)
	}
	if got := v.PendingTimers(); got != 1 {
		t.Errorf("pending = %d, want the late timer", got)
	}
	v.Advance(20 * time.Second)
	if len(fired) != 4 || v.Since(epoch) != 24*time.Second {
		t.Errorf("after drain: fired %v, now %v", fired, v.Since(epoch))
	}
}

// TestVirtualClockMonotone: callbacks see non-decreasing time whatever
// order their timers were registered in.
func TestVirtualClockMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		v := NewVirtual()
		var times []time.Time
		for i := 0; i < 50; i++ {
			v.AfterFunc(time.Duration(rng.Intn(1000))*time.Millisecond, func() {
				times = append(times, v.Now())
			})
		}
		v.Advance(time.Second)
		return len(times) == 50 && sort.SliceIsSorted(times, func(i, j int) bool { return times[i].Before(times[j]) })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestVirtualScheduleOrdering: timers registered out of deadline order
// fire in deadline order, and draining them one by one leaves time at the
// last deadline.
func TestVirtualScheduleOrdering(t *testing.T) {
	v := NewVirtual()
	epoch := v.Now()
	var got []int
	for _, id := range []int{3, 1, 2} {
		id := id
		v.AfterFunc(time.Duration(id)*time.Second, func() { got = append(got, id) })
	}
	for {
		if _, ok := v.AdvanceToNext(); !ok {
			break
		}
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("order = %v, want [1 2 3]", got)
	}
	if now := v.Since(epoch); now != 3*time.Second {
		t.Errorf("now = %v, want 3s", now)
	}
}

// TestVirtualScheduleTieBreakFIFO: timers sharing a deadline fire in the
// order they were registered.
func TestVirtualScheduleTieBreakFIFO(t *testing.T) {
	v := NewVirtual()
	var got []int
	for i := 0; i < 10; i++ {
		id := i
		v.AfterFunc(time.Second, func() { got = append(got, id) })
	}
	v.Advance(time.Second)
	if len(got) != 10 {
		t.Fatalf("fired %d timers, want 10", len(got))
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("tie-break order = %v, want FIFO", got)
		}
	}
}

// TestVirtualEventsScheduleEvents: a callback that schedules the next
// event one second out sees the clock at each event's own deadline.
func TestVirtualEventsScheduleEvents(t *testing.T) {
	v := NewVirtual()
	epoch := v.Now()
	var times []time.Duration
	var tick func()
	tick = func() {
		now := v.Since(epoch)
		times = append(times, now)
		if now < 5*time.Second {
			v.AfterFunc(time.Second, tick)
		}
	}
	v.AfterFunc(time.Second, tick)
	v.Advance(10 * time.Second)
	if len(times) != 5 {
		t.Fatalf("ticks = %v, want 5 entries", times)
	}
	for i, at := range times {
		if at != time.Duration(i+1)*time.Second {
			t.Fatalf("tick %d at %v", i, at)
		}
	}
}

// TestVirtualStepOnEmpty: stepping a clock with no timers reports false
// and does not move time.
func TestVirtualStepOnEmpty(t *testing.T) {
	v := NewVirtual()
	epoch := v.Now()
	if step, ok := v.AdvanceToNext(); ok || step != 0 {
		t.Errorf("AdvanceToNext on empty clock = (%v, %v), want (0, false)", step, ok)
	}
	if got := v.Since(epoch); got != 0 {
		t.Errorf("empty step moved time by %v", got)
	}
}

func TestVirtualTimerStop(t *testing.T) {
	v := NewVirtual()
	fired := false
	timer := v.AfterFunc(5*time.Millisecond, func() { fired = true })
	if !timer.Stop() {
		t.Error("Stop on pending timer reported false")
	}
	if timer.Stop() {
		t.Error("second Stop reported true")
	}
	v.Advance(10 * time.Millisecond)
	if fired {
		t.Error("stopped timer fired")
	}
}

func TestVirtualTicker(t *testing.T) {
	v := NewVirtual()
	tk := v.NewTicker(10 * time.Millisecond)
	ticks := 0
	for i := 0; i < 3; i++ {
		v.Advance(10 * time.Millisecond)
		select {
		case <-tk.C():
			ticks++
		default:
			t.Fatalf("tick %d not delivered", i)
		}
	}
	tk.Stop()
	v.Advance(50 * time.Millisecond)
	select {
	case <-tk.C():
		t.Error("stopped ticker ticked")
	default:
	}
	if ticks != 3 {
		t.Errorf("ticks = %d, want 3", ticks)
	}
	// An unconsumed tick is dropped, not queued (time.Ticker semantics).
	tk2 := v.NewTicker(time.Millisecond)
	v.Advance(10 * time.Millisecond)
	drained := 0
	for {
		select {
		case <-tk2.C():
			drained++
			continue
		default:
		}
		break
	}
	if drained > 1 {
		t.Errorf("ticker queued %d ticks across one advance, want at most 1 buffered", drained)
	}
	tk2.Stop()
}

func TestVirtualSleepAndAfter(t *testing.T) {
	v := NewVirtual()
	var wg sync.WaitGroup
	woke := make(chan time.Duration, 1)
	start := v.Now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		v.Sleep(25 * time.Millisecond)
		woke <- v.Since(start)
	}()
	// Let the sleeper register its timer, then advance.
	for v.PendingTimers() == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	v.Advance(25 * time.Millisecond)
	wg.Wait()
	if got := <-woke; got != 25*time.Millisecond {
		t.Errorf("sleeper woke at %v, want 25ms", got)
	}
	if n := v.PendingTimers(); n != 0 {
		t.Errorf("%d timers still pending after the sleeper woke", n)
	}
}
