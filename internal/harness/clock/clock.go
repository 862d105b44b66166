// Package clock abstracts time for the layers of the system that sleep,
// schedule, and expire: a Clock interface with a wall implementation
// (thin wrappers over package time) and a virtual implementation driven
// by an explicit Advance. Production code takes a Clock and defaults to
// Wall(); the deterministic simulation harness (internal/harness)
// substitutes a Virtual clock so hold TTLs, collection windows, commit
// timeouts, sweep periods, and injected delivery delays all elapse in
// zero wall time, in a reproducible order.
//
// The Virtual clock is FoundationDB-style discrete time: timers fire in
// (deadline, registration) order, callbacks run synchronously on the
// goroutine calling Advance, and nothing moves unless the driver moves
// it. That makes a single-threaded simulation bit-reproducible — the
// same seed replays the same schedule.
package clock

import (
	"container/heap"
	"sync"
	"time"
)

// Clock is the time surface the engine layers consume. Implementations
// must be safe for concurrent use.
type Clock interface {
	// Now returns the current time on this clock.
	Now() time.Time
	// Since returns the elapsed time from t to Now.
	Since(t time.Time) time.Duration
	// Sleep blocks the calling goroutine for d. On a Virtual clock the
	// sleeper wakes when some other goroutine advances past its deadline.
	Sleep(d time.Duration)
	// After returns a channel that delivers the clock's time once d has
	// elapsed.
	After(d time.Duration) <-chan time.Time
	// AfterFunc schedules f after d. On a Virtual clock f runs
	// synchronously on the advancing goroutine.
	AfterFunc(d time.Duration, f func()) Timer
	// NewTicker returns a ticker firing every d.
	NewTicker(d time.Duration) Ticker
}

// Timer is a cancellable pending AfterFunc.
type Timer interface {
	// Stop cancels the timer, reporting whether it was still pending.
	Stop() bool
}

// Ticker delivers ticks on C until stopped.
type Ticker interface {
	C() <-chan time.Time
	Stop()
}

// ---------------------------------------------------------------------
// Wall clock

type wallClock struct{}

type wallTimer struct{ t *time.Timer }

func (w wallTimer) Stop() bool { return w.t.Stop() }

type wallTicker struct{ t *time.Ticker }

func (w wallTicker) C() <-chan time.Time { return w.t.C }
func (w wallTicker) Stop()               { w.t.Stop() }

// wallClock is the one sanctioned boundary to package time: everything
// else in the deterministic packages reaches the clock through the Clock
// interface, so each method carries the determinism waiver that
// internal/harness.TestDeterminism accepts.
func (wallClock) Now() time.Time                         { return time.Now() }    //acp:nondeterminism-ok wallClock is the real-time Clock implementation
func (wallClock) Since(t time.Time) time.Duration        { return time.Since(t) } //acp:nondeterminism-ok wallClock is the real-time Clock implementation
func (wallClock) Sleep(d time.Duration)                  { time.Sleep(d) }        //acp:nondeterminism-ok wallClock is the real-time Clock implementation
func (wallClock) After(d time.Duration) <-chan time.Time { return time.After(d) } //acp:nondeterminism-ok wallClock is the real-time Clock implementation
func (wallClock) AfterFunc(d time.Duration, f func()) Timer {
	return wallTimer{t: time.AfterFunc(d, f)} //acp:nondeterminism-ok wallClock is the real-time Clock implementation
}
func (wallClock) NewTicker(d time.Duration) Ticker {
	return wallTicker{t: time.NewTicker(d)} //acp:nondeterminism-ok wallClock is the real-time Clock implementation
}

var wall Clock = wallClock{}

// Wall returns the real-time clock backed by package time.
func Wall() Clock { return wall }

// Or returns c, or the wall clock when c is nil — the defaulting rule
// every Config.Clock field shares.
func Or(c Clock) Clock {
	if c == nil {
		return wall
	}
	return c
}

// ---------------------------------------------------------------------
// Virtual clock

// vtimer is one scheduled event on the virtual timeline.
type vtimer struct {
	v   *Virtual
	at  time.Time
	seq uint64 // registration order breaks deadline ties
	fn  func() // runs outside the clock lock
	ch  chan time.Time
	// period re-arms the timer after firing (tickers).
	period time.Duration
	// stopped is set by Stop; fired entries are skipped lazily.
	stopped bool
	index   int // heap position, -1 when popped
}

type vheap []*vtimer

func (h vheap) Len() int { return len(h) }
func (h vheap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}
func (h vheap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index, h[j].index = i, j
}
func (h *vheap) Push(x interface{}) {
	t := x.(*vtimer)
	t.index = len(*h)
	*h = append(*h, t)
}
func (h *vheap) Pop() interface{} {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	t.index = -1
	*h = old[:n-1]
	return t
}

// Virtual is a manually-advanced clock. Time starts at the Unix epoch
// and moves only through Advance/AdvanceToNext. Safe for concurrent
// use; timer callbacks run on the advancing goroutine with the clock
// unlocked, so callbacks may freely register new timers.
type Virtual struct {
	mu     sync.Mutex
	now    time.Time
	seq    uint64
	timers vheap
}

// NewVirtual returns a virtual clock positioned at the Unix epoch.
func NewVirtual() *Virtual {
	return &Virtual{now: time.Unix(0, 0)}
}

// Now returns the current virtual time.
func (v *Virtual) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// Since returns virtual time elapsed since t.
func (v *Virtual) Since(t time.Time) time.Duration { return v.Now().Sub(t) }

// Sleep blocks until another goroutine advances the clock past d.
func (v *Virtual) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	<-v.After(d)
}

// After returns a channel delivering the virtual time once d elapses.
func (v *Virtual) After(d time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	v.schedule(d, nil, ch, 0)
	return ch
}

// AfterFunc schedules f to run after d virtual time. f runs
// synchronously on whichever goroutine advances the clock.
func (v *Virtual) AfterFunc(d time.Duration, f func()) Timer {
	return v.schedule(d, f, nil, 0)
}

type virtualTicker struct {
	t *vtimer
	v *Virtual
	c chan time.Time
}

func (vt *virtualTicker) C() <-chan time.Time { return vt.c }
func (vt *virtualTicker) Stop()               { vt.v.stop(vt.t) }

// NewTicker returns a ticker that fires every d of virtual time. Ticks
// are delivered into a 1-buffered channel; an unconsumed tick is
// dropped, matching time.Ticker.
func (v *Virtual) NewTicker(d time.Duration) Ticker {
	if d <= 0 {
		panic("clock: non-positive ticker period")
	}
	ch := make(chan time.Time, 1)
	t := v.schedule(d, nil, ch, d).(*vtimer)
	return &virtualTicker{t: t, v: v, c: ch}
}

func (v *Virtual) schedule(d time.Duration, fn func(), ch chan time.Time, period time.Duration) Timer {
	if d < 0 {
		d = 0
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	v.seq++
	t := &vtimer{v: v, at: v.now.Add(d), seq: v.seq, fn: fn, ch: ch, period: period}
	heap.Push(&v.timers, t)
	return t
}

// Stop cancels the timer, reporting whether it had not yet fired.
func (t *vtimer) Stop() bool { return t.v.stop(t) }

func (v *Virtual) stop(t *vtimer) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	if t.stopped {
		return false
	}
	t.stopped = true
	if t.index >= 0 {
		heap.Remove(&v.timers, t.index)
		return true
	}
	return false
}

// PendingTimers returns how many live timers are scheduled.
func (v *Virtual) PendingTimers() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	n := 0
	for _, t := range v.timers {
		if !t.stopped {
			n++
		}
	}
	return n
}

// NextDeadline reports the earliest live timer deadline.
func (v *Virtual) NextDeadline() (time.Time, bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	var (
		min  time.Time
		live bool
	)
	for _, t := range v.timers {
		if !t.stopped && (!live || t.at.Before(min)) {
			min, live = t.at, true
		}
	}
	return min, live
}

// Advance moves virtual time forward by d, firing every timer whose
// deadline falls within the window in (deadline, registration) order.
// Callbacks run synchronously with the clock unlocked, so a callback
// that schedules follow-up work within the same window is honoured.
func (v *Virtual) Advance(d time.Duration) {
	if d < 0 {
		return
	}
	v.mu.Lock()
	target := v.now.Add(d)
	v.advanceTo(target)
	v.mu.Unlock()
}

// AdvanceToNext jumps to the earliest pending timer deadline and fires
// everything due at that instant. It reports the step taken and false
// when no timer is pending.
func (v *Virtual) AdvanceToNext() (time.Duration, bool) {
	v.mu.Lock()
	// Drop stopped leaders so the next deadline is live.
	for len(v.timers) > 0 && v.timers[0].stopped {
		heap.Pop(&v.timers)
	}
	if len(v.timers) == 0 {
		v.mu.Unlock()
		return 0, false
	}
	target := v.timers[0].at
	step := target.Sub(v.now)
	v.advanceTo(target)
	v.mu.Unlock()
	return step, true
}

// advanceTo fires due timers and moves now to target. Called with v.mu
// held; unlocks around each callback.
func (v *Virtual) advanceTo(target time.Time) {
	for len(v.timers) > 0 {
		t := v.timers[0]
		if t.stopped {
			heap.Pop(&v.timers)
			continue
		}
		if t.at.After(target) {
			break
		}
		heap.Pop(&v.timers)
		v.now = t.at
		fn, ch, at := t.fn, t.ch, t.at
		if t.period > 0 {
			// Re-arm the same vtimer so a ticker's Stop handle keeps
			// pointing at the live entry across fires.
			v.seq++
			t.at = at.Add(t.period)
			t.seq = v.seq
			heap.Push(&v.timers, t)
		}
		v.mu.Unlock()
		if ch != nil {
			select {
			case ch <- at:
			default: // ticker semantics: drop unconsumed ticks
			}
		}
		if fn != nil {
			fn()
		}
		v.mu.Lock()
	}
	if target.After(v.now) {
		v.now = target
	}
}
