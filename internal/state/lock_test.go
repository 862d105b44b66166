package state

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestLedgerLockExcludes holds the ledger lock to mutual exclusion, with
// 2 and 8 goroutines at GOMAXPROCS 1 and 2, under -race the check that
// matters. Each goroutine runs critical sections that read, yield and
// write a counter the lock alone guards; a second goroutine inside one
// would be a race and a lost count. First one goroutine holds the lock
// for 20 ms, far longer than lockYields yields of an otherwise idle
// process take, so every other goroutine gives up yielding and parks in
// sync.Mutex.Lock — and must still not get in before the holder leaves.
func TestLedgerLockExcludes(t *testing.T) {
	for _, procs := range []int{1, 2} {
		for _, callers := range []int{2, 8} {
			t.Run(fmt.Sprintf("procs=%d/callers=%d", procs, callers), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				l, _, _ := newTestLedger(t)
				l.EnableLocking()
				const rounds = 300
				var (
					count   int  // guarded by the ledger lock
					holding bool // guarded by the ledger lock: the long holder is inside
				)
				held := make(chan struct{})
				var wg sync.WaitGroup
				wg.Add(callers)
				for g := range callers {
					go func() {
						defer wg.Done()
						if g == 0 {
							l.lock()
							holding = true
							close(held)
							time.Sleep(20 * time.Millisecond)
							holding = false
							l.unlock()
						} else {
							<-held
						}
						for i := range rounds {
							l.lock()
							if holding {
								t.Errorf("goroutine %d got the lock while the long holder had it", g)
							}
							c := count
							if i%4 == 0 {
								runtime.Gosched()
							}
							count = c + 1
							l.unlock()
						}
					}()
				}
				wg.Wait()
				if want := callers * rounds; count != want {
					t.Errorf("count = %d after %d locked increments", count, want)
				}
			})
		}
	}
}
