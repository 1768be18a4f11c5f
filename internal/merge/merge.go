// Package merge holds the parallel runner of the serving stack's
// fan-out layers: it executes per-partition work, one goroutine each,
// and re-raises a worker's panic on the caller once all have finished.
//
// internal/cluster runs its counts, writes and admin fan-outs through
// it, and internal/shard its shard builds, batched updates and counts.
// Neither tier merges sorted answers: internal/shard selects the k
// highest of its shards' unsorted answers once and sorts only those,
// and internal/cluster partitions the SCORE axis, so its bands'
// answers concatenate in band order.
package merge

import (
	"sync"
	"sync/atomic"
)

// panicBox carries a recovered panic value across goroutines with a
// single concrete type, as atomic.Value requires.
type panicBox struct{ v any }

// Parallel runs each fn in its own goroutine and waits for all.
// A panic inside a worker (an internal invariant violation — contract
// violations on caller input are rejected with errors before reaching
// here) is captured and re-raised on the caller's goroutine after
// every worker finishes — an unrecovered goroutine panic would kill
// the whole process, and locks held by workers are released by the
// workers' own defers.
func Parallel(fns []func()) {
	if len(fns) == 1 {
		fns[0]()
		return
	}
	var wg sync.WaitGroup
	var pv atomic.Value
	for _, f := range fns {
		wg.Add(1)
		go func(f func()) {
			defer wg.Done()
			defer func() {
				if v := recover(); v != nil {
					pv.CompareAndSwap(nil, &panicBox{v})
				}
			}()
			f()
		}(f)
	}
	wg.Wait()
	if b := pv.Load(); b != nil {
		panic(b.(*panicBox).v)
	}
}
