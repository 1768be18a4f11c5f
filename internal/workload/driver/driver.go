// Package driver is the topk-facing side of the workload harness:
// generators live in the parent package (which stays free of any topk
// dependency so internal tests across the repository can use it), and
// everything here is written purely against the topk.Store interface —
// the same driver code measures the sequential Index, the concurrent
// Sharded fleet, or any future backend behind Store.
package driver

import (
	"sync"
	"sync/atomic"
	"time"

	topk "repro"
	"repro/internal/workload"
)

// RunTopK measures per-call read throughput: totalOps TopK calls drawn
// round-robin from qs, issued from the given number of goroutines
// (goroutines > 1 requires a concurrency-safe Store — Sharded or
// Cluster). It is the per-call twin of RunBatched, so the two compare
// directly; being Store-only, the same driver measures a local fleet
// or a network gateway.
func RunTopK(st topk.Store, goroutines, totalOps int, qs []topk.Query) workload.Throughput {
	return workload.RunConcurrent(goroutines, totalOps, qs, func(q topk.Query) {
		st.TopK(q.X1, q.X2, q.K)
	})
}

// RunBatched measures batched read throughput: totalOps queries are
// drawn round-robin from qs, issued as QueryBatch calls of batchSize
// from the given number of goroutines (goroutines > 1 requires a
// concurrency-safe Store such as Sharded). The returned Throughput
// counts individual queries (not batches), so it compares directly
// with workload.RunConcurrent's one-query-per-op numbers — the delta
// is what the single-lock-acquisition batch path buys.
func RunBatched(st topk.Store, goroutines, totalOps, batchSize int, qs []topk.Query) workload.Throughput {
	if goroutines < 1 {
		goroutines = 1
	}
	if batchSize < 1 {
		batchSize = 1
	}
	if totalOps < 1 || len(qs) == 0 {
		return workload.Throughput{Goroutines: goroutines}
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			batch := make([]topk.Query, 0, batchSize)
			for {
				lo := next.Add(int64(batchSize)) - int64(batchSize)
				if lo >= int64(totalOps) {
					return
				}
				hi := lo + int64(batchSize)
				if hi > int64(totalOps) {
					hi = int64(totalOps)
				}
				batch = batch[:0]
				for i := lo; i < hi; i++ {
					batch = append(batch, qs[i%int64(len(qs))])
				}
				st.QueryBatch(batch)
			}
		}()
	}
	wg.Wait()
	return workload.Throughput{Goroutines: goroutines, Ops: totalOps, Elapsed: time.Since(start)}
}
