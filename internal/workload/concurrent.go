package workload

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/point"
)

// This file is the concurrent side of the workload harness: a driver
// that measures the sustained query throughput of a serving target at
// increasing goroutine counts. The sequential EM structures cannot be
// driven concurrently; the shard layer exists precisely to change
// that, and this driver quantifies by how much.

// Throughput is the outcome of one concurrency level.
type Throughput struct {
	// Goroutines is the number of concurrent workers.
	Goroutines int
	// Ops is the total operations completed across workers.
	Ops int
	// Elapsed is the wall-clock time for the whole level.
	Elapsed time.Duration
}

// QPS returns operations per second of wall-clock time.
func (t Throughput) QPS() float64 {
	if t.Elapsed <= 0 {
		return 0
	}
	return float64(t.Ops) / t.Elapsed.Seconds()
}

func (t Throughput) String() string {
	return fmt.Sprintf("g=%-3d ops=%-7d elapsed=%-12v qps=%.0f", t.Goroutines, t.Ops, t.Elapsed, t.QPS())
}

// DefaultLevels is the standard concurrency sweep: 1 to 64 goroutines
// in powers of two.
var DefaultLevels = []int{1, 2, 4, 8, 16, 32, 64}

// RunConcurrent executes totalOps calls of do from the given number of
// goroutines, handing out queries round-robin from qs through a shared
// atomic cursor, and reports the measured throughput. do must be safe
// for concurrent use (e.g. a topk.Sharded query; a bare topk.Index is
// not eligible).
func RunConcurrent(goroutines, totalOps int, qs []point.Query, do func(point.Query)) Throughput {
	if goroutines < 1 {
		goroutines = 1
	}
	if totalOps < 1 || len(qs) == 0 {
		return Throughput{Goroutines: goroutines}
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(totalOps) {
					return
				}
				do(qs[i%int64(len(qs))])
			}
		}()
	}
	wg.Wait()
	return Throughput{Goroutines: goroutines, Ops: totalOps, Elapsed: time.Since(start)}
}

// SweepConcurrency runs RunConcurrent once per level and returns the
// per-level results, the table behind the serving-layer scaling
// numbers (queries/sec at 1–64 goroutines).
func SweepConcurrency(levels []int, opsPerLevel int, qs []point.Query, do func(point.Query)) []Throughput {
	if len(levels) == 0 {
		levels = DefaultLevels
	}
	out := make([]Throughput, 0, len(levels))
	for _, g := range levels {
		out = append(out, RunConcurrent(g, opsPerLevel, qs, do))
	}
	return out
}
