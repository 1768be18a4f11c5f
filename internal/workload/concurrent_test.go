package workload

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/point"
)

func TestRunConcurrentCompletesAllOps(t *testing.T) {
	gen := NewGen(1)
	qs := gen.Queries(16, 1e6, 0.01, 0.5, 50)
	for _, g := range []int{1, 3, 8} {
		var calls atomic.Int64
		seen := make(map[int]int)
		var mu sync.Mutex
		res := RunConcurrent(g, 500, qs, func(q point.Query) {
			calls.Add(1)
			mu.Lock()
			seen[q.K]++
			mu.Unlock()
		})
		if calls.Load() != 500 {
			t.Fatalf("g=%d: %d calls, want 500", g, calls.Load())
		}
		if res.Goroutines != g || res.Ops != 500 {
			t.Fatalf("g=%d: result %+v", g, res)
		}
		if res.Elapsed <= 0 || res.QPS() <= 0 {
			t.Fatalf("g=%d: non-positive timing %+v", g, res)
		}
		if len(seen) == 0 {
			t.Fatal("no queries dispatched")
		}
	}
}

func TestRunConcurrentDegenerate(t *testing.T) {
	qs := NewGen(2).Queries(4, 1e6, 0.1, 0.2, 10)
	if res := RunConcurrent(0, 0, qs, func(point.Query) {}); res.Ops != 0 || res.Goroutines != 1 {
		t.Fatalf("degenerate: %+v", res)
	}
	res := RunConcurrent(4, 100, nil, func(point.Query) { t.Fatal("called with no queries") })
	if res.Ops != 0 {
		t.Fatalf("no queries: %+v", res)
	}
	if res.QPS() != 0 {
		t.Fatal("QPS of zero-op run")
	}
}
