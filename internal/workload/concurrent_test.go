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

func TestSweepConcurrencyLevels(t *testing.T) {
	qs := NewGen(3).Queries(8, 1e6, 0.01, 0.3, 20)
	var total atomic.Int64
	rs := SweepConcurrency([]int{1, 2, 4}, 200, qs, func(point.Query) { total.Add(1) })
	if len(rs) != 3 {
		t.Fatalf("%d results", len(rs))
	}
	for i, g := range []int{1, 2, 4} {
		if rs[i].Goroutines != g || rs[i].Ops != 200 {
			t.Fatalf("level %d: %+v", i, rs[i])
		}
		if rs[i].String() == "" {
			t.Fatal("empty String")
		}
	}
	if total.Load() != 600 {
		t.Fatalf("total calls %d, want 600", total.Load())
	}
	if def := SweepConcurrency(nil, 10, qs, func(point.Query) {}); len(def) != len(DefaultLevels) {
		t.Fatalf("default sweep ran %d levels", len(def))
	}
}
