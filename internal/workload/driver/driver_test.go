package driver

import (
	"testing"

	topk "repro"
	"repro/internal/workload"
)

func backends(t *testing.T) map[string]topk.Store {
	t.Helper()
	cfg := topk.Config{ForcePolylog: true, PolylogF: 8, PolylogLeafCap: 2048}
	idx, err := topk.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := topk.NewSharded(topk.ShardedConfig{Config: cfg, Shards: 4, MinSplit: 256})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]topk.Store{"index": idx, "sharded": sh}
}

// TestApplyUpdatesAndRunBatched drives the same Mix stream through
// both backends in chunks and then measures a batched query sweep —
// the driver layer must work identically against any Store.
func TestApplyUpdatesAndRunBatched(t *testing.T) {
	for name, st := range backends(t) {
		t.Run(name, func(t *testing.T) {
			gen := workload.NewGen(71)
			ups := gen.Mix(2000, 1200, 0.3, 1e6)
			for i, err := range ApplyUpdates(st, ups, 128) {
				if err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
			}
			wantLen := 0
			for _, u := range ups {
				if u.Delete {
					wantLen--
				} else {
					wantLen++
				}
			}
			if st.Len() != wantLen {
				t.Fatalf("Len = %d, want %d", st.Len(), wantLen)
			}

			qs := gen.Queries(64, 1e6, 0.01, 0.5, 40)
			g := 1 // a bare Index is not concurrency-safe
			if name == "sharded" {
				g = 4
			}
			res := RunBatched(st, g, 256, 16, qs)
			if res.Ops != 256 || res.QPS() <= 0 {
				t.Fatalf("implausible throughput: %+v", res)
			}
		})
	}
}
