package topk

import (
	"errors"
	"math"
	"slices"
	"testing"

	"repro/internal/point"
	"repro/internal/workload"
)

// FuzzStores drives core's FuzzBulkBuild stream (workload.DecodeFuzz),
// colliding inserts included, through an Index and a Sharded loaded
// with the same points, each op through Insert/Delete or ApplyBatch as
// the stream says. Every op must return the error a model of the live
// set predicts, so the two backends' guards agree op by op, and every
// 64 ops and at the end both must answer TopK, Count and a QueryBatch
// of the same ranges and k's exactly as point.TopK does, with each
// guard holding exactly the live set.
func FuzzStores(f *testing.F) {
	f.Add([]byte{})
	f.Add(workload.FuzzSeed(12, 1, []byte{1, 7, 0, 0, 3, 0, 2, 9, 9, 1, 7, 0, 5, 7, 0, 2, 9, 1}))
	f.Add(workload.FuzzSeed(200, 2, make([]byte, 90)))
	f.Add(workload.FuzzSeed(512, 3, []byte{4, 1, 1, 5, 2, 2, 0, 3, 3, 8, 4, 4, 6, 2, 2, 1, 2, 2}))
	f.Fuzz(func(t *testing.T, data []byte) {
		pts, ops := workload.DecodeFuzz(data)
		ix := mustLoad(t, smallCfg(), pts)
		sh := mustLoadSharded(t, ShardedConfig{Config: smallCfg(), Shards: 4, MinSplit: 32}, pts)
		stores := []Store{ix, sh}
		live := slices.Clone(pts)
		var model struct{ positions, scores map[float64]bool }
		model.positions, model.scores = map[float64]bool{}, map[float64]bool{}
		for _, p := range live {
			model.positions[p.X], model.scores[p.Score] = true, true
		}
		check := func(stage string) {
			t.Helper()
			if err := sh.CheckInvariants(); err != nil {
				t.Fatalf("%s: Sharded: %v", stage, err)
			}
			if err := ix.guard.Check(ix.ix.Live()); err != nil {
				t.Fatalf("%s: Index: %v", stage, err)
			}
			thr := ix.KThreshold()
			ranges := [][2]float64{{math.Inf(-1), math.Inf(1)}, {-1000, 1000}}
			for i := 0; i+1 < len(pts) && i < 6; i += 2 {
				ranges = append(ranges, [2]float64{min(pts[i].X, pts[i+1].X), max(pts[i].X, pts[i+1].X)})
			}
			for _, st := range stores {
				if st.Len() != len(live) {
					t.Fatalf("%s: %T.Len = %d, want %d", stage, st, st.Len(), len(live))
				}
				var qs []Query
				for _, r := range ranges {
					if got, want := st.Count(r[0], r[1]), len(point.TopK(live, r[0], r[1], len(live))); got != want {
						t.Fatalf("%s: %T.Count(%v, %v) = %d, want %d", stage, st, r[0], r[1], got, want)
					}
					for _, k := range []int{1, 7, thr - 1, thr, 2 * thr} {
						if got, want := st.TopK(r[0], r[1], k), point.TopK(live, r[0], r[1], k); !slices.Equal(got, want) {
							t.Fatalf("%s: %T.TopK(%v, %v, %d) = %v, want %v", stage, st, r[0], r[1], k, got, want)
						}
						qs = append(qs, Query{X1: r[0], X2: r[1], K: k})
					}
				}
				for i, got := range st.QueryBatch(qs) {
					q := qs[i]
					if want := point.TopK(live, q.X1, q.X2, q.K); !slices.Equal(got, want) {
						t.Fatalf("%s: %T.QueryBatch query %d %+v = %v, want %v", stage, st, i, q, got, want)
					}
				}
			}
		}
		check("after the load")

		for i, op := range ops {
			if op.Delete && len(live) > 0 {
				j := op.Pick % len(live)
				p := live[j]
				for _, st := range stores {
					var err error
					if op.Batch {
						err = st.ApplyBatch([]BatchOp{{Delete: true, X: p.X, Score: p.Score}})[0]
					} else if !st.Delete(p.X, p.Score) {
						err = ErrNotFound
					}
					if err != nil {
						t.Fatalf("op %d: %T: delete of live %v: %v", i, st, p, err)
					}
				}
				live = slices.Delete(live, j, j+1)
				delete(model.positions, p.X)
				delete(model.scores, p.Score)
			} else {
				p := op.P
				var want error
				switch {
				case model.positions[p.X]:
					want = ErrDuplicatePosition
				case model.scores[p.Score]:
					want = ErrDuplicateScore
				}
				for _, st := range stores {
					var err error
					if op.Batch {
						err = st.ApplyBatch([]BatchOp{{X: p.X, Score: p.Score}})[0]
					} else {
						err = st.Insert(p.X, p.Score)
					}
					if !errors.Is(err, want) {
						t.Fatalf("op %d: %T: insert of %v = %v, want %v", i, st, p, err, want)
					}
				}
				if want == nil {
					live = append(live, p)
					model.positions[p.X], model.scores[p.Score] = true, true
				}
			}
			if i%64 == 63 {
				check("mid-stream")
			}
		}
		check("after the op stream")
	})
}
