package core

import (
	"slices"
	"testing"

	"repro/internal/point"
	"repro/internal/workload"
)

// FuzzBulkBuild bulk-builds an index over fuzzed points, then runs a
// fuzzed insert/delete stream on it. Before and after the stream,
// Query must equal point.TopK for k on both sides of KThreshold, so
// both the §2 tree and the §3.3 reduction answer, and every structure
// must pass CheckInvariants (the PST with token tracking on).
//
// The input is workload.DecodeFuzz's layout. An Index takes only
// points its caller's Guard accepted, so the stream skips inserts that
// collide with a live position or score; the Store-level FuzzStores
// (package topk) drives the same stream, collisions included, through
// both backends' guards.
func FuzzBulkBuild(f *testing.F) {
	f.Add([]byte{})
	f.Add(workload.FuzzSeed(12, 1, []byte{1, 7, 0, 0, 3, 0, 2, 9, 9}))
	f.Add(workload.FuzzSeed(200, 2, make([]byte, 90)))
	f.Add(workload.FuzzSeed(512, 3, []byte{4, 1, 1, 5, 2, 2, 0, 3, 3, 8, 4, 4}))
	f.Fuzz(func(t *testing.T, data []byte) {
		pts, ops := workload.DecodeFuzz(data)
		opt := testOpts()
		opt.PST.TrackTokens = true
		ix := Bulk(newDisk(16), opt, pts)
		live := slices.Clone(pts)
		check := func(stage string) {
			t.Helper()
			if err := ix.CheckInvariants(); err != nil {
				t.Fatalf("%s: %v", stage, err)
			}
			ranges := [][2]float64{{-1e9, 1e9}}
			for i := 0; i+1 < len(pts) && i < 6; i += 2 {
				lo, hi := min(pts[i].X, pts[i+1].X), max(pts[i].X, pts[i+1].X)
				ranges = append(ranges, [2]float64{lo, hi})
			}
			thr := ix.KThreshold()
			for _, r := range ranges {
				for _, k := range []int{1, thr / 2, thr - 1, thr, thr + 1, 2 * thr} {
					got := ix.Query(r[0], r[1], k)
					if want := point.TopK(live, r[0], r[1], k); !slices.Equal(got, want) {
						t.Fatalf("%s: Query(%v, %v, %d) = %v, want %v", stage, r[0], r[1], k, got, want)
					}
				}
			}
		}
		check("after Bulk")

		var guard Guard
		if err := guard.Load(pts); err != nil {
			t.Fatal(err)
		}
		for _, op := range ops {
			if op.Delete && len(live) > 0 {
				i := op.Pick % len(live)
				p := live[i]
				if !ix.Delete(p) {
					t.Fatalf("Delete(%v) of a live point failed", p)
				}
				live = slices.Delete(live, i, i+1)
				guard.Release(p)
				continue
			}
			if guard.Reserve(op.P) != nil {
				continue
			}
			ix.Insert(op.P)
			live = append(live, op.P)
		}
		check("after the op stream")
	})
}
