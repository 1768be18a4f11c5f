package merge

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/point"
)

// TestTopKMatchesReference checks the heap merge against the
// brute-force reference over randomized partitions: split a point set
// into contiguous score bands (how the cluster tier partitions) and
// position bands (how the shard tier partitions), merge, and compare.
func TestTopKMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(200)
		pts := make([]point.P, n)
		for i := range pts {
			// Distinct scores by construction.
			pts[i] = point.P{X: rng.Float64() * 1000, Score: float64(i) + rng.Float64()/2}
		}
		rng.Shuffle(n, func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
		parts := 1 + rng.Intn(6)
		lists := make([][]point.P, parts)
		for i, p := range pts {
			lists[i%parts] = append(lists[i%parts], p)
		}
		for i := range lists {
			point.SortByScoreDesc(lists[i])
		}
		for _, k := range []int{0, 1, 3, n / 2, n, n + 10} {
			got := TopK(lists, k)
			want := point.TopK(pts, -1, 2000, k)
			if len(got) == 0 && len(want) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d parts=%d k=%d: merge mismatch\ngot  %v\nwant %v", trial, parts, k, got, want)
			}
		}
	}
}

// TestTopKOrder pins the merge on a hand-built case: interleaved
// lists, an empty list in the middle, a k below the total, and the
// all-empty input, which must merge to nil rather than an empty slice.
func TestTopKOrder(t *testing.T) {
	lists := [][]point.P{
		{{X: 1, Score: 9}, {X: 2, Score: 5}, {X: 3, Score: 1}},
		{{X: 4, Score: 8}, {X: 5, Score: 7}, {X: 6, Score: 6}},
		nil,
		{{X: 7, Score: 10}},
	}
	got := TopK(lists, 5)
	want := []point.P{{X: 7, Score: 10}, {X: 1, Score: 9}, {X: 4, Score: 8}, {X: 5, Score: 7}, {X: 6, Score: 6}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("TopK = %v, want %v", got, want)
	}
	if got := TopK([][]point.P{nil, nil}, 3); got != nil {
		t.Fatalf("all-empty merge = %v, want nil", got)
	}
}

// TestTopKIntoMatchesTopK runs the reusable merger against the TopK
// wrapper over randomized partitions; the two paths share the loop but
// differ in backing management, and both must agree element-for-element.
func TestTopKIntoMatchesTopK(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := NewMerger()
	var dst []point.P
	for trial := 0; trial < 50; trial++ {
		parts := 2 + rng.Intn(5)
		lists := make([][]point.P, parts)
		n := 0
		for i := range lists {
			ln := rng.Intn(40)
			n += ln
			lists[i] = make([]point.P, ln)
			for j := range lists[i] {
				lists[i][j] = point.P{X: rng.Float64(), Score: rng.Float64()}
			}
			point.SortByScoreDesc(lists[i])
		}
		for _, k := range []int{0, 1, n / 2, n, n + 5} {
			// TopK compacts its argument slice in place; give it a copy.
			listsCopy := make([][]point.P, len(lists))
			copy(listsCopy, lists)
			want := TopK(listsCopy, k)
			dst = m.TopKInto(dst, lists, k)
			if len(dst) != len(want) {
				t.Fatalf("trial %d k=%d: TopKInto len %d, TopK len %d", trial, k, len(dst), len(want))
			}
			for i := range dst {
				if dst[i] != want[i] {
					t.Fatalf("trial %d k=%d idx %d: TopKInto %v, TopK %v", trial, k, i, dst[i], want[i])
				}
			}
		}
	}
}

// TestTopKIntoZeroAllocs is the testing half of the //topk:nomalloc
// contract on the merge loop: a warm Merger with adequate dst capacity
// performs zero allocations per merge.
func TestTopKIntoZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const k = 16
	lists := make([][]point.P, 8)
	for i := range lists {
		lists[i] = make([]point.P, 50)
		for j := range lists[i] {
			lists[i][j] = point.P{X: rng.Float64(), Score: rng.Float64()}
		}
		point.SortByScoreDesc(lists[i])
	}
	m := NewMerger()
	dst := make([]point.P, 0, k)
	dst = m.TopKInto(dst, lists, k) // warm the heap backing
	allocs := testing.AllocsPerRun(100, func() {
		dst = m.TopKInto(dst, lists, k)
	})
	if allocs != 0 {
		t.Fatalf("warm TopKInto allocates %.1f times per run; //topk:nomalloc promises 0", allocs)
	}
}

// TestParallelPanic checks a worker panic is re-raised on the caller.
func TestParallelPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("worker panic was not propagated")
		}
	}()
	Parallel([]func(){func() {}, func() { panic("boom") }, func() {}})
}
