package btree

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/em"
)

// TestBulk builds trees at and around the sizes where a bulk build
// gains a level, plus random sizes, and checks shape, occupancy and
// contents. Each tree then takes a seeded insert/delete stream that a
// sorted-slice model mirrors, so the update paths start from a bulk
// shape whose nodes are full.
func TestBulk(t *testing.T) {
	for _, b := range []int{8, 16, 64} {
		d := em.NewDisk(em.Config{B: b, M: 8 * b})
		probe := New(d, "probe")
		lc, kc := probe.leafCap, probe.kidCap
		sizes := []int{0, 1, lc, lc + 1, lc * kc, lc*kc + 1}
		heights := []int{1, 1, 1, 2, 2, 3}
		rng := rand.New(rand.NewSource(int64(b)))
		for range 6 {
			sizes = append(sizes, rng.Intn(lc*kc*kc))
		}
		for i, n := range sizes {
			keys := make([]float64, n)
			for j := range keys {
				keys[j] = float64(2 * j) // odd keys are free for inserts
			}
			tr := Bulk(d, "bulk", keys)
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("B=%d n=%d: %v", b, n, err)
			}
			if i < len(heights) && tr.Height() != heights[i] {
				t.Fatalf("B=%d n=%d: height %d, want %d", b, n, tr.Height(), heights[i])
			}
			if tr.Len() != n || !slices.Equal(tr.Keys(), keys) {
				t.Fatalf("B=%d n=%d: keys differ from the input", b, n)
			}

			model := slices.Clone(keys)
			for op := range 300 {
				k := float64(rng.Intn(2*n + 40))
				idx, present := slices.BinarySearch(model, k)
				if rng.Intn(2) == 0 {
					if !present {
						tr.Insert(k)
						model = slices.Insert(model, idx, k)
					}
				} else {
					if got := tr.Delete(k); got != present {
						t.Fatalf("B=%d n=%d op %d: Delete(%v)=%v, model says %v", b, n, op, k, got, present)
					}
					if present {
						model = slices.Delete(model, idx, idx+1)
					}
				}
				if got, want := tr.CountGE(k), len(model)-idx; got != want {
					t.Fatalf("B=%d n=%d op %d: CountGE(%v)=%d, want %d", b, n, op, k, got, want)
				}
				if op%25 == 0 {
					if err := tr.CheckInvariants(); err != nil {
						t.Fatalf("B=%d n=%d op %d: %v", b, n, op, err)
					}
				}
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("B=%d n=%d after stream: %v", b, n, err)
			}
			if !slices.Equal(tr.Keys(), model) {
				t.Fatalf("B=%d n=%d: keys differ from the model after the stream", b, n)
			}
			for r := 1; r <= len(model); r += max(1, len(model)/7) {
				if got, ok := tr.SelectDesc(r); !ok || got != model[len(model)-r] {
					t.Fatalf("B=%d n=%d: SelectDesc(%d)=%v, want %v", b, n, r, got, model[len(model)-r])
				}
			}
			tr.Free()
		}
	}
}

func TestBulkRejectsUnsortedInput(t *testing.T) {
	for _, keys := range [][]float64{{1, 3, 2}, {1, 2, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Bulk(%v) accepted", keys)
				}
			}()
			Bulk(em.NewDisk(em.Config{B: 16, M: 128}), "t", keys)
		}()
	}
}
