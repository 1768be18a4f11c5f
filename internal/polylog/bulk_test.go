package polylog

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/em"
	"repro/internal/point"
)

// height returns the number of levels of t's base tree, meter-free.
func height(t *Tree) int {
	h := 1
	for nd := t.store.Peek(t.root); !nd.leaf; nd = t.store.Peek(nd.kids[0]) {
		h++
	}
	return h
}

// bulk is Bulk over pts in any order: it hands Bulk a copy sorted by
// X and the score order.
func bulk(d *em.Disk, opt Options, pts []point.P) *Tree {
	byX := slices.Clone(pts)
	point.SortByX(byX)
	return Bulk(d, opt, byX, point.ByScoreDesc(pts))
}

// TestBulk builds trees at least three levels deep and checks their
// invariants, Count against brute force and SelectApprox against
// SelectBound. An insert stream then forces leaf and internal splits,
// each checked as it happens.
func TestBulk(t *testing.T) {
	for _, f := range []int{2, 4} {
		for _, leafCap := range []int{8, 64} {
			name := fmt.Sprintf("F=%d/LeafCap=%d", f, leafCap)
			opt := Options{L: 4, F: f, LeafCap: leafCap}
			n := leafCap * f * f * 3
			pts := genPoints(n+n/2, int64(f*leafCap))
			tr := bulk(newDisk(32), opt, pts[:n])
			if h := height(tr); h < 3 {
				t.Fatalf("%s: height %d, want at least 3", name, h)
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			checkQueries(t, name, tr, pts[:n])

			leaves, internals := 0, 0
			for i, p := range pts[n:] {
				before := tr.store.Len()
				beforeH := height(tr)
				tr.Insert(p)
				if tr.store.Len() == before {
					continue
				}
				if height(tr) > beforeH || tr.store.Len() > before+1 {
					internals++
				} else {
					leaves++
				}
				if err := tr.CheckInvariants(); err != nil {
					t.Fatalf("%s: after the split at insert %d: %v", name, i, err)
				}
			}
			if leaves == 0 || internals == 0 {
				t.Fatalf("%s: %d leaf-only and %d internal splits, want both", name, leaves, internals)
			}
			checkQueries(t, name+" after inserts", tr, pts)
		}
	}
}

// TestGSetsStoredOnce: every G set lives only in its parent's
// flgroup, and the tree owns every block it allocates. Over TestBulk's
// shapes, an insert stream that runs until leaves, internal nodes and
// the root have all split, then a delete stream over three quarters of
// the points, which refills G sets, only the node, chunk and flgroup
// stores ever hold blocks (so no per-node pl.gu* B-tree does), the
// invariants hold, and FreeAll returns the disk to zero live blocks.
func TestGSetsStoredOnce(t *testing.T) {
	for _, f := range []int{2, 4} {
		for _, leafCap := range []int{8, 64} {
			name := fmt.Sprintf("F=%d/LeafCap=%d", f, leafCap)
			n := leafCap * f * f * 3
			pts := genPoints(16*n, int64(f*leafCap))
			d := newDisk(32)
			tr := bulk(d, Options{L: 4, F: f, LeafCap: leafCap}, pts[:n])
			check := func(when string) {
				t.Helper()
				checkStores(t, name+" "+when, d)
				if err := tr.CheckInvariants(); err != nil {
					t.Fatalf("%s %s: %v", name, when, err)
				}
			}
			check("after Bulk")

			var leaves, internals, roots int
			for i, p := range pts[n:] {
				if leaves > 0 && internals > 0 && roots > 0 {
					pts = pts[:n+i]
					break
				}
				root, nodes := tr.root, tr.store.Len()
				tr.Insert(p)
				switch {
				case tr.root != root:
					roots++
				case tr.store.Len() > nodes+1:
					internals++
				case tr.store.Len() > nodes:
					leaves++
				default:
					continue
				}
				checkStores(t, fmt.Sprintf("%s after the split at insert %d", name, i), d)
				if tr.store.Len() > nodes+1 {
					check(fmt.Sprintf("after the split at insert %d", i))
				}
			}
			if leaves == 0 || internals == 0 || roots == 0 {
				t.Fatalf("%s: %d leaf, %d internal and %d root splits, want each", name, leaves, internals, roots)
			}
			t.Logf("%s: %d inserts, %d leaf, %d internal and %d root splits", name, len(pts)-n, leaves, internals, roots)
			check("after inserts")

			rng := rand.New(rand.NewSource(int64(n)))
			for i, j := range rng.Perm(len(pts))[:3*len(pts)/4] {
				if !tr.Delete(pts[j]) {
					t.Fatalf("%s: delete %d of %v found nothing", name, i, pts[j])
				}
				if i%(len(pts)/8) == 0 {
					check(fmt.Sprintf("after delete %d", i))
				}
			}
			check("after deletes")

			tr.FreeAll()
			if live := d.Stats().BlocksLive; live != 0 {
				t.Fatalf("%s: %d blocks live after FreeAll", name, live)
			}
		}
	}
}

// checkStores fails unless only the §3.3 tree's node, chunk and
// flgroup stores hold blocks on d.
func checkStores(t *testing.T, when string, d *em.Disk) {
	t.Helper()
	for _, st := range d.PerStore() {
		if st.BlocksLive != 0 && st.Name != "pl.node" && st.Name != "pl.chunk" && !strings.HasPrefix(st.Name, "flg.") {
			t.Fatalf("%s: store %q holds %d blocks; G sets live only in the flgroups", when, st.Name, st.BlocksLive)
		}
	}
}

// checkQueries compares Count with brute force and checks that
// SelectApprox's rank falls in [k, SelectBound()·k], widened by the
// fallback slack TestSelectApproxGuarantee allows.
func checkQueries(t *testing.T, name string, tr *Tree, pts []point.P) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(len(pts))))
	span := float64(4 * len(pts))
	for i := range 120 {
		x1 := rng.Float64() * span
		x2 := x1 + rng.Float64()*span/2
		if got, want := tr.Count(x1, x2), rankIn(pts, x1, x2, -1e18); got != want {
			t.Fatalf("%s query %d: Count=%d want %d", name, i, got, want)
		}
		k := rng.Intn(tr.L()) + 1
		tau, ok := tr.SelectApprox(x1, x2, k)
		if !ok {
			if in := rankIn(pts, x1, x2, -1e18); in >= k {
				t.Fatalf("%s query %d: select failed with %d ≥ k=%d in range", name, i, in, k)
			}
			continue
		}
		if r := rankIn(pts, x1, x2, tau); r < k || r > (tr.SelectBound()+12)*k {
			t.Fatalf("%s query %d: rank %d for k=%d", name, i, r, k)
		}
	}
}

func TestBulkEmptyAndSingle(t *testing.T) {
	for _, pts := range [][]point.P{nil, {{X: 3, Score: 7}}} {
		tr := bulk(newDisk(32), smallOpts(4), pts)
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if tr.Len() != len(pts) || tr.Count(0, 10) != len(pts) {
			t.Fatalf("n=%d: Len=%d Count=%d", len(pts), tr.Len(), tr.Count(0, 10))
		}
	}
}

// TestSelectOKIffCountReaches: over TestBulk's shapes, right after the
// bulk build, again after a stream of random inserts and deletes, and
// once more after deletes that leave a sixteenth of the points, so that
// covered subtrees hold fewer than k of them, SelectApprox reports ok
// exactly when Count(x1, x2) ≥ k, which is why Select needs no Count of
// its own, and every answer Select gives outright is the brute-force
// top k.
func TestSelectOKIffCountReaches(t *testing.T) {
	for _, f := range []int{2, 4} {
		for _, leafCap := range []int{8, 64} {
			name := fmt.Sprintf("F=%d/LeafCap=%d", f, leafCap)
			opt := Options{L: 4, F: f, LeafCap: leafCap}
			n := leafCap * f * f * 3
			pts := genPoints(n+n/2, int64(f*leafCap+1))
			tr := bulk(newDisk(32), opt, pts[:n])
			live, spare := slices.Clone(pts[:n]), pts[n:]
			checkSelectOK(t, name, tr, live, 4*float64(len(pts)))

			rng := rand.New(rand.NewSource(int64(n)))
			for range n {
				if len(spare) > 0 && rng.Intn(2) == 0 {
					tr.Insert(spare[0])
					live, spare = append(live, spare[0]), spare[1:]
					continue
				}
				live = deleteOne(t, tr, live, rng.Intn(len(live)))
			}
			checkSelectOK(t, name+" after updates", tr, live, 4*float64(len(pts)))
			for len(live) > n/16 {
				live = deleteOne(t, tr, live, rng.Intn(len(live)))
			}
			checkSelectOK(t, name+" after deletes", tr, live, 4*float64(len(pts)))
		}
	}
}

// deleteOne deletes live[j] from tr and returns live without it.
func deleteOne(t *testing.T, tr *Tree, live []point.P, j int) []point.P {
	t.Helper()
	if !tr.Delete(live[j]) {
		t.Fatalf("delete of live %v found nothing", live[j])
	}
	live[j] = live[len(live)-1]
	return live[:len(live)-1]
}

// checkSelectOK runs TestSelectOKIffCountReaches' queries over
// [0, span), most of them narrow enough that Count lands near k.
func checkSelectOK(t *testing.T, name string, tr *Tree, pts []point.P, span float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(len(pts))))
	exact, approx := 0, 0
	for i := range 400 {
		x1 := rng.Float64() * span
		x2 := x1 + span*math.Pow(rng.Float64(), 4)
		k := rng.Intn(tr.L()) + 1
		count := tr.Count(x1, x2)
		if _, ok := tr.SelectApprox(x1, x2, k); ok != (count >= k) {
			t.Fatalf("%s query %d [%v, %v]: SelectApprox ok=%v with Count=%d, k=%d", name, i, x1, x2, ok, count, k)
		}
		top, isExact, _, _ := tr.Select(x1, x2, k)
		if !isExact {
			approx++
			continue
		}
		exact++
		if want := point.TopK(pts, x1, x2, k); !slices.Equal(top, want) {
			t.Fatalf("%s query %d [%v, %v] k=%d: Select answered %v, want %v", name, i, x1, x2, k, top, want)
		}
	}
	if exact == 0 || approx == 0 {
		t.Fatalf("%s: %d exact and %d approximate selections, want both", name, exact, approx)
	}
}
