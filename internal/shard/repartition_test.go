package shard

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/point"
	"repro/internal/workload"
)

// layout is where a re-partition places one shard: its range [lo, hi)
// and the pool size of its disk in words.
type layout struct {
	lo, hi float64
	m      int
}

// quantiles cuts the x-sorted points of [lo, hi) into want
// equal-quantile shards on pools of m words.
func quantiles(sorted []point.P, lo, hi float64, want, m int) []layout {
	out := make([]layout, want)
	for i := range out {
		out[i] = layout{lo: lo, hi: hi, m: m}
		if i > 0 {
			out[i].lo = sorted[i*len(sorted)/want].X
		}
		if i < want-1 {
			out[i].hi = sorted[(i+1)*len(sorted)/want].X
		}
	}
	return out
}

// within returns the points of live inside [lo, hi), sorted by x.
func within(live []point.P, lo, hi float64) []point.P {
	var out []point.P
	for _, p := range live {
		if lo <= p.X && p.X < hi {
			out = append(out, p)
		}
	}
	point.SortByX(out)
	return out
}

// poolM reads the pool size a shard's disk was built with. em keeps
// its Config unexported, so the test reads the field by reflection.
func poolM(s *shard) int {
	return int(reflect.ValueOf(s.d).Elem().FieldByName("cfg").FieldByName("M").Int())
}

// checkLayout compares every shard with want: its range, its points
// (the live points inside the range) and its pool size.
func checkLayout(t *testing.T, stage string, r *Router, live []point.P, want []layout) {
	t.Helper()
	shards := r.snapshot().shards
	if len(shards) != len(want) {
		t.Fatalf("%s: %d shards, want %d", stage, len(shards), len(want))
	}
	for i, s := range shards {
		w := want[i]
		if s.lo != w.lo || s.hi != w.hi {
			t.Fatalf("%s: shard %d covers [%v, %v), want [%v, %v)", stage, i, s.lo, s.hi, w.lo, w.hi)
		}
		if m := poolM(s); m != w.m {
			t.Fatalf("%s: shard %d pool M = %d, want %d", stage, i, m, w.m)
		}
		got := s.live()
		point.SortByX(got)
		if in := within(live, w.lo, w.hi); !slices.Equal(got, in) {
			t.Fatalf("%s: shard %d holds %d points, want the %d live points of its range", stage, i, len(got), len(in))
		}
	}
}

// TestRepartitionLayout pins where Bulk, a split, a merge and Rebalance
// put the fleet: equal-quantile cuts of the sorted live points over the
// replaced shards' range, on pools of the fleet M divided by the shard
// count after the change. Shards the change does not replace keep
// their range, points and pool.
func TestRepartitionLayout(t *testing.T) {
	const M = 64 * 96
	opt := testOptions(4) // MinSplit 256, so the merge floor is 128
	opt.Disk.M = M
	live := workload.NewGen(61).Uniform(1200, 1e6)
	r := mustBulk(t, opt, live, 3)
	defer r.Close()
	inf := math.Inf(1)
	want := quantiles(within(live, -inf, inf), -inf, inf, 3, M/3)
	checkLayout(t, "bulk", r, live, want)

	// Split: shard 0 trips the policy once it holds more than twice the
	// fair share n/4, and is cut at the median of its points.
	c1 := want[0].hi
	for i := 0; r.NumShards() == 3; i++ {
		if i == 2000 {
			t.Fatal("shard 0 never split")
		}
		p := point.P{X: -1 - float64(i), Score: 2 + float64(i)}
		if err := r.Insert(p); err != nil {
			t.Fatal(err)
		}
		live = append(live, p)
	}
	left := within(live, -inf, c1)
	cut := left[len(left)/2].X
	want = []layout{{-inf, cut, M / 4}, {cut, c1, M / 4}, want[1], want[2]}
	checkLayout(t, "split", r, live, want)

	// Merge: emptying the last shard underloads it, and it coalesces
	// with its only neighbor over their union range.
	for _, p := range within(live, want[3].lo, inf) {
		if r.NumShards() < 4 {
			break
		}
		if !r.Delete(p) {
			t.Fatalf("Delete(%v) found nothing", p)
		}
		live = slices.DeleteFunc(live, func(q point.P) bool { return q == p })
	}
	want = []layout{want[0], want[1], {want[2].lo, inf, M / 3}}
	checkLayout(t, "merge", r, live, want)

	for _, target := range []int{2, 0} {
		r.Rebalance(target)
		n := target
		if n == 0 {
			n = opt.MaxShards
		}
		checkLayout(t, "rebalance", r, live, quantiles(within(live, -inf, inf), -inf, inf, n, M/n))
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
