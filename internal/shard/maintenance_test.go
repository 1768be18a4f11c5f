package shard

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/em"
	"repro/internal/point"
	"repro/internal/workload"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal(msg)
}

// TestMaintenanceLoopCoalescesStrandedIdleFleet is the acceptance test
// for the background loop: a fleet whose tiny shard nothing inline
// will ever repair — no delete lands on it, so no inline hook
// re-examines it — must coalesce from the timer-driven pass alone,
// with zero further writes, and keep answering exactly like before.
func TestMaintenanceLoopCoalescesStrandedIdleFleet(t *testing.T) {
	opt := Options{
		Disk:                em.Config{B: 64},
		Core:                core.Options{Regime: core.RegimePolylog, PolylogF: 8, PolylogLeafCap: 2048},
		MaxShards:           4,
		MinSplit:            256,
		MaintenanceInterval: 2 * time.Millisecond,
	}
	// Shard sizes 40 / 400 / 600 / 600: shard 0 is far below the merge
	// floor (128), and coalescing it with shard 1 (combined 440) passes
	// the hysteresis veto (440 < Skew·fair = 820) — the fleet is
	// mergeable, but idle: nothing ever triggers the inline hooks.
	groups := [][]point.P{
		band(40, 0, 10, 0),
		band(400, 100, 100, 1000),
		band(600, 300, 100, 10000),
		band(600, 500, 100, 20000),
	}
	var all []point.P
	for _, g := range groups {
		all = append(all, g...)
	}
	r := mkRouter(opt, groups)
	defer r.Close()
	epoch0 := r.Epoch()

	waitFor(t, 10*time.Second, func() bool { return r.NumShards() == 3 },
		"maintenance loop never coalesced the stranded shard")
	if r.Merges() == 0 {
		t.Fatal("Merges() = 0 after maintenance coalesce")
	}
	if r.Epoch() <= epoch0 {
		t.Fatalf("epoch did not advance across the merge: %d -> %d", epoch0, r.Epoch())
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The pass must converge: 3 balanced-enough shards, no further
	// merges or splits on subsequent ticks.
	shards, merges := r.NumShards(), r.Merges()
	time.Sleep(20 * time.Millisecond)
	if r.NumShards() != shards || r.Merges() != merges || r.Splits() != 0 {
		t.Fatalf("maintenance did not converge: %s (merges %d->%d, splits %d)",
			r, merges, r.Merges(), r.Splits())
	}
	// Answers stay byte-identical to the oracle over the same points.
	rng := rand.New(rand.NewSource(1))
	gen := workload.NewGen(2)
	qs := gen.Queries(60, 700, 0.01, 0.9, 150)
	qs = append(qs, straddlers(r, 700, 150, rng)...)
	checkQueries(t, r, all, qs)

	// Close is idempotent, and the loop really stops: no lifecycle
	// activity after Close even if the fleet is made mergeable again.
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestMaintenanceSplitsSkewedIdleFleet: the loop's skew check is the
// split-side mirror — a shard left overloaded (e.g. because the
// insert burst that overloaded it raced the cap and the fleet later
// shrank) splits on the next tick without waiting for another insert.
func TestMaintenanceSplitsSkewedIdleFleet(t *testing.T) {
	opt := Options{
		Disk:      em.Config{B: 64},
		Core:      core.Options{Regime: core.RegimePolylog, PolylogF: 8, PolylogLeafCap: 2048},
		MaxShards: 4,
		MinSplit:  256,
		// No background loop: drive Maintain synchronously.
	}
	// 1400 / 200 / 200: total 1800, fair 450; shard 0 holds > 2·fair.
	r := mkRouter(opt, [][]point.P{
		band(1400, 0, 100, 0),
		band(200, 100, 100, 10000),
		band(200, 200, 100, 20000),
	})
	defer r.Close()
	r.Maintain()
	if r.Splits() == 0 {
		t.Fatalf("Maintain did not split the skewed shard: %s", r)
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestMaintenanceStaticMergeFloor: Maintain merges on the static floor
// MinSplit/2 and nothing else. The 1-point shards coalesce, but the
// 40-point shard [−Inf, 100) sits above the floor (32) and above 1/skew
// of the fair share, so it is not underloaded and must keep its cut,
// however skeleton-heavy the 1-point shards make the fleet look.
func TestMaintenanceStaticMergeFloor(t *testing.T) {
	opt := Options{
		Disk:      em.Config{B: 64},
		Core:      core.Options{Regime: core.RegimePolylog, PolylogF: 8, PolylogLeafCap: 2048},
		MaxShards: 6,
		MinSplit:  64,
	}
	groups := [][]point.P{
		band(40, 0, 100, 0),
		band(40, 100, 100, 1000),
		band(300, 200, 100, 2000),
		band(1, 300, 10, 10000),
		band(1, 310, 10, 10001),
		band(1, 320, 10, 10002),
	}
	var all []point.P
	for _, g := range groups {
		all = append(all, g...)
	}
	r := mkRouter(opt, groups)
	defer r.Close()
	if fair := float64(len(all)) / float64(opt.MaxShards); 40 <= r.opt.MinMerge || 40 <= fair/skew {
		t.Fatalf("precondition: 40 points must exceed the floor %d and fair/skew %.1f", r.opt.MinMerge, fair/skew)
	}
	r.Maintain()
	if r.Merges() == 0 {
		t.Fatalf("Maintain did not merge the 1-point shards: %s", r)
	}
	if !slices.Contains(r.Boundaries(), 100) {
		t.Fatalf("Maintain merged the 40-point shard [-Inf, 100): %s", r)
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	qs := workload.NewGen(4).Queries(40, 400, 0.01, 0.9, 60)
	checkQueries(t, r, all, append(qs, straddlers(r, 400, 60, rng)...))
}

// TestMaintenanceConcurrentChurn is the randomized concurrent
// differential for the snapshot read path: ApplyBatch writers and a
// Rebalance goroutine race QueryBatch readers while the background
// maintenance loop sweeps the fleet — all under -race — and the final
// state must match the brute-force oracle byte for byte.
func TestMaintenanceConcurrentChurn(t *testing.T) {
	opt := testOptions(8)
	opt.MaintenanceInterval = time.Millisecond
	base := workload.NewGen(81).Uniform(2000, 1e6)
	r := mustBulk(t, opt, base, 4)
	defer r.Close()

	const writers = 4
	survivors := make([][]point.P, writers)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 3; i++ {
			r.Rebalance(4 + i)
		}
	}()
	var wg chan struct{} = make(chan struct{}, writers+4)
	for w := 0; w < writers; w++ {
		go func(w int) {
			defer func() { wg <- struct{}{} }()
			// Each writer owns the position band [w, w+1)·1e6/writers and
			// a disjoint score band, so updates never collide.
			gen := workload.NewGen(int64(300 + w))
			lo := float64(w) * 1e6 / writers
			for round := 0; round < 6; round++ {
				var ops []point.Op
				for _, p := range gen.Uniform(40, 1e6/writers) {
					ops = append(ops, point.Op{X: lo + p.X, Score: float64(w) + p.Score/2})
				}
				for i, err := range r.ApplyBatch(ops) {
					if err != nil {
						t.Errorf("concurrent insert %d: %v", i, err)
						return
					}
				}
				var dels []point.Op
				for i, op := range ops {
					if i%2 == 0 {
						dels = append(dels, point.Op{Delete: true, X: op.X, Score: op.Score})
					} else {
						survivors[w] = append(survivors[w], op.Point())
					}
				}
				for i, err := range r.ApplyBatch(dels) {
					if err != nil {
						t.Errorf("concurrent delete %d: %v", i, err)
						return
					}
				}
			}
		}(w)
	}
	for g := 0; g < 4; g++ {
		go func(g int) {
			defer func() { wg <- struct{}{} }()
			gen := workload.NewGen(int64(400 + g))
			for i := 0; i < 25; i++ {
				qs := gen.Queries(8, 1e6, 0.001, 0.3, 50)
				for j, res := range r.QueryBatch(qs) {
					if len(res) > qs[j].K {
						t.Errorf("answer longer than k: %d > %d", len(res), qs[j].K)
						return
					}
					for m := range res {
						if m > 0 && res[m].Score > res[m-1].Score {
							t.Error("QueryBatch out of order under concurrency")
							return
						}
						if res[m].X < qs[j].X1 || res[m].X > qs[j].X2 {
							t.Error("QueryBatch result outside range")
							return
						}
					}
				}
				r.Stats()
				r.Boundaries()
				r.NumShards()
			}
		}(g)
	}
	for i := 0; i < writers+4; i++ {
		<-wg
	}
	<-done
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Quiesced: the surviving point set is deterministic, so the final
	// router must answer exactly like the oracle.
	live := append([]point.P(nil), base...)
	for _, s := range survivors {
		live = append(live, s...)
	}
	rng := rand.New(rand.NewSource(82))
	gen := workload.NewGen(83)
	qs := gen.Queries(50, 1e6, 0.001, 0.8, 150)
	qs = append(qs, straddlers(r, 1e6, 150, rng)...)
	checkQueries(t, r, live, qs)
}
