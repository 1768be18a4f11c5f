package shard

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/em"
	"repro/internal/point"
	"repro/internal/workload"
)

// testOptions keeps shards in the polylog regime with small tree-shape
// parameters, matching the rest of the test suite at test-sized n.
func testOptions(maxShards int) Options {
	return Options{
		Disk:      em.Config{B: 64},
		Core:      core.Options{Regime: core.RegimePolylog, PolylogF: 8, PolylogLeafCap: 2048},
		MaxShards: maxShards,
		MinSplit:  256,
	}
}

// mustBulk is Bulk for inputs that satisfy the contract.
func mustBulk(t testing.TB, opt Options, pts []point.P, shards int) *Router {
	t.Helper()
	r, err := Bulk(opt, pts, shards)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// checkQueries compares the router against the brute-force oracle on
// the given queries, requiring exactly equal (ordered) answers.
func checkQueries(t *testing.T, r *Router, all []point.P, qs []point.Query) {
	t.Helper()
	for _, q := range qs {
		got := r.TopK(q.X1, q.X2, q.K)
		want := point.TopK(all, q.X1, q.X2, q.K)
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("TopK(%v,%v,%d):\n got %v\nwant %v", q.X1, q.X2, q.K, got, want)
		}
		if gc, wc := r.Count(q.X1, q.X2), len(point.TopK(all, q.X1, q.X2, len(all))); gc != wc {
			t.Fatalf("Count(%v,%v): got %d want %d", q.X1, q.X2, gc, wc)
		}
	}
}

// straddlers builds queries guaranteed to cross every cut position.
func straddlers(r *Router, xMax float64, maxK int, rng *rand.Rand) []point.Query {
	var qs []point.Query
	for _, cut := range r.Boundaries() {
		w := rng.Float64() * xMax / 4
		qs = append(qs,
			point.Query{X1: cut - w, X2: cut + w, K: rng.Intn(maxK) + 1},
			point.Query{X1: cut, X2: cut + w, K: rng.Intn(maxK) + 1},
			point.Query{X1: cut - w, X2: cut, K: rng.Intn(maxK) + 1},
		)
	}
	// One query spanning every shard at once.
	qs = append(qs, point.Query{X1: math.Inf(-1), X2: math.Inf(1), K: maxK})
	return qs
}

func TestBulkDifferentialOracle(t *testing.T) {
	for _, shards := range []int{1, 2, 3, 5, 8} {
		gen := workload.NewGen(int64(100 + shards))
		pts := gen.Uniform(4000, 1e6)
		r := mustBulk(t, testOptions(shards), pts, shards)
		if got := r.NumShards(); got != shards {
			t.Fatalf("NumShards = %d, want %d", got, shards)
		}
		if r.Len() != len(pts) {
			t.Fatalf("Len = %d, want %d", r.Len(), len(pts))
		}
		rng := rand.New(rand.NewSource(int64(shards)))
		qs := gen.Queries(60, 1e6, 0.001, 0.9, 200)
		qs = append(qs, straddlers(r, 1e6, 200, rng)...)
		checkQueries(t, r, pts, qs)
		if err := r.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestClusteredDifferentialOracle(t *testing.T) {
	// Clustered data makes quantile cuts land inside hot regions, so
	// boundary-straddling queries dominate.
	gen := workload.NewGen(7)
	pts := gen.Clustered(5000, 4, 1e6)
	r := mustBulk(t, testOptions(6), pts, 6)
	rng := rand.New(rand.NewSource(8))
	qs := gen.Queries(80, 1e6, 0.0005, 0.6, 300)
	qs = append(qs, straddlers(r, 1e6, 300, rng)...)
	checkQueries(t, r, pts, qs)
}

func TestIncrementalUpdatesAndSplit(t *testing.T) {
	gen := workload.NewGen(11)
	r := New(testOptions(8))
	var live []point.P
	for _, p := range gen.Uniform(6000, 1e6) {
		r.Insert(p)
		live = append(live, p)
	}
	if r.NumShards() < 2 {
		t.Fatalf("no splits after 6000 uniform inserts: %s", r)
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Delete a third, uniformly.
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 2000; i++ {
		j := rng.Intn(len(live))
		if !r.Delete(live[j]) {
			t.Fatalf("Delete(%v) not found", live[j])
		}
		live[j] = live[len(live)-1]
		live = live[:len(live)-1]
	}
	if r.Delete(point.P{X: -12345, Score: -1}) {
		t.Fatal("deleted a point that was never inserted")
	}
	qs := gen.Queries(60, 1e6, 0.001, 0.8, 150)
	qs = append(qs, straddlers(r, 1e6, 150, rng)...)
	checkQueries(t, r, live, qs)
}

func TestSkewedInsertsSplitHotShard(t *testing.T) {
	opt := testOptions(8)
	r := New(opt)
	gen := workload.NewGen(13)
	// Everything lands in one narrow region: the covering shard must
	// keep splitting until the cap.
	pts := gen.Uniform(8000, 100.0)
	for _, p := range pts {
		r.Insert(p)
	}
	if got := r.NumShards(); got < 4 {
		t.Fatalf("skewed load produced only %d shards: %s", got, r)
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(14))
	checkQueries(t, r, pts, straddlers(r, 100.0, 100, rng))
}

func TestRebalancePreservesContents(t *testing.T) {
	gen := workload.NewGen(15)
	pts := gen.Clustered(4000, 2, 1e6)
	r := mustBulk(t, testOptions(8), pts, 2)
	before := r.TopK(math.Inf(-1), math.Inf(1), len(pts))
	r.Rebalance(8)
	if got := r.NumShards(); got != 8 {
		t.Fatalf("NumShards after Rebalance(8) = %d", got)
	}
	after := r.TopK(math.Inf(-1), math.Inf(1), len(pts))
	if !reflect.DeepEqual(before, after) {
		t.Fatal("Rebalance changed contents")
	}
	if r.Len() != len(pts) {
		t.Fatalf("Len after rebalance = %d, want %d", r.Len(), len(pts))
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(16))
	checkQueries(t, r, pts, straddlers(r, 1e6, 200, rng))

	// Rebalance with a nonsense target defaults to MaxShards instead of
	// collapsing the fleet to one shard.
	r.Rebalance(0)
	if got := r.NumShards(); got != 8 {
		t.Fatalf("NumShards after Rebalance(0) = %d, want MaxShards 8", got)
	}
}

func TestApplyBatchMatchesSequential(t *testing.T) {
	gen := workload.NewGen(17)
	base := gen.Uniform(2000, 1e6)
	r := mustBulk(t, testOptions(4), base, 4)
	seq := append([]point.P(nil), base...)

	ops := gen.Mix(1500, 1000, 0.4, 1e6)
	res := r.ApplyBatch(ops)
	for i, u := range ops {
		if u.Delete {
			for j, p := range seq {
				if p == u.Point() {
					seq = append(seq[:j], seq[j+1:]...)
					break
				}
			}
			if res[i] != nil {
				t.Fatalf("op %d: batch delete of live point: %v", i, res[i])
			}
		} else {
			seq = append(seq, u.Point())
			if res[i] != nil {
				t.Fatalf("op %d: insert: %v", i, res[i])
			}
		}
	}
	if r.Len() != len(seq) {
		t.Fatalf("Len = %d, want %d", r.Len(), len(seq))
	}
	rng := rand.New(rand.NewSource(18))
	qs := gen.Queries(50, 1e6, 0.001, 0.8, 150)
	qs = append(qs, straddlers(r, 1e6, 150, rng)...)
	checkQueries(t, r, seq, qs)
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentBatchesAndQueries is the -race workhorse: writers
// apply batches over disjoint position bands while readers run TopK,
// Count and Stats, and a rebalancer re-partitions mid-flight.
func TestConcurrentBatchesAndQueries(t *testing.T) {
	const writers = 4
	r := mustBulk(t, testOptions(8), workload.NewGen(19).Uniform(2000, 1e6), 4)

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each writer owns the position band [w, w+1)·1e6/writers and
			// a disjoint score band, so updates never collide.
			gen := workload.NewGen(int64(100 + w))
			lo := float64(w) * 1e6 / writers
			for round := 0; round < 6; round++ {
				var ops []point.Op
				for _, p := range gen.Uniform(40, 1e6/writers) {
					ops = append(ops, point.Op{
						X:     lo + p.X,
						Score: float64(w) + p.Score/2, // bands: [w, w+0.5)
					})
				}
				res := r.ApplyBatch(ops)
				for i := range res {
					if res[i] != nil {
						t.Errorf("concurrent insert: %v", res[i])
						return
					}
				}
				// Delete half of what this writer just inserted.
				var dels []point.Op
				for i, op := range ops {
					if i%2 == 0 {
						dels = append(dels, point.Op{Delete: true, X: op.X, Score: op.Score})
					}
				}
				res = r.ApplyBatch(dels)
				for i := range res {
					if res[i] != nil {
						t.Errorf("concurrent delete of own point: %v", res[i])
						return
					}
				}
			}
		}(w)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(200 + g)))
			for i := 0; i < 40; i++ {
				x1 := rng.Float64() * 9e5
				got := r.TopK(x1, x1+1e5, 20)
				for j := 1; j < len(got); j++ {
					if got[j].Score > got[j-1].Score {
						t.Error("TopK out of order under concurrency")
						return
					}
				}
				r.Count(x1, x1+2e5)
				r.Stats()
				r.Len()
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			r.Rebalance(4 + i)
		}
	}()
	wg.Wait()
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestStatsAggregationAcrossSplits(t *testing.T) {
	r := mustBulk(t, testOptions(4), workload.NewGen(21).Uniform(3000, 1e6), 4)
	s := r.Stats()
	if s.Writes == 0 || s.BlocksLive == 0 {
		t.Fatalf("empty aggregate stats after bulk load: %+v", s)
	}
	// Rebalancing retires all four disks; transfer history must survive.
	r.Rebalance(2)
	s2 := r.Stats()
	if s2.Writes < s.Writes {
		t.Fatalf("writes went backwards across rebalance: %d -> %d", s.Writes, s2.Writes)
	}
	r.ResetStats()
	s3 := r.Stats()
	if s3.Reads != 0 || s3.Writes != 0 {
		t.Fatalf("ResetStats left transfers: %+v", s3)
	}
	if s3.BlocksLive == 0 {
		t.Fatal("ResetStats dropped space gauges")
	}
	r.DropCache()
	r.TopK(0, 1e6, 50)
	if r.Stats().Reads == 0 {
		t.Fatal("cold query charged no reads")
	}
}

// TestStatsResetNotTorn: Stats holds no topology lock, so its
// serialization against ResetStats (statsMu) must prevent a report
// from summing old retired history with half-zeroed meters. With no
// other traffic, every report must show either the full pre-reset
// write count or zero — any value strictly between is a torn read.
func TestStatsResetNotTorn(t *testing.T) {
	r := mustBulk(t, testOptions(4), workload.NewGen(25).Uniform(3000, 1e6), 4)
	r.Rebalance(4) // builds retired history, so a tear has two sources to mix
	full := r.Stats().Writes
	if full == 0 {
		t.Fatal("no writes after bulk load + rebalance")
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < 200; i++ {
				if w := r.Stats().Writes; w != full && w != 0 {
					t.Errorf("torn Stats: writes = %d, want %d or 0", w, full)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		r.ResetStats()
	}()
	close(start)
	wg.Wait()
	if got := r.Stats().Writes; got != 0 {
		t.Fatalf("writes after reset = %d", got)
	}
}

func TestEmptyAndDegenerate(t *testing.T) {
	r := New(testOptions(4))
	if got := r.TopK(0, 1, 5); got != nil {
		t.Fatalf("TopK on empty = %v", got)
	}
	if got := r.Count(0, 1); got != 0 {
		t.Fatalf("Count on empty = %d", got)
	}
	r.Insert(point.P{X: 5, Score: 1})
	if got := r.TopK(10, 0, 5); got != nil {
		t.Fatalf("inverted range = %v", got)
	}
	if got := r.TopK(0, 10, 0); got != nil {
		t.Fatalf("k=0 = %v", got)
	}
	if got := len(r.TopK(math.Inf(-1), math.Inf(1), 10)); got != 1 {
		t.Fatalf("full-range TopK length = %d", got)
	}
	if res := r.ApplyBatch(nil); res != nil {
		t.Fatalf("empty batch = %v", res)
	}

	// NaN bounds on a multi-shard router: locate cannot order NaN, so
	// these must short-circuit instead of crossing the fan-out range.
	rb := mustBulk(t, testOptions(4), workload.NewGen(29).Uniform(1000, 1e6), 4)
	nan := math.NaN()
	for _, q := range [][2]float64{{nan, 50}, {50, nan}, {nan, nan}} {
		if got := rb.TopK(q[0], q[1], 5); got != nil {
			t.Fatalf("TopK(%v,%v) = %v", q[0], q[1], got)
		}
		if got := rb.Count(q[0], q[1]); got != 0 {
			t.Fatalf("Count(%v,%v) = %d", q[0], q[1], got)
		}
	}
}

// TestBuildPanicReachesCaller: shards build on worker goroutines, and
// a panic there must surface on the caller's goroutine after every
// build finishes; an unrecovered worker panic would kill the process
// instead. Duplicate positions handed to partition directly, past
// Bulk's check, make a shard's PST build panic. Rebalance builds
// before it publishes, so a panicking rebuild must leave the snapshot
// and epoch as they were, and the router must keep serving.
func TestBuildPanicReachesCaller(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if v := recover(); v == nil || !strings.Contains(fmt.Sprint(v), "duplicate") {
				t.Fatalf("%s: recovered %v, want the build's duplicate-position panic", name, v)
			}
		}()
		f()
	}

	pts := workload.NewGen(45).Uniform(2000, 1e6)
	point.SortByX(pts)
	pts[1001].X = pts[1000].X
	mustPanic("partition", func() { partition(testOptions(8), math.Inf(-1), math.Inf(1), pts, 8, 0) })

	// Poison a live router: rebuild its last shard with a copy of the
	// first shard's leftmost position, so Rebalance gathers a
	// duplicate position.
	r := mustBulk(t, testOptions(4), workload.NewGen(46).Uniform(2000, 1e6), 4)
	t0 := r.snapshot()
	last := t0.shards[len(t0.shards)-1]
	stray := point.P{X: t0.shards[0].live()[0].X, Score: 7}
	poisoned := newShard(r.opt, r.opt.diskFor(len(t0.shards)), last.lo, last.hi, append(last.live(), stray))
	r.publish(append(slices.Clone(t0.shards[:len(t0.shards)-1]), poisoned), t0.retired)
	before, epoch := r.snapshot(), r.Epoch()
	mustPanic("Rebalance", func() { r.Rebalance(4) })
	if r.snapshot() != before || r.Epoch() != epoch {
		t.Fatalf("Rebalance published after a failed build: epoch %d -> %d", epoch, r.Epoch())
	}
	if err := r.Insert(point.P{X: 2e6, Score: 8}); err != nil {
		t.Fatalf("insert after the failed rebalance: %v", err)
	}
}

// TestReadPanicReachesCaller: a shard that panics mid-read (an
// internal invariant violation; a nil Index stands in for one) must
// surface on the reader's goroutine, whether the shard ran there or on
// a fan-out goroutine, and every shard mutex must be released so the
// router keeps serving.
func TestReadPanicReachesCaller(t *testing.T) {
	pts := workload.NewGen(47).Uniform(4000, 1e6)
	r := mustBulk(t, testOptions(4), pts, 4)
	topo := r.snapshot()
	broken := topo.shards[2]
	ix := broken.ix
	broken.ix = nil
	reads := map[string]func(){
		"TopK on the broken shard alone": func() { r.TopK(broken.lo, broken.lo+1, 10) },
		"TopK over every shard":          func() { r.TopK(math.Inf(-1), math.Inf(1), 10) },
		"QueryBatch": func() {
			r.QueryBatch([]point.Query{{X1: 0, X2: 1, K: 3}, {X1: math.Inf(-1), X2: math.Inf(1), K: 10}})
		},
	}
	for name, read := range reads {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: the shard's panic did not reach the caller", name)
				}
			}()
			read()
		}()
		for i, s := range topo.shards {
			if !s.mu.TryLock() {
				t.Fatalf("%s: shard %d is still locked", name, i)
			}
			s.mu.Unlock()
		}
	}
	broken.ix = ix
	if got, want := r.TopK(math.Inf(-1), math.Inf(1), 10), point.TopK(pts, math.Inf(-1), math.Inf(1), 10); !slices.Equal(got, want) {
		t.Fatalf("TopK after the panics = %v, want %v", got, want)
	}
}

// TestContractViolationsReturnErrors: duplicate positions, duplicate
// scores (including on a DIFFERENT shard) and non-finite coordinates
// are sentinel errors, nothing panics, nothing is mutated, and —
// critically for a serving layer — every lock is released so the
// router keeps serving.
func TestContractViolationsReturnErrors(t *testing.T) {
	r := mustBulk(t, testOptions(4), workload.NewGen(23).Uniform(1000, 1e6), 4)
	dup := r.TopK(math.Inf(-1), math.Inf(1), 1)[0]

	if err := r.Insert(point.P{X: dup.X, Score: 123456}); !errors.Is(err, core.ErrDuplicatePosition) {
		t.Fatalf("duplicate position: %v", err)
	}
	// The duplicate score lives on whatever shard holds dup; inserting
	// far outside the data domain routes to the last shard — the
	// router-level score set must still catch it.
	if err := r.Insert(point.P{X: 9e9, Score: dup.Score}); !errors.Is(err, core.ErrDuplicateScore) {
		t.Fatalf("cross-shard duplicate score: %v", err)
	}
	if err := r.Insert(point.P{X: math.NaN(), Score: 1}); !errors.Is(err, core.ErrInvalidPoint) {
		t.Fatalf("NaN position: %v", err)
	}
	if err := r.Insert(point.P{X: 1e9, Score: math.Inf(1)}); !errors.Is(err, core.ErrInvalidPoint) {
		t.Fatalf("Inf score: %v", err)
	}
	// The same rejections through the batch path, alongside an op that
	// succeeds.
	res := r.ApplyBatch([]point.Op{
		{X: dup.X, Score: 654321},
		{X: 8e9, Score: dup.Score},
		{X: math.Inf(-1), Score: 2},
		{Delete: true, X: -4242, Score: 4242},
		{X: -3, Score: -3},
	})
	want := []error{core.ErrDuplicatePosition, core.ErrDuplicateScore, core.ErrInvalidPoint, core.ErrNotFound, nil}
	for i, err := range res {
		if !errors.Is(err, want[i]) {
			t.Fatalf("batch op %d: %v, want %v", i, err, want[i])
		}
	}
	if got := r.Len(); got != 1001 {
		t.Fatalf("Len after rejected duplicates = %d, want 1001", got)
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// The router must still serve every shard: full-range query, point
	// update, batch and rebalance all succeed afterwards.
	done := make(chan struct{})
	go func() {
		defer close(done)
		if got := r.Count(math.Inf(-1), math.Inf(1)); got < 1000 {
			t.Errorf("Count after rejections = %d", got)
		}
		if err := r.Insert(point.P{X: -1, Score: -1}); err != nil {
			t.Errorf("Insert after rejections: %v", err)
		}
		if !r.Delete(point.P{X: -1, Score: -1}) {
			t.Error("Delete after rejections")
		}
		res := r.ApplyBatch([]point.Op{{X: -2, Score: -2}})
		if len(res) != 1 || res[0] != nil {
			t.Errorf("ApplyBatch after rejections: %v", res)
		}
		r.Rebalance(2) // needs the write lock: fails if a read lock leaked
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("router wedged after rejections (leaked lock)")
	}

	// A deleted score is free for reuse anywhere in the fleet.
	if !r.Delete(dup) {
		t.Fatal("delete dup owner")
	}
	if err := r.Insert(point.P{X: 9e9, Score: dup.Score}); err != nil {
		t.Fatalf("reusing freed score: %v", err)
	}
}

// TestQueryBatchMatchesTopK: the multi-query fan-out answers exactly
// like sequential TopK calls on the same topology, boundary
// straddlers and degenerate queries included.
func TestQueryBatchMatchesTopK(t *testing.T) {
	gen := workload.NewGen(27)
	pts := gen.Clustered(5000, 3, 1e6)
	r := mustBulk(t, testOptions(6), pts, 6)
	rng := rand.New(rand.NewSource(28))
	qs := gen.Queries(60, 1e6, 0.001, 0.8, 200)
	qs = append(qs, straddlers(r, 1e6, 200, rng)...)
	qs = append(qs,
		point.Query{X1: 10, X2: 5, K: 3},
		point.Query{X1: 0, X2: 1e6, K: 0},
		point.Query{X1: math.NaN(), X2: 1, K: 3},
	)
	got := r.QueryBatch(qs)
	if len(got) != len(qs) {
		t.Fatalf("got %d answers for %d queries", len(got), len(qs))
	}
	for i, q := range qs {
		want := r.TopK(q.X1, q.X2, q.K)
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("query %d (%+v):\n got %v\nwant %v", i, q, got[i], want)
		}
	}
	if r.QueryBatch(nil) != nil {
		t.Fatal("QueryBatch(nil) != nil")
	}
}

// TestPerShardPoolSizing: the configured Disk.M is a fleet budget,
// divided across shards at build time, with the model's 2B floor.
func TestPerShardPoolSizing(t *testing.T) {
	opt := Options{Disk: em.Config{B: 64, M: 64 * 64}}.withDefaults()
	if got := opt.diskFor(1).M; got != 64*64 {
		t.Fatalf("diskFor(1).M = %d, want %d", got, 64*64)
	}
	if got := opt.diskFor(4).M; got != 64*64/4 {
		t.Fatalf("diskFor(4).M = %d, want %d", got, 64*64/4)
	}
	// Defaults resolve before dividing, so the budget is well-defined.
	def := Options{}.withDefaults()
	if def.Disk.M != em.DefaultM || def.Disk.B != em.DefaultB {
		t.Fatalf("defaulted disk = %+v", def.Disk)
	}
	// A fleet budget smaller than shards·2B still yields legal
	// machines (em clamps to the M ≥ 2B floor); the router must work.
	small := testOptions(8)
	small.Disk.M = 4 * small.Disk.B
	r := mustBulk(t, small, workload.NewGen(29).Uniform(2000, 1e6), 8)
	if r.NumShards() != 8 {
		t.Fatalf("NumShards = %d", r.NumShards())
	}
	rng := rand.New(rand.NewSource(30))
	checkQueries(t, r, workload.NewGen(29).Uniform(2000, 1e6), straddlers(r, 1e6, 50, rng))
}

// mkRouter hand-builds a router with one shard per point group,
// cutting between adjacent groups — direct topology construction for
// policy unit tests (Bulk's equal quantiles can't produce skewed
// fleets). The maintenance loop starts if the options ask for one,
// exactly as the real constructors do.
func mkRouter(opt Options, groups [][]point.P) *Router {
	r := newRouter(opt)
	var shards []*shard
	lo := math.Inf(-1)
	total := 0
	for i, g := range groups {
		point.SortByX(g)
		hi := math.Inf(1)
		if i < len(groups)-1 {
			hi = groups[i+1][0].X
		}
		shards = append(shards, newShard(r.opt, r.opt.diskFor(len(groups)), lo, hi, g))
		for _, p := range g {
			if err := r.guard.Reserve(p); err != nil {
				panic(fmt.Sprintf("mkRouter: %v: %v", p, err))
			}
		}
		total += len(g)
		lo = hi
	}
	r.publish(shards, em.Stats{})
	r.n.Store(int64(total))
	r.startMaintenance()
	return r
}

// band generates n points with x in [x0, x0+width) and globally unique
// scores starting at scoreBase.
func band(n int, x0, width, scoreBase float64) []point.P {
	pts := make([]point.P, n)
	for i := range pts {
		pts[i] = point.P{X: x0 + width*float64(i)/float64(n), Score: scoreBase + float64(i)}
	}
	return pts
}

// TestDeleteTriggeredMerge is the lifecycle acceptance test: a fleet
// bulk-loaded to its cap collapses after 90% of the points are
// deleted, contents and invariants intact.
func TestDeleteTriggeredMerge(t *testing.T) {
	gen := workload.NewGen(41)
	pts := gen.Uniform(4000, 1e6)
	r := mustBulk(t, testOptions(8), pts, 8)
	if r.NumShards() != 8 {
		t.Fatalf("NumShards = %d, want 8", r.NumShards())
	}
	live := append([]point.P(nil), pts...)
	rng := rand.New(rand.NewSource(42))
	for len(live) > len(pts)/10 {
		j := rng.Intn(len(live))
		if !r.Delete(live[j]) {
			t.Fatalf("Delete(%v) not found", live[j])
		}
		live[j] = live[len(live)-1]
		live = live[:len(live)-1]
	}
	if got := r.NumShards(); got >= 8 {
		t.Fatalf("NumShards after 90%% deletes = %d, want < 8: %s", got, r)
	}
	if r.Merges() == 0 {
		t.Fatal("Merges() = 0 after heavy deletes")
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	qs := gen.Queries(60, 1e6, 0.001, 0.8, 120)
	qs = append(qs, straddlers(r, 1e6, 120, rng)...)
	checkQueries(t, r, live, qs)
}

// TestMergeDisabled: MinMerge < 0 switches merging off — the
// benchmark baseline and an operator escape hatch.
func TestMergeDisabled(t *testing.T) {
	opt := testOptions(8)
	opt.MinMerge = -1
	pts := workload.NewGen(43).Uniform(4000, 1e6)
	r := mustBulk(t, opt, pts, 8)
	for _, p := range pts[:3600] {
		if !r.Delete(p) {
			t.Fatalf("Delete(%v) not found", p)
		}
	}
	if got := r.NumShards(); got != 8 {
		t.Fatalf("NumShards with merging disabled = %d, want 8", got)
	}
	if r.Merges() != 0 {
		t.Fatalf("Merges() = %d with merging disabled", r.Merges())
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestMergeHysteresisSkipsSplittableCombination: an emptied shard
// whose only neighbor is heavy enough that the combined shard would
// trip the split policy stays put — merging it would just hand the
// next insert a split, i.e. flapping.
func TestMergeHysteresisSkipsSplittableCombination(t *testing.T) {
	opt := Options{
		Disk:      em.Config{B: 64},
		Core:      core.Options{Regime: core.RegimePolylog, PolylogF: 8, PolylogLeafCap: 2048},
		MaxShards: 4,
		MinSplit:  100,
	}
	// Shard sizes 3 / 900 / 300: total 1203, fair share 300.75.
	// Shard 0 (3 pts) is under the MinMerge floor (50); its only
	// neighbor holds 900, and 903 > 2·fair = 601.5 trips splitSize —
	// the merge must be skipped. Shard 2 (300 ≈ fair) is healthy.
	r := mkRouter(opt, [][]point.P{
		band(3, 0, 10, 0),
		band(900, 100, 100, 1000),
		band(300, 300, 100, 10000),
	})
	r.mergeUnderloaded()
	if got := r.NumShards(); got != 3 {
		t.Fatalf("NumShards = %d, want 3 (merge should be skipped)", got)
	}
	if r.Merges() != 0 {
		t.Fatalf("Merges() = %d, want 0", r.Merges())
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// Lighten the heavy neighbor below the threshold (3+250 = 253
	// combined < 2·fair = 276.5) and the pass must now coalesce the
	// tiny shard into it.
	for _, p := range band(900, 100, 100, 1000)[:650] {
		if !r.Delete(p) {
			t.Fatalf("Delete(%v) not found", p)
		}
	}
	r.mergeUnderloaded()
	if got := r.NumShards(); got >= 3 {
		t.Fatalf("NumShards = %d after lightening, want < 3: %s", got, r)
	}
	if r.Merges() == 0 {
		t.Fatal("no merge after neighbor lightened")
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestMergePicksSmallerNeighbor: the coalescing partner is the
// smaller adjacent shard, keeping merged shards as light as possible.
func TestMergePicksSmallerNeighbor(t *testing.T) {
	opt := Options{
		Disk:      em.Config{B: 64},
		Core:      core.Options{Regime: core.RegimePolylog, PolylogF: 8, PolylogLeafCap: 2048},
		MaxShards: 8,
		MinSplit:  1 << 20, // splits (and the hysteresis veto) out of the picture
		MinMerge:  50,      // explicit: the default MinSplit/2 would floor everything
	}
	// 400 / 10 / 100: the tiny middle shard must merge right (100),
	// not left (400).
	r := mkRouter(opt, [][]point.P{
		band(400, 0, 100, 0),
		band(10, 100, 100, 1000),
		band(100, 200, 100, 2000),
	})
	r.mergeUnderloaded()
	if got := r.NumShards(); got != 2 {
		t.Fatalf("NumShards = %d, want 2: %s", got, r)
	}
	if got := r.snapshot().shards[0].size(); got != 400 {
		t.Fatalf("left shard len = %d, want 400 (merge went left): %s", got, r)
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestChurnLifecycle drives the full shard lifecycle — splits from
// insert pressure, merges from delete pressure, a mid-life rebalance —
// through randomized interleaved phases, holding the router to the
// brute-force oracle and its invariants after every phase.
func TestChurnLifecycle(t *testing.T) {
	opt := testOptions(8)
	gen := workload.NewGen(45)
	rng := rand.New(rand.NewSource(46))
	r := New(opt)
	var live []point.P

	checkPhase := func(phase string) {
		t.Helper()
		if err := r.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", phase, err)
		}
		qs := gen.Queries(40, 1e6, 0.001, 0.8, 100)
		qs = append(qs, straddlers(r, 1e6, 100, rng)...)
		checkQueries(t, r, live, qs)
	}

	insertSome := func(n int) {
		for _, p := range gen.Uniform(n, 1e6) {
			if err := r.Insert(p); err != nil {
				t.Fatalf("Insert(%v): %v", p, err)
			}
			live = append(live, p)
		}
	}
	deleteSome := func(n int) {
		for i := 0; i < n && len(live) > 0; i++ {
			j := rng.Intn(len(live))
			if !r.Delete(live[j]) {
				t.Fatalf("Delete(%v) not found", live[j])
			}
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	}

	// Phase 1: grow — splits fire.
	insertSome(5000)
	if r.Splits() == 0 {
		t.Fatalf("no splits after 5000 inserts: %s", r)
	}
	checkPhase("grow")

	// Phase 2: shrink by 90% — merges fire.
	grown := r.NumShards()
	deleteSome(len(live) * 9 / 10)
	if r.Merges() == 0 {
		t.Fatalf("no merges after 90%% deletes: %s", r)
	}
	if got := r.NumShards(); got >= grown {
		t.Fatalf("NumShards %d did not shrink below split-era %d", got, grown)
	}
	checkPhase("shrink")

	// Phase 3: mixed batches, deletes first so scores can recycle.
	for round := 0; round < 4; round++ {
		var dels []point.Op
		for i := 0; i < 100 && len(live) > 0; i++ {
			j := rng.Intn(len(live))
			dels = append(dels, point.Op{Delete: true, X: live[j].X, Score: live[j].Score})
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		for i, err := range r.ApplyBatch(dels) {
			if err != nil {
				t.Fatalf("batch delete %d: %v", i, err)
			}
		}
		var ins []point.Op
		for _, p := range gen.Uniform(150, 1e6) {
			ins = append(ins, point.Op{X: p.X, Score: p.Score})
			live = append(live, p)
		}
		for i, err := range r.ApplyBatch(ins) {
			if err != nil {
				t.Fatalf("batch insert %d: %v", i, err)
			}
		}
	}
	checkPhase("batch churn")

	// Phase 4: rebalance, then churn again on the fresh topology.
	r.Rebalance(0)
	checkPhase("rebalance")
	insertSome(2000)
	deleteSome(len(live) / 2)
	checkPhase("post-rebalance churn")
}

// TestRouterTopKAddsNoAllocs is the testing half of the
// //topk:nomalloc contract on the routed read path: for an interval
// one shard covers, the router layer (snapshot pin, locate, single-
// shard dispatch) performs ZERO allocations of its own — a routed
// TopK allocates exactly what the underlying Index.Query allocates.
func TestRouterTopKAddsNoAllocs(t *testing.T) {
	pts := workload.NewGen(31).Uniform(4000, 1e6)
	r := mustBulk(t, testOptions(4), pts, 4)
	topo := r.snapshot()
	if len(topo.shards) < 3 {
		t.Fatalf("bulk load produced %d shards; need an interior shard", len(topo.shards))
	}
	s := topo.shards[1]
	x1, x2 := s.lo, s.lo+(s.hi-s.lo)/2
	const k = 10
	if lo, hi := topo.locate(x1), topo.locate(x2); lo != 1 || hi != 1 {
		t.Fatalf("interval [%g,%g] spans shards %d..%d; want it inside shard 1", x1, x2, lo, hi)
	}
	r.TopK(x1, x2, k) // warm the shard's buffer pool

	direct := testing.AllocsPerRun(100, func() {
		s.mu.Lock()
		s.ix.Query(x1, x2, k)
		s.mu.Unlock()
	})
	routed := testing.AllocsPerRun(100, func() {
		r.TopK(x1, x2, k)
	})
	if routed > direct {
		t.Fatalf("routed TopK allocates %.1f/op vs %.1f/op for the bare Index.Query; the router layer must add zero", routed, direct)
	}
}

// TestRouterFanOutAllocs holds the multi-shard read path to its
// budget: a warm TopK over s shards at k ≥ the §2 threshold, where
// every shard answers through the PST's scratch, allocates at most s
// times — its answer, plus whatever starting s−1 goroutines costs.
// Selection, sort and the per-shard buffers come from a pooled frame.
func TestRouterFanOutAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts of a pooled path are not meaningful under the race detector")
	}
	pts := workload.NewGen(37).Uniform(8000, 1e6)
	r := mustBulk(t, testOptions(4), pts, 4)
	topo := r.snapshot()
	if len(topo.shards) != 4 {
		t.Fatalf("bulk load produced %d shards; want 4", len(topo.shards))
	}
	k := 0
	for _, s := range topo.shards {
		k = max(k, s.ix.KThreshold())
	}
	for _, s := range []int{2, 4} {
		x1, x2 := 0.0, topo.shards[s-1].lo+1000
		if lo, hi := topo.locate(x1), topo.locate(x2); lo != 0 || hi != s-1 {
			t.Fatalf("interval [%g,%g] spans shards %d..%d; want 0..%d", x1, x2, lo, hi, s-1)
		}
		want := point.TopK(pts, x1, x2, k)
		if got := r.TopK(x1, x2, k); !slices.Equal(got, want) {
			t.Fatalf("s=%d: TopK differs from point.TopK", s)
		}
		allocs := testing.AllocsPerRun(50, func() { r.TopK(x1, x2, k) })
		if allocs > float64(s) {
			t.Fatalf("s=%d, k=%d: TopK allocates %.1f times per read; want at most %d", s, k, allocs, s)
		}
	}
}
