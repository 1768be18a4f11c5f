package topk

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"
)

// batchedOp is one recorded churn op with the outcome the batched
// store reported, for sequential replay against the direct oracle.
type batchedOp struct {
	del      bool
	x, score float64
	err      error // insert outcome
	present  bool  // delete outcome
}

// errCategory buckets an error by sentinel so outcomes compare by
// errors.Is, never by string.
func errCategory(err error) string {
	switch {
	case err == nil:
		return "nil"
	case errors.Is(err, ErrInvalidPoint):
		return "invalid_point"
	case errors.Is(err, ErrDuplicatePosition):
		return "duplicate_position"
	case errors.Is(err, ErrDuplicateScore):
		return "duplicate_score"
	case errors.Is(err, ErrNotFound):
		return "not_found"
	default:
		return "other"
	}
}

// dumpAll snapshots the full live point set in descending score order.
func dumpAll(st Store) []Result {
	return st.TopK(math.Inf(-1), math.Inf(1), st.Len())
}

// TestBatchedDifferential is the acceptance test for the group-commit
// write path: a Batched-wrapped Sharded must end byte-identical to a
// direct Sharded after randomized concurrent churn, with every per-op
// outcome (success, sentinel error, delete presence) identical to what
// the sequential oracle reports. Workers own disjoint position and
// score bands, so each worker's op stream is deterministic regardless
// of how the batcher interleaves workers into groups. Run with -race.
func TestBatchedDifferential(t *testing.T) {
	const workers, opsPer, band = 8, 150, 1e4

	direct := mustNewSharded(t, testShardedConfig(4))
	inner := mustNewSharded(t, testShardedConfig(4))
	bt, err := NewBatched(inner, BatchedConfig{Window: 200 * time.Microsecond, MaxBatch: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer bt.Close()

	// Concurrent churn through the batched store, recording outcomes.
	recs := make([][]batchedOp, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + w)))
			lo := float64(w) * band
			var live []batchedOp // this worker's successfully inserted points
			for i := 0; i < opsPer; i++ {
				var op batchedOp
				if len(live) > 0 && rng.Float64() < 0.35 {
					// Delete: half the time a live point, half a missing one.
					if rng.Float64() < 0.5 {
						j := rng.Intn(len(live))
						op = batchedOp{del: true, x: live[j].x, score: live[j].score}
						live = append(live[:j], live[j+1:]...)
					} else {
						op = batchedOp{del: true, x: lo + rng.Float64()*band, score: lo + rng.Float64()*band}
					}
					op.present = bt.Delete(op.x, op.score)
				} else {
					op = batchedOp{x: lo + rng.Float64()*band, score: lo + rng.Float64()*band}
					if rng.Float64() < 0.1 && len(live) > 0 {
						// Provoke a duplicate (position or score) on purpose.
						j := rng.Intn(len(live))
						if rng.Float64() < 0.5 {
							op.x = live[j].x
						} else {
							op.score = live[j].score
						}
					}
					if rng.Float64() < 0.05 {
						op.x = math.NaN() // provoke ErrInvalidPoint
					}
					op.err = bt.Insert(op.x, op.score)
					if op.err == nil {
						live = append(live, op)
					}
				}
				recs[w] = append(recs[w], op)
			}
		}(w)
	}
	wg.Wait()

	// Sequential replay per worker against the oracle: outcomes must
	// match category-for-category (bands are disjoint, so per-worker
	// order fully determines each outcome).
	for w, ops := range recs {
		for i, op := range ops {
			if op.del {
				if got := direct.Delete(op.x, op.score); got != op.present {
					t.Fatalf("worker %d op %d: Delete(%v,%v) batched=%v direct=%v",
						w, i, op.x, op.score, op.present, got)
				}
			} else {
				got := direct.Insert(op.x, op.score)
				if gc, wc := errCategory(got), errCategory(op.err); gc != wc {
					t.Fatalf("worker %d op %d: Insert(%v,%v) batched=%q direct=%q",
						w, i, op.x, op.score, wc, gc)
				}
			}
		}
	}

	// Final states byte-identical.
	if got, want := dumpAll(bt), dumpAll(direct); !reflect.DeepEqual(got, want) {
		t.Fatalf("final dump diverged: batched %d pts, direct %d pts", len(got), len(want))
	}
	if s := bt.BatcherStats(); s.Pending != 0 || s.Ops == 0 {
		t.Fatalf("batcher stats = %+v, want drained and non-trivial", s)
	}
}

// TestBatchedAsyncDifferential drives the async path (SubmitInsert,
// unique points only so op order across workers is immaterial), then
// proves Flush makes everything visible and the state matches a direct
// ApplyBatch of the same set.
func TestBatchedAsyncDifferential(t *testing.T) {
	const workers, opsPer = 8, 100

	direct := mustNewSharded(t, testShardedConfig(4))
	inner := mustNewSharded(t, testShardedConfig(4))
	bt, err := NewBatched(inner, BatchedConfig{Window: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer bt.Close()

	var wg sync.WaitGroup
	futs := make([][]Future, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < opsPer; i++ {
				x := float64(w*opsPer+i) + 0.5
				futs[w] = append(futs[w], bt.SubmitInsert(x, x*2))
			}
		}(w)
	}
	wg.Wait()
	bt.Flush()
	for w := range futs {
		for i, f := range futs[w] {
			if !f.Ready() {
				t.Fatalf("worker %d op %d unresolved after Flush", w, i)
			}
			if err := f.Err(); err != nil {
				t.Fatalf("worker %d op %d: %v", w, i, err)
			}
		}
	}

	var ops []BatchOp
	for w := 0; w < workers; w++ {
		for i := 0; i < opsPer; i++ {
			x := float64(w*opsPer+i) + 0.5
			ops = append(ops, BatchOp{X: x, Score: x * 2})
		}
	}
	for i, err := range direct.ApplyBatch(ops) {
		if err != nil {
			t.Fatalf("direct op %d: %v", i, err)
		}
	}
	if got, want := dumpAll(bt), dumpAll(direct); !reflect.DeepEqual(got, want) {
		t.Fatalf("async dump diverged: batched %d pts, direct %d pts", len(got), len(want))
	}
}

// TestBatchedErrorFidelity pins the satellite requirement: every
// sentinel a direct Insert/Delete produces round-trips identically
// through the sync batched path and through async futures, matched
// with errors.Is — never strings.
func TestBatchedErrorFidelity(t *testing.T) {
	inner := mustNewSharded(t, testShardedConfig(2))
	bt, err := NewBatched(inner, BatchedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer bt.Close()

	if err := bt.Insert(10, 100); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name     string
		x, score float64
		want     error
	}{
		{"ok", 11, 101, nil},
		{"duplicate position", 10, 999, ErrDuplicatePosition},
		{"duplicate score", 999, 100, ErrDuplicateScore},
		{"nan position", math.NaN(), 102, ErrInvalidPoint},
		{"inf score", 12, math.Inf(1), ErrInvalidPoint},
	}
	for _, tc := range cases {
		got := bt.Insert(tc.x, tc.score)
		if tc.want == nil {
			if got != nil {
				t.Errorf("sync %s: got %v, want nil", tc.name, got)
			}
		} else if !errors.Is(got, tc.want) {
			t.Errorf("sync %s: got %v, want %v", tc.name, got, tc.want)
		}
	}

	// Async futures carry the same sentinels. The dup insert and the
	// delete of the same position go in separate groups — within one
	// group ApplyBatch order is the batcher's to choose.
	fDup := bt.SubmitInsert(10, 555)
	fBad := bt.SubmitInsert(math.Inf(-1), 556)
	for _, f := range []Future{fDup, fBad} {
		_ = f.Wait()
	}
	fOkDel := bt.SubmitDelete(10, 100)
	fNoDel := bt.SubmitDelete(777, 777)
	for _, f := range []Future{fOkDel, fNoDel} {
		_ = f.Wait()
	}
	if !errors.Is(fDup.Err(), ErrDuplicatePosition) {
		t.Errorf("async dup position: got %v", fDup.Err())
	}
	if !errors.Is(fBad.Err(), ErrInvalidPoint) {
		t.Errorf("async invalid point: got %v", fBad.Err())
	}
	if fOkDel.Err() != nil {
		t.Errorf("async delete live: got %v, want nil", fOkDel.Err())
	}
	if !errors.Is(fNoDel.Err(), ErrNotFound) {
		t.Errorf("async delete absent: got %v, want ErrNotFound", fNoDel.Err())
	}

	// Sync Delete mirrors the direct bool contract.
	if bt.Delete(999, 12345) {
		t.Error("Delete of absent point reported present")
	}
	if err := bt.Insert(50, 51); err != nil {
		t.Fatal(err)
	}
	if !bt.Delete(50, 51) {
		t.Error("Delete of live point reported absent")
	}
}

// TestBatchedConfigValidation pins the ErrConfig surface.
func TestBatchedConfigValidation(t *testing.T) {
	if _, err := NewBatched(nil, BatchedConfig{}); !errors.Is(err, ErrConfig) {
		t.Fatalf("nil store: got %v, want ErrConfig", err)
	}
	if _, err := NewBatched(mustNewSharded(t, testShardedConfig(1)), BatchedConfig{MaxBatch: -1}); !errors.Is(err, ErrConfig) {
		t.Fatalf("negative MaxBatch: got %v, want ErrConfig", err)
	}
}

// TestBatchedUnwrapAndViews covers the probe surface: Unwrap exposes
// the inner store, WithContext passthrough works on stores without
// binding, and reads flow through.
func TestBatchedUnwrapAndViews(t *testing.T) {
	inner := mustNewSharded(t, testShardedConfig(2))
	bt, err := NewBatched(inner, BatchedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer bt.Close()
	if bt.Unwrap() != Store(inner) {
		t.Fatal("Unwrap did not return the inner store")
	}
	for i := 0; i < 20; i++ {
		if err := bt.Insert(float64(i), float64(i)+0.5); err != nil {
			t.Fatal(err)
		}
	}
	if got := bt.Len(); got != 20 {
		t.Fatalf("Len = %d, want 20", got)
	}
	if got := bt.Count(5, 10); got != inner.Count(5, 10) {
		t.Fatalf("Count mismatch: %d vs %d", got, inner.Count(5, 10))
	}
	if got := bt.TopK(0, 100, 3); !reflect.DeepEqual(got, inner.TopK(0, 100, 3)) {
		t.Fatal("TopK mismatch through wrapper")
	}
	qs := []Query{{X1: 0, X2: 100, K: 5}}
	if got := bt.QueryBatch(qs); !reflect.DeepEqual(got, inner.QueryBatch(qs)) {
		t.Fatal("QueryBatch mismatch through wrapper")
	}
}

// blockedFlush is a store whose ApplyBatch parks until release is
// closed, announcing on entered that a group reached it.
type blockedFlush struct {
	Store
	entered, release chan struct{}
}

func (s *blockedFlush) ApplyBatch(ops []BatchOp) []error {
	s.entered <- struct{}{}
	<-s.release
	return s.Store.ApplyBatch(ops)
}

// TestBatchedReadsSkipCommit: Batched touches writes only. While a sync
// Insert's group holds the commit slot inside a blocked flush, Len,
// TopK, QueryBatch, Count and Stats through the Batched return, and Len
// counts the insert only once its group commits.
func TestBatchedReadsSkipCommit(t *testing.T) {
	inner := &blockedFlush{Store: mustNewSharded(t, testShardedConfig(2)),
		entered: make(chan struct{}, 1), release: make(chan struct{})}
	bt, err := NewBatched(inner, BatchedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer bt.Close()
	inserted := make(chan error, 1)
	go func() { inserted <- bt.Insert(1, 2) }()
	<-inner.entered

	lens := make(chan int, 1)
	go func() {
		n := bt.Len()
		bt.TopK(0, 10, 1)
		bt.QueryBatch([]Query{{X1: 0, X2: 10, K: 1}})
		bt.Count(0, 10)
		bt.Stats()
		lens <- n
	}()
	select {
	case n := <-lens:
		if n != 0 {
			t.Errorf("Len = %d while the insert's group is uncommitted, want 0", n)
		}
	case <-time.After(3 * time.Second):
		t.Error("reads through Batched waited for the blocked flush")
	}
	close(inner.release)
	if err := <-inserted; err != nil {
		t.Fatal(err)
	}
	if n := bt.Len(); n != 1 {
		t.Fatalf("Len = %d after the insert committed, want 1", n)
	}
}
