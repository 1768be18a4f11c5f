package shard

// This file is the EXECUTION layer of the router: the parallel fan-out
// machinery that answers reads over one pinned topology snapshot.
// Nothing here touches the topology lock — a read pins the snapshot
// with one atomic load and then deals only in per-shard mutexes (each
// shard is a sequential EM machine whose buffer-pool LRU state even
// queries mutate; DESIGN.md Substitution 1).
//
// The k-way heap-merge that combines per-shard answers (merge.TopK)
// and the panic-propagating parallel runner (merge.Parallel) live in
// internal/merge; the network cluster tier shares the runner.

import (
	"math"

	"repro/internal/core"
	"repro/internal/merge"
	"repro/internal/point"
)

// fanOut runs per once for every shard of the pinned snapshot
// overlapping [x1, x2], taking each shard's mutex around its call.
// setup receives the overlap count first so callers can size result
// slices; slot indexes them 0..count−1 in shard order. With a single
// overlapped shard everything runs on the caller's goroutine;
// otherwise shards proceed in parallel. No query clamping is needed
// anywhere: a shard only stores points inside its range, so the full
// interval selects exactly its part.
//
// No topology lock is held at any point — the snapshot is immutable,
// and a lifecycle pass that retires one of its shards mid-fan-out
// cannot invalidate it (the retired machine still holds exactly the
// points it held at pin time).
func (r *Router) fanOut(x1, x2 float64, setup func(count int), per func(slot int, ix *core.Index)) {
	t := r.snapshot()
	r.fanOutTopo(t, t.locate(x1), t.locate(x2), setup, per)
}

// fanOutTopo is fanOut over an already-pinned snapshot and located
// shard range [lo, hi]: callers that need the topology for their own
// routing (TopK's single-shard fast path) pin once and reuse it here
// instead of paying a second atomic load and locate pass.
func (r *Router) fanOutTopo(t *topology, lo, hi int, setup func(count int), per func(slot int, ix *core.Index)) {
	setup(hi - lo + 1)
	if lo == hi {
		s := t.shards[lo]
		s.mu.Lock()
		defer s.mu.Unlock()
		per(0, s.ix)
		return
	}
	fns := make([]func(), 0, hi-lo+1)
	for i := lo; i <= hi; i++ {
		s, slot := t.shards[i], i-lo
		fns = append(fns, func() {
			s.mu.Lock()
			defer s.mu.Unlock()
			per(slot, s.ix)
		})
	}
	merge.Parallel(fns)
}

// TopK returns the k highest-scoring points with position in [x1, x2]
// in descending score order, fanning out to every shard the interval
// overlaps in parallel and heap-merging the per-shard answers. The
// read is linearized at the moment it pins the topology snapshot.
//
// An interval inside one shard — the common case for range-local
// workloads — takes the topKSingle fast path: no goroutines, no list
// slice, no merge; the router layer adds zero allocations over the
// underlying Index.Query (TestRouterTopKAddsNoAllocs holds it there).
func (r *Router) TopK(x1, x2 float64, k int) []point.P {
	// NaN bounds match nothing; they must be rejected here because they
	// also defeat the x1 > x2 guard and the locate binary search (every
	// comparison with NaN is false), which would cross the fan-out's
	// shard range.
	if k <= 0 || x1 > x2 || math.IsNaN(x1) || math.IsNaN(x2) {
		return nil
	}
	t := r.snapshot()
	lo, hi := t.locate(x1), t.locate(x2)
	if lo == hi {
		return topKSingle(t, lo, x1, x2, k)
	}
	var lists [][]point.P
	r.fanOutTopo(t, lo, hi,
		func(count int) { lists = make([][]point.P, count) },
		func(slot int, ix *core.Index) { lists[slot] = ix.Query(x1, x2, k) })
	return merge.TopK(lists, k)
}

// topKSingle answers a TopK whose interval one shard covers, on the
// caller's goroutine: shard mutex, one Index.Query, done. The
// annotation is the router-layer claim — this frame allocates
// nothing; whatever Index.Query allocates for its own answer is the
// index's budget, not the router's.
//
//topk:nomalloc
func topKSingle(t *topology, i int, x1, x2 float64, k int) []point.P {
	s := t.shards[i]
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ix.Query(x1, x2, k)
}

// Count returns the number of stored points with position in [x1, x2],
// summing overlapped shards in parallel.
func (r *Router) Count(x1, x2 float64) int {
	if x1 > x2 || math.IsNaN(x1) || math.IsNaN(x2) {
		return 0
	}
	var counts []int
	r.fanOut(x1, x2,
		func(count int) { counts = make([]int, count) },
		func(slot int, ix *core.Index) { counts[slot] = ix.Count(x1, x2) })
	total := 0
	for _, c := range counts {
		total += c
	}
	return total
}

// QueryBatch answers qs as one batch over a SINGLE pinned snapshot,
// amortizing the snapshot pin and goroutine setup that a loop of TopK
// calls would pay per query. Work is grouped by shard — each shard's
// mutex is taken once and its queries run sequentially on it (the EM
// machines are sequential), while distinct shards proceed in
// parallel. Answers are positionally aligned with qs and
// byte-identical to calling TopK once per query on the same topology;
// invalid queries (k ≤ 0, inverted or NaN bounds) yield nil.
func (r *Router) QueryBatch(qs []point.Query) [][]point.P {
	if len(qs) == 0 {
		return nil
	}
	out := make([][]point.P, len(qs))
	t := r.snapshot()
	type task struct{ qi, slot int }
	tasks := make([][]task, len(t.shards))
	lists := make([][][]point.P, len(qs))
	for qi, q := range qs {
		if q.K <= 0 || q.X1 > q.X2 || math.IsNaN(q.X1) || math.IsNaN(q.X2) {
			continue
		}
		lo, hi := t.locate(q.X1), t.locate(q.X2)
		lists[qi] = make([][]point.P, hi-lo+1)
		for si := lo; si <= hi; si++ {
			tasks[si] = append(tasks[si], task{qi, si - lo})
		}
	}
	var fns []func()
	for si, ts := range tasks {
		if len(ts) == 0 {
			continue
		}
		s, ts := t.shards[si], ts
		fns = append(fns, func() {
			s.mu.Lock()
			defer s.mu.Unlock()
			for _, t := range ts {
				q := qs[t.qi]
				lists[t.qi][t.slot] = s.ix.Query(q.X1, q.X2, q.K)
			}
		})
	}
	if len(fns) > 0 {
		merge.Parallel(fns)
	}
	for qi, ls := range lists {
		if ls != nil {
			out[qi] = merge.TopK(ls, qs[qi].K)
		}
	}
	return out
}
