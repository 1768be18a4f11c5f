package shard

// This file is the EXECUTION layer of the router: the parallel fan-out
// machinery that answers reads over one pinned topology snapshot.
// Nothing here touches the topology lock — a read pins the snapshot
// with one atomic load and then deals only in per-shard mutexes (each
// shard is a sequential EM machine whose buffer-pool LRU state even
// queries mutate; DESIGN.md Substitution 1).
//
// A read fans out through a pooled frame: each shard a query overlaps
// appends its answer, unsorted, to the frame's buffer for that shard
// (core.Index.AppendQuery), and the router then selects the k highest
// of their union once and sorts only those. Count fans out through
// fanOut and the panic-propagating runner of internal/merge, which
// the network cluster tier shares.

import (
	"math"
	"sync"
	"sync/atomic"

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
	lo, hi := t.locate(x1), t.locate(x2)
	setup(hi - lo + 1)
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

// frame is one read's working memory: a slot per shard the read
// overlaps, holding the queries that shard answers and the buffer its
// answers are appended to back to back; the union a query's answer is
// selected from; the sort kernel's scratch; and the goroutine bodies
// that fill the slots. Frames come from framePool, so a warm read
// allocates its answers and nothing else.
type frame struct {
	t      *topology
	qs     []point.Query
	one    [1]point.Query // TopK's query, kept here so it needs no slice
	slots  []slot
	slotOf []int // topology index → slot, −1 for a shard no query reads
	runs   []func()
	wg     sync.WaitGroup
	failed atomic.Pointer[shardPanic]
	union  []point.P
	sort   []point.P
}

// slot is one shard's share of a read.
type slot struct {
	shard int       // topology index
	tasks []int     // indexes into the frame's queries, ascending
	buf   []point.P // the tasks' answers, back to back, unsorted
	ends  []int     // ends[j] is where tasks[j]'s answer ends in buf
	next  int       // the next task gather reads
}

// shardPanic carries a recovered panic from a slot to the caller.
type shardPanic struct{ v any }

// framePool recycles frames across reads. Buffers longer than
// frameMaxPoints (1 MiB of points) are dropped when their frame goes
// back, like cluster's body buffers, so one huge answer does not pin
// its memory for the life of the process.
var framePool = sync.Pool{New: func() any { return new(frame) }}

const frameMaxPoints = 1 << 20 / 16

// getFrame returns a pooled frame that reads snapshot t.
func getFrame(t *topology) *frame {
	f := framePool.Get().(*frame)
	f.t = t
	return f
}

// release returns f to the pool without the snapshot and queries it
// read, so a pooled frame pins no retired shard.
func (f *frame) release() {
	f.t, f.qs, f.one = nil, nil, [1]point.Query{}
	keep := func(b []point.P) []point.P {
		if cap(b) > frameMaxPoints {
			return nil
		}
		return b
	}
	f.union, f.sort = keep(f.union), keep(f.sort)
	for i := range f.slots {
		f.slots[i].buf = keep(f.slots[i].buf)
	}
	framePool.Put(f)
}

// read answers qs over f's snapshot into out, aligned with qs: it
// plans one slot per shard the valid queries overlap, fills the slots,
// then gathers each query's pieces, selects its k highest once and
// sorts only those. An invalid query (k ≤ 0, inverted or NaN bounds)
// yields nil.
func (f *frame) read(qs []point.Query, out [][]point.P) {
	t := f.t
	f.qs = qs
	f.slotOf = f.slotOf[:0]
	for range t.shards {
		f.slotOf = append(f.slotOf, -1)
	}
	n := 0
	for qi, q := range f.qs {
		if !valid(q) {
			continue
		}
		lo, hi := t.locate(q.X1), t.locate(q.X2)
		for si := lo; si <= hi; si++ {
			if f.slotOf[si] < 0 {
				if n == len(f.slots) {
					f.slots = append(f.slots, slot{})
				}
				f.slotOf[si] = n
				f.slots[n].shard, f.slots[n].tasks, f.slots[n].next = si, f.slots[n].tasks[:0], 0
				n++
			}
			sl := &f.slots[f.slotOf[si]]
			sl.tasks = append(sl.tasks, qi)
		}
	}
	if n == 0 {
		return
	}
	f.scatter(n)
	for qi, q := range f.qs {
		if !valid(q) {
			continue
		}
		lo, hi := t.locate(q.X1), t.locate(q.X2)
		if lo == hi {
			out[qi] = f.top(f.piece(lo), q.K)
			continue
		}
		f.union = f.union[:0]
		for si := lo; si <= hi; si++ {
			f.union = append(f.union, f.piece(si)...)
		}
		out[qi] = f.top(f.union, q.K)
	}
}

// piece returns the next answer, in query order, that shard si's slot
// holds.
func (f *frame) piece(si int) []point.P {
	sl := &f.slots[f.slotOf[si]]
	start := 0
	if sl.next > 0 {
		start = sl.ends[sl.next-1]
	}
	sl.next++
	return sl.buf[start:sl.ends[sl.next-1]]
}

// valid reports whether q can match a point: k > 0 and an ordered
// pair of non-NaN bounds. NaN bounds must be rejected before locate,
// whose binary search they defeat (every comparison with NaN is
// false), as they defeat the x1 > x2 guard.
func valid(q point.Query) bool {
	return q.K > 0 && q.X1 <= q.X2 && !math.IsNaN(q.X1) && !math.IsNaN(q.X2)
}

// scatter fills slots [0, n): slot 0 on the caller's goroutine, each
// other on a goroutine of its own, the frame's WaitGroup joining them.
// A panic in a slot (an internal invariant violation: caller input is
// rejected before it reaches a shard) is re-raised here once every
// slot has finished, since an unrecovered goroutine panic would kill
// the process; shard mutexes are released by the slots' own defers.
func (f *frame) scatter(n int) {
	for i := len(f.runs); i < n; i++ {
		f.runs = append(f.runs, func() {
			defer f.wg.Done()
			f.fill(i)
		})
	}
	f.wg.Add(n - 1)
	for _, run := range f.runs[1:n] {
		go run()
	}
	f.fill(0)
	f.wg.Wait()
	if p := f.failed.Swap(nil); p != nil {
		panic(p.v)
	}
}

// fill runs slot i's queries on its shard, under the shard's mutex,
// appending each answer to the slot's buffer.
func (f *frame) fill(i int) {
	defer func() {
		if v := recover(); v != nil {
			f.failed.CompareAndSwap(nil, &shardPanic{v})
		}
	}()
	sl := &f.slots[i]
	s := f.t.shards[sl.shard]
	s.mu.Lock()
	defer s.mu.Unlock()
	sl.buf, sl.ends = sl.buf[:0], sl.ends[:0]
	for _, qi := range sl.tasks {
		q := f.qs[qi]
		sl.buf = s.ix.AppendQuery(sl.buf, q.X1, q.X2, q.K)
		sl.ends = append(sl.ends, len(sl.buf))
	}
}

// top selects the k highest-scoring points of cands, which it may
// reorder, and returns them in a fresh slice sorted by descending
// score, nil when there are none: the one allocation a warm read makes
// per answer.
func (f *frame) top(cands []point.P, k int) []point.P {
	sel := point.Select(cands, k)
	if len(sel) == 0 {
		return nil
	}
	out := make([]point.P, len(sel))
	copy(out, sel)
	f.sort = point.SortByScoreDescBuf(out, f.sort)
	return out
}

// TopK returns the k highest-scoring points with position in [x1, x2]
// in descending score order. The read is linearized at the moment it
// pins the topology snapshot.
//
// An interval inside one shard — the common case for range-local
// workloads — takes the topKSingle fast path: no frame, no goroutine;
// the router layer adds zero allocations over the underlying
// Index.Query (TestRouterTopKAddsNoAllocs holds it there). A wider
// interval reads through a pooled frame: every overlapped shard
// appends its unsorted answer in parallel, and the router selects k
// of their union and sorts them, allocating only the answer
// (TestRouterFanOutAllocs).
func (r *Router) TopK(x1, x2 float64, k int) []point.P {
	q := point.Query{X1: x1, X2: x2, K: k}
	if !valid(q) {
		return nil
	}
	t := r.snapshot()
	if lo := t.locate(x1); lo == t.locate(x2) {
		return topKSingle(t, lo, x1, x2, k)
	}
	f := getFrame(t)
	f.one[0] = q
	var out [1][]point.P
	f.read(f.one[:], out[:])
	f.release()
	return out[0]
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
// parallel; each query then selects and sorts once over its shards'
// answers, as TopK does. Answers are positionally aligned with qs and
// byte-identical to calling TopK once per query on the same topology;
// invalid queries (k ≤ 0, inverted or NaN bounds) yield nil.
func (r *Router) QueryBatch(qs []point.Query) [][]point.P {
	if len(qs) == 0 {
		return nil
	}
	out := make([][]point.P, len(qs))
	f := getFrame(r.snapshot())
	f.read(qs, out)
	f.release()
	return out
}
