// Package merge holds the scatter-gather primitives of the serving
// stack's fan-out layers: the k-way heap-merge that combines
// per-partition descending-score answers into the global top k, and
// the parallel runner that executes per-partition work with panic
// propagation.
//
// internal/shard fans a query out to the local POSITION-partitioned
// shards and merges their answers; the merge is byte-identical to what
// a single sequential Index would report, because scores are distinct
// by the paper's standing assumption, so the merged descending order
// is unique. internal/cluster partitions the SCORE axis instead, so
// its per-band answers concatenate in band order and need no merge; it
// uses only the parallel runner, for counts, writes and admin fan-outs.
package merge

import (
	"sync"
	"sync/atomic"

	"repro/internal/heap"
	"repro/internal/point"
)

// Merger owns the reusable backing of a k-way merge: a max-heap of
// per-list read heads. Each head is a heap.Entry keyed by the next
// candidate's score, with the list index in the high 32 bits of Ref
// and the position within the list in the low 32, so the merge runs
// on the same concrete heap as the engine's selection and never boxes
// an entry into an interface. A Merger is not safe for concurrent use;
// TopK draws them from a pool.
type Merger struct {
	heap []heap.Entry
}

// cursor packs a read head's list and position into a heap.Entry Ref.
func cursor(list, idx int) int64 { return int64(list)<<32 | int64(idx) }

// NewMerger returns an empty Merger; backing grows on first use and
// is reused afterwards.
func NewMerger() *Merger { return &Merger{} }

// mergerPool recycles Mergers across TopK calls so the steady-state
// serving path performs no heap setup per query.
var mergerPool = sync.Pool{New: func() any { return NewMerger() }}

// TopKInto k-way merges per-partition descending-score lists into the
// global top k, preserving exact order (scores are distinct). k is
// clamped to the merged length first, so an absurd client-supplied k
// cannot drive the output allocation. The result is written into dst
// when its capacity suffices (dst is resliced from zero; its previous
// contents are ignored) — a warm Merger with an adequate dst performs
// zero allocations, which the //topk:nomalloc annotations on the loop
// guarantee and TestTopKIntoZeroAllocs enforces.
func (m *Merger) TopKInto(dst []point.P, lists [][]point.P, k int) []point.P {
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	if k > total {
		k = total
	}
	if k <= 0 {
		return dst[:0]
	}
	// Cold path: grow the output and heap backing outside the
	// annotated loop.
	if cap(dst) < k {
		dst = make([]point.P, 0, k)
	}
	if cap(m.heap) < len(lists) {
		m.heap = make([]heap.Entry, 0, len(lists))
	}
	return m.mergeLoop(dst[:k], lists)
}

// mergeLoop fills dst from the lists through the cursor heap. The
// caller has sized dst to the clamped k and m.heap to len(lists);
// everything here is reslicing and index assignment — append is
// banned in annotated functions even when capacity suffices.
//
//topk:nomalloc
func (m *Merger) mergeLoop(dst []point.P, lists [][]point.P) []point.P {
	h := m.heap[:0]
	for i := range lists {
		if len(lists[i]) > 0 {
			h = h[:len(h)+1]
			h[len(h)-1] = heap.Entry{Ref: cursor(i, 0), Key: lists[i][0].Score}
		}
	}
	heap.Init(h)
	n := 0
	for n < len(dst) && len(h) > 0 {
		list, idx := int(h[0].Ref>>32), int(uint32(h[0].Ref))
		dst[n] = lists[list][idx]
		n++
		if next := idx + 1; next < len(lists[list]) {
			h[0] = heap.Entry{Ref: cursor(list, next), Key: lists[list][next].Score}
			heap.Down(h, 0)
		} else {
			_, h = heap.Pop(h)
		}
	}
	m.heap = h[:0]
	return dst[:n]
}

// TopK k-way merges per-partition descending-score lists into the
// global top k. Semantics are unchanged from the original: nil when
// every list is empty, and a single non-empty list is returned by
// reference (truncated to k), not copied. The merge state comes from
// a pool, so the only steady-state allocation is the result slice
// itself.
func TopK(lists [][]point.P, k int) []point.P {
	nonEmpty := lists[:0]
	total := 0
	for _, l := range lists {
		if len(l) > 0 {
			nonEmpty = append(nonEmpty, l)
			total += len(l)
		}
	}
	if k > total {
		k = total
	}
	switch len(nonEmpty) {
	case 0:
		return nil
	case 1:
		if k < len(nonEmpty[0]) {
			return nonEmpty[0][:k]
		}
		return nonEmpty[0]
	}
	m := mergerPool.Get().(*Merger)
	out := m.TopKInto(make([]point.P, 0, k), nonEmpty, k)
	mergerPool.Put(m)
	return out
}

// panicBox carries a recovered panic value across goroutines with a
// single concrete type, as atomic.Value requires.
type panicBox struct{ v any }

// Parallel runs each fn in its own goroutine and waits for all.
// A panic inside a worker (an internal invariant violation — contract
// violations on caller input are rejected with errors before reaching
// here) is captured and re-raised on the caller's goroutine after
// every worker finishes — an unrecovered goroutine panic would kill
// the whole process, and locks held by workers are released by the
// workers' own defers.
func Parallel(fns []func()) {
	if len(fns) == 1 {
		fns[0]()
		return
	}
	var wg sync.WaitGroup
	var pv atomic.Value
	for _, f := range fns {
		wg.Add(1)
		go func(f func()) {
			defer wg.Done()
			defer func() {
				if v := recover(); v != nil {
					pv.CompareAndSwap(nil, &panicBox{v})
				}
			}()
			f()
		}(f)
	}
	wg.Wait()
	if b := pv.Load(); b != nil {
		panic(b.(*panicBox).v)
	}
}
