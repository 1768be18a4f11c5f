// Package heap provides the max-heap machinery of the §2 query
// algorithm: heap concatenation (Figure 2 of the paper) and extraction
// of the t largest keys from a heap-ordered structure.
//
// The paper invokes Frederickson's 1993 algorithm, which extracts the
// top t of a binary max-heap in O(t) CPU time. In the EM model CPU is
// free; SelectTop runs a best-first search with an in-memory priority
// queue that expands at most t nodes and therefore performs O(t) I/Os —
// the bound §2 needs (the paper cites Frederickson only to keep the CPU
// cost linear; see DESIGN.md, substitution 2). Heap nodes are navigated
// through the Source interface so that the structure of §2 (the tree T̂
// with pilot representatives as keys) can expose itself as a heap
// without materializing one.
//
// One concrete binary max-heap over []Entry (Init, Down, Pop) backs
// everything here: SelectTop's frontier, External's make-heap and the
// serving stack's k-way merge (internal/merge), so no caller goes
// through container/heap's interface boxing.
//
// The package also provides External, a concrete array-embedded binary
// max-heap stored in disk blocks with Floyd's linear-time make-heap, the
// "linear-time make-heap algorithm" of footnote 4, used to concatenate
// the heaps rooted at the nodes of Π (Figure 2) and in experiment E12.
package heap

import (
	"sort"

	"repro/internal/em"
)

// Entry is a heap element: an opaque reference and its sort key.
type Entry struct {
	Ref int64
	Key float64
}

// Source exposes a max-heap-ordered forest: every child's key is ≤ its
// parent's. Implementations charge their own I/Os (typically one block
// read per Children call). Both methods append to a buffer the caller
// owns and return it, so a caller with warm buffers allocates nothing.
type Source interface {
	// Roots appends the forest's root entries to buf.
	Roots(buf []Entry) []Entry
	// Children appends the child entries of ref to buf.
	Children(ref int64, buf []Entry) []Entry
}

// Init orders h as a max-heap by Key (Floyd's bottom-up make-heap).
//
//topk:nomalloc
func Init(h []Entry) {
	for i := len(h)/2 - 1; i >= 0; i-- {
		Down(h, i)
	}
}

// Down restores the heap order below index i after h[i] shrank.
//
//topk:nomalloc
func Down(h []Entry, i int) {
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		big := l
		if r := l + 1; r < len(h) && h[r].Key > h[l].Key {
			big = r
		}
		if h[big].Key <= h[i].Key {
			return
		}
		h[i], h[big] = h[big], h[i]
		i = big
	}
}

// up restores the heap order above index i after h[i] grew.
//
//topk:nomalloc
func up(h []Entry, i int) {
	for i > 0 {
		p := (i - 1) / 2
		if h[i].Key <= h[p].Key {
			return
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

// Pop removes the maximum of the non-empty heap h, returning it and
// the shortened heap.
//
//topk:nomalloc
func Pop(h []Entry) (Entry, []Entry) {
	top, n := h[0], len(h)-1
	h[0] = h[n]
	h = h[:n]
	Down(h, 0)
	return top, h
}

// Selector holds best-first selection's frontier heap between calls.
// The zero value is ready; a Selector is not safe for concurrent use.
type Selector struct {
	frontier []Entry
}

// SelectTop appends to dst the t largest entries reachable from src, in
// descending key order (fewer if the heap is smaller), and returns it.
// It expands exactly one node per emitted entry, so the I/O cost is
// O(t) times the per-node access cost of src. Once dst and the
// frontier have grown to the query's size, a call allocates nothing.
func (s *Selector) SelectTop(dst []Entry, src Source, t int) []Entry {
	if t <= 0 {
		return dst
	}
	h := src.Roots(s.frontier[:0])
	Init(h)
	for emitted := 0; emitted < t && len(h) > 0; emitted++ {
		var e Entry
		e, h = Pop(h)
		dst = append(dst, e)
		n := len(h)
		h = src.Children(e.Ref, h)
		for i := n; i < len(h); i++ {
			up(h, i)
		}
	}
	s.frontier = h[:0]
	return dst
}

// SelectTop is Selector.SelectTop into fresh buffers: the t largest
// entries reachable from src, in descending key order.
func SelectTop(src Source, t int) []Entry {
	if t <= 0 {
		return nil
	}
	var s Selector
	return s.SelectTop(make([]Entry, 0, t), src, t)
}

// Forest merges several sources into one (the trivial side of Figure 2:
// the concatenated heap H behaves exactly like the forest of the heaps
// H(v), v ∈ Π). Refs are namespaced by source index.
type Forest struct {
	Sources []Source
}

const forestShift = 40 // source index in high bits, ref in low bits

// SplitRef decomposes a Forest ref into its source index and the
// source's own ref, for callers that need to map selected entries back
// to the source they came from.
func SplitRef(ref int64) (source int, sourceRef int64) {
	return int(ref >> forestShift), ref & (1<<forestShift - 1)
}

// Roots implements Source.
func (f *Forest) Roots(buf []Entry) []Entry {
	for i, s := range f.Sources {
		n := len(buf)
		buf = s.Roots(buf)
		tag(buf[n:], int64(i)<<forestShift)
	}
	return buf
}

// Children implements Source.
func (f *Forest) Children(ref int64, buf []Entry) []Entry {
	i := ref >> forestShift
	n := len(buf)
	buf = f.Sources[i].Children(ref&(1<<forestShift-1), buf)
	tag(buf[n:], i<<forestShift)
	return buf
}

// tag ORs bits into the refs of es, namespacing them by their source.
func tag(es []Entry, bits int64) {
	for j := range es {
		es[j].Ref |= bits
	}
}

// External is an array-embedded binary max-heap on disk. The entry array
// is chunked into blocks of B() entries each; accessing entry i costs a
// block I/O for chunk i/B on a cold buffer pool.
type External struct {
	store *em.Store[[]Entry]
	chunk int // entries per chunk
	ids   []em.Handle
	n     int
}

// chunkWords is the size of a chunk in words (2 words per entry).
func chunkWords(es []Entry) int { return 2 * len(es) }

// NewExternal builds an External heap holding the given entries,
// heap-ordered with Floyd's bottom-up make-heap (O(n/B) I/Os when the
// buffer pool holds the working set; O(n) node touches regardless, each
// O(1/B) amortized with blocked layout).
func NewExternal(d *em.Disk, name string, entries []Entry) *External {
	h := &External{
		store: em.NewStore(d, name, chunkWords),
		chunk: d.B() / 2,
		n:     len(entries),
	}
	if h.chunk < 1 {
		h.chunk = 1
	}
	buf := append([]Entry(nil), entries...)
	// Floyd's make-heap in memory (CPU free), then write out in chunks.
	Init(buf)
	for i := 0; i < len(buf); i += h.chunk {
		end := i + h.chunk
		if end > len(buf) {
			end = len(buf)
		}
		h.ids = append(h.ids, h.store.Alloc(append([]Entry(nil), buf[i:end]...)))
	}
	return h
}

// Len returns the number of entries.
func (h *External) Len() int { return h.n }

// at reads entry i, charging a block I/O on a pool miss.
func (h *External) at(i int) Entry {
	return h.store.Read(h.ids[i/h.chunk])[i%h.chunk]
}

// Roots implements Source: refs are array indices.
func (h *External) Roots(buf []Entry) []Entry {
	if h.n == 0 {
		return buf
	}
	return append(buf, Entry{Ref: 0, Key: h.at(0).Key})
}

// Children implements Source.
func (h *External) Children(ref int64, buf []Entry) []Entry {
	for c := 2*ref + 1; c <= 2*ref+2 && c < int64(h.n); c++ {
		buf = append(buf, Entry{Ref: c, Key: h.at(int(c)).Key})
	}
	return buf
}

// Payload returns the entry stored at heap position ref (its original
// Ref field, which Roots/Children replace with positions).
func (h *External) Payload(ref int64) Entry { return h.at(int(ref)) }

// Free releases all chunks.
func (h *External) Free() {
	for _, id := range h.ids {
		h.store.Free(id)
	}
	h.ids = nil
	h.n = 0
}

// CheckHeapOrder verifies the max-heap property (meter-free test helper).
func (h *External) CheckHeapOrder() bool {
	for i := 1; i < h.n; i++ {
		if h.store.Peek(h.ids[i/h.chunk])[i%h.chunk].Key >
			h.store.Peek(h.ids[(i-1)/2/h.chunk])[((i-1)/2)%h.chunk].Key {
			return false
		}
	}
	return true
}

// Concat builds the concatenation of Figure 2: an External binary
// max-heap over the roots of the given sources. Selecting from the
// returned ConcatHeap explores root entries through the small heap and
// then descends into the original sources.
func Concat(d *em.Disk, name string, sources []Source) *ConcatHeap {
	f := &Forest{Sources: sources}
	roots := f.Roots(nil)
	return &ConcatHeap{top: NewExternal(d, name, roots), forest: f}
}

// ConcatHeap is the result of Concat: a two-layer heap whose upper layer
// is a materialized binary heap over the forest's roots and whose lower
// layers are the forest's own subtrees.
type ConcatHeap struct {
	top    *External
	forest *Forest
}

// refs ≥ concatLow address forest nodes; below, positions in top.
const concatLow = int64(1) << 62

// Roots implements Source.
func (c *ConcatHeap) Roots(buf []Entry) []Entry { return c.top.Roots(buf) }

// Children implements Source. A top-layer node's children are its two
// heap children plus the forest children of the root it carries.
func (c *ConcatHeap) Children(ref int64, buf []Entry) []Entry {
	if ref < concatLow {
		buf = c.top.Children(ref, buf)
		ref = c.top.Payload(ref).Ref + concatLow
	}
	n := len(buf)
	buf = c.forest.Children(ref-concatLow, buf)
	tag(buf[n:], concatLow)
	return buf
}

// Free releases the materialized top layer.
func (c *ConcatHeap) Free() { c.top.Free() }

// TopKeys is a convenience for tests: the t largest keys of src, sorted
// descending.
func TopKeys(src Source, t int) []float64 {
	es := SelectTop(src, t)
	keys := make([]float64, len(es))
	for i, e := range es {
		keys[i] = e.Key
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(keys)))
	return keys
}
