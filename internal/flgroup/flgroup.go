// Package flgroup implements the approximate (f,l)-group k-selection
// structure of §4 of the paper (Lemma 6), together with the prefix-set
// structure of Lemma 8.
//
// The input is an (f,l)-group G = (G_1, …, G_f): f disjoint sets of at
// most l real values each. A query (q=[α1,α2], k) returns a value whose
// rank in ∪_{i∈q} G_i falls in [k, c2·k], where c2 is a constant. The
// structure occupies O(fl/B) blocks and supports queries, insertions and
// deletions in O(log_B(fl)) I/Os (amortized for updates).
//
// Components, exactly as §4 lays them out:
//
//   - a B-tree on every G_i (local rank ↔ element, §4.2);
//   - a B-tree on G = ∪G_i (global rank ↔ element, §4.1);
//   - the compressed sketch set: one logarithmic sketch per G_i, each
//     pivot described only by its global rank in G and its local rank in
//     G_i, bit-packed into a single block (§4.1). Queries read this one
//     block, run the Lemma 7 merge in memory on the rank-encoded pivots,
//     and convert the resulting global rank to an element through the
//     B-tree on G;
//   - the compressed prefix set of Lemma 8: the global ranks of the
//     √B·log_B(fl) largest elements of every G_i, bit-packed into one
//     block, so a batch of local→global rank conversions (needed when
//     many small-window pivots invalidate at once) costs a single I/O;
//   - a per-set maxima array in one block, the "slightly augmented
//     B-tree" capability of §3.3: the maximum of G_{α1} ∪ … ∪ G_{α2} in
//     O(1) I/Os.
//
// Updates follow §4.2/§4.3: global/local ranks of all pivots shift
// deterministically given (r_new, i), so the new compressed sketch set
// is deduced in memory and written back in one I/O; sketches expand or
// shrink when |G_i| crosses a power of the base; invalidated pivots are
// repaired with the element of local rank ⌊(3/2)·base^(j−1)⌋, fetched
// from the prefix block when the target is inside the prefix and from
// the B-trees otherwise.
//
// One deliberate deviation from the paper's prose, documented here
// because tests pin it: Lemma 8's insertion step says "if e_new should
// not enter P_i, the insertion is complete", but an insertion anywhere
// shifts the global ranks of prefix elements ranked below e_new in other
// sets too. This implementation always applies the global-rank shift
// (one extra read-modify-write of the prefix block, bound unchanged).
package flgroup

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/btree"
	"repro/internal/em"
	"repro/internal/em/bitpack"
	"repro/internal/sketch"
)

// Group is the (f,l)-structure. Create with New or Bulk.
type Group struct {
	d    *em.Disk
	f, l int
	base int

	prefLen int // √B·log_B(fl), the Lemma 8 prefix length

	gis []*btree.Tree // B-tree per G_i
	g   *btree.Tree   // B-tree on G

	blocks *em.Store[[]uint64]
	skb    em.Handle // compressed sketch set
	pfb    em.Handle // compressed prefix set
	mxb    em.Handle // per-set maxima (float64 bits)

	wG, wL int // bit widths for global and local ranks

	// qs is Select's working memory, reused across queries (a Group
	// is single-threaded, like the structure that owns it): the
	// queried sets' pivot ranks and the sketch merge's lists.
	qs struct {
		ranked [][]int
		merge  sketch.Scratch
	}
	// us is Insert's and Delete's working memory, reused across
	// updates: the decoded sketch and prefix sets, and the writer that
	// packs them back into their blocks' storage.
	us struct {
		s    sketches
		pref [][]int
		w    bitpack.Writer
	}
}

// Bound returns the approximation constant c2: a query's result has rank
// in [k, Bound()·k] in the queried union.
func (g *Group) Bound() int { return sketch.MergeBound(g.base) }

// New creates an empty (f,l)-group structure on d with the paper's
// sketch base 2.
func New(d *em.Disk, f, l int) *Group {
	return NewBase(d, f, l, sketch.DefaultBase)
}

// NewBase creates an empty structure with an explicit sketch base (for
// the base ablation experiment).
func NewBase(d *em.Disk, f, l, base int) *Group {
	g, _ := bulk(d, f, l, base, make([][]float64, f))
	return g
}

// Bulk builds the structure with the paper's sketch base over sets,
// where sets[i] holds G_{i+1} in ascending order (at most l values; no
// value in two sets). It merges the sets into G, bulk-loads the
// B-trees and encodes each compressed block once, in O(fl/B) I/Os and
// O(|G|·lg f) comparisons. It also returns G in ascending order, from
// which the §3.3 tree takes its node's own G set without sorting again.
func Bulk(d *em.Disk, f, l int, sets [][]float64) (*Group, []float64) {
	return bulk(d, f, l, sketch.DefaultBase, sets)
}

// bulk builds the structure over sets and returns it with their union.
// Pivot j of Σ_i is the element of local rank pivotRank, where a repair
// would put it, and prefix entry r is the global rank of G_i's r-th
// largest element.
func bulk(d *em.Disk, f, l, base int, sets [][]float64) (*Group, []float64) {
	if f < 1 || l < 1 {
		panic("flgroup: f and l must be positive")
	}
	if len(sets) != f {
		panic(fmt.Sprintf("flgroup: %d sets for f=%d", len(sets), f))
	}
	logB := math.Log(float64(f)*float64(l)) / math.Log(float64(d.B()))
	if logB < 1 {
		logB = 1
	}
	prefLen := int(math.Sqrt(float64(d.B())) * logB)
	if prefLen < 1 {
		prefLen = 1
	}
	if prefLen > l {
		prefLen = l
	}
	for _, set := range sets {
		if len(set) > l {
			panic("flgroup: G_i larger than l")
		}
	}
	union := merge(sets)
	g := &Group{
		d: d, f: f, l: l, base: base,
		prefLen: prefLen,
		g:       btree.Bulk(d, "flg.G", union),
		blocks:  em.NewStore(d, "flg.blk", func(w []uint64) int { return max(1, len(w)) }),
		wG:      bitpack.Width(uint64(f*l + 1)),
		wL:      bitpack.Width(uint64(l + 1)),
	}
	// globalRank is the rank |{e' ≥ v}| in G of a member v.
	globalRank := func(v float64) int {
		i, _ := slices.BinarySearch(union, v)
		return len(union) - i
	}
	g.us.s = emptySketches(f)
	g.us.pref = make([][]int, f)
	s, pref := &g.us.s, g.us.pref
	mx := make([]uint64, f)
	for i, set := range sets {
		g.gis = append(g.gis, btree.Bulk(d, fmt.Sprintf("flg.G%d", i), set))
		n := len(set)
		s.sizes[i] = n
		for j := 1; j <= sketch.NumPivots(n, base); j++ {
			r := pivotRank(j, base, n)
			s.piv[i] = append(s.piv[i], pivotR{G: globalRank(set[n-r]), L: r})
		}
		for r := 1; r <= min(prefLen, n); r++ {
			pref[i] = append(pref[i], globalRank(set[n-r]))
		}
		if n > 0 {
			mx[i] = math.Float64bits(set[n-1])
		}
	}
	g.skb = g.blocks.Alloc(g.encodeSketches(nil, s))
	g.pfb = g.blocks.Alloc(g.encodePrefix(nil, pref))
	g.mxb = g.blocks.Alloc(mx)
	return g, union
}

// merge returns the union of sets, each ascending, in ascending order.
// It merges the sets pairwise in rounds, between two buffers of |G|
// values: O(|G|·lg f) comparisons where a sort of the concatenation
// costs O(|G|·lg |G|). A value in two sets appears twice, which the
// B-tree on G rejects.
func merge(sets [][]float64) []float64 {
	src := slices.Concat(sets...)
	ends := make([]int, 1, len(sets)+1) // run r is src[ends[r]:ends[r+1]]
	for _, set := range sets {
		ends = append(ends, ends[len(ends)-1]+len(set))
	}
	dst := make([]float64, len(src))
	for len(ends) > 2 {
		next := ends[:1] // overwrites only entries already read
		for r := 0; r+1 < len(ends); r += 2 {
			lo, mid, hi := ends[r], ends[r+1], ends[r+1]
			if r+2 < len(ends) {
				hi = ends[r+2]
			}
			merge2(dst[lo:hi], src[lo:mid], src[mid:hi])
			next = append(next, hi)
		}
		ends = next
		src, dst = dst, src
	}
	return src
}

// merge2 merges ascending a and b into dst, which holds len(a)+len(b).
func merge2(dst, a, b []float64) {
	i, j := 0, 0
	for k := range dst {
		if j == len(b) || (i < len(a) && a[i] <= b[j]) {
			dst[k] = a[i]
			i++
		} else {
			dst[k] = b[j]
			j++
		}
	}
}

// F and L return the structure's parameters.
func (g *Group) F() int { return g.f }
func (g *Group) L() int { return g.l }

// Len returns |G|.
func (g *Group) Len() int { return g.g.Len() }

// SizeOf returns |G_i| (i is 1-based, as in the paper's α indices).
func (g *Group) SizeOf(i int) int { return g.gis[i-1].Len() }

// --- compressed representations --------------------------------------

// pivotR is a rank-encoded pivot: global rank in G, local rank in G_i.
type pivotR struct{ G, L int }

// sketches is the decoded compressed sketch set.
type sketches struct {
	sizes []int
	piv   [][]pivotR
}

func emptySketches(f int) sketches {
	return sketches{sizes: make([]int, f), piv: make([][]pivotR, f)}
}

// encodeSketches bit-packs the sketch set into buf's storage (growing
// it if needed) and returns the packed words: per set, its size
// followed by NumPivots(size) (G, L) pairs. Pivot counts are derived
// from sizes, so no length fields are needed.
func (g *Group) encodeSketches(buf []uint64, s *sketches) []uint64 {
	w := &g.us.w
	w.Reset(buf)
	for i := 0; i < g.f; i++ {
		w.Put(uint64(s.sizes[i]), g.wL)
		for _, p := range s.piv[i] {
			w.Put(uint64(p.G), g.wG)
			w.Put(uint64(p.L), g.wL)
		}
	}
	return w.Words()
}

// decodeSketches unpacks a compressed sketch set into s, whose f sets
// keep their storage.
func (g *Group) decodeSketches(s *sketches, words []uint64) {
	r := bitpack.NewReader(words)
	for i := 0; i < g.f; i++ {
		s.sizes[i] = int(r.Get(g.wL))
		n := sketch.NumPivots(s.sizes[i], g.base)
		s.piv[i] = s.piv[i][:0]
		for j := 0; j < n; j++ {
			s.piv[i] = append(s.piv[i], pivotR{G: int(r.Get(g.wG)), L: int(r.Get(g.wL))})
		}
	}
}

// encodePrefix bit-packs the prefix set into buf's storage (growing it
// if needed) and returns the packed words: per set, min(prefLen, |G_i|)
// global ranks in decreasing-value order; the local rank of entry r is
// implicitly r+1. Entry counts are derived from the sketch sizes, so a
// small explicit count per set is stored to keep the block
// self-contained.
func (g *Group) encodePrefix(buf []uint64, pref [][]int) []uint64 {
	w := &g.us.w
	w.Reset(buf)
	for i := 0; i < g.f; i++ {
		w.Put(uint64(len(pref[i])), g.wL)
		for _, gr := range pref[i] {
			w.Put(uint64(gr), g.wG)
		}
	}
	return w.Words()
}

// decodePrefix unpacks a compressed prefix set into pref, whose f sets
// keep their storage.
func (g *Group) decodePrefix(pref [][]int, words []uint64) {
	r := bitpack.NewReader(words)
	for i := 0; i < g.f; i++ {
		n := int(r.Get(g.wL))
		pref[i] = pref[i][:0]
		for j := 0; j < n; j++ {
			pref[i] = append(pref[i], int(r.Get(g.wG)))
		}
	}
}

// SketchBits returns the bit size of the compressed sketch set and the
// prefix set, for the §4.1/§4.4 "fits in one block" verification
// (experiment E9).
func (g *Group) SketchBits() (sketchBits, prefixBits int) {
	s := g.blocks.Peek(g.skb)
	p := g.blocks.Peek(g.pfb)
	return 64 * len(s), 64 * len(p)
}

// PrefLen returns the Lemma 8 prefix length √B·log_B(fl).
func (g *Group) PrefLen() int { return g.prefLen }

// --- queries ----------------------------------------------------------

// Select returns a value x whose rank in G_{α1} ∪ … ∪ G_{α2} falls in
// [k, Bound()·k] (α 1-based inclusive, 1 ≤ k ≤ |union|). x is −∞ when
// the union holds fewer than base·k values. Cost: one block read for the
// compressed sketch set plus an O(log_B(fl)) B-tree descent to convert
// the selected global rank to an element.
func (g *Group) Select(a1, a2, k int) float64 {
	if a1 < 1 || a2 > g.f || a1 > a2 {
		panic("flgroup: bad set range")
	}
	if k < 1 {
		panic("flgroup: k must be ≥ 1")
	}
	r := bitpack.NewReader(g.blocks.Read(g.skb))
	ranked := g.qs.ranked[:0]
	for i := 0; i < a2; i++ {
		size := int(r.Get(g.wL))
		np := sketch.NumPivots(size, g.base)
		if i < a1-1 {
			r.Seek(r.Pos() + np*(g.wG+g.wL))
			continue
		}
		if len(ranked) < cap(ranked) {
			ranked = ranked[:len(ranked)+1]
		} else {
			ranked = append(ranked, nil)
		}
		gr := ranked[len(ranked)-1][:0]
		for range np {
			gr = append(gr, int(r.Get(g.wG)))
			r.Get(g.wL)
		}
		ranked[len(ranked)-1] = gr
	}
	g.qs.ranked = ranked
	gstar := g.qs.merge.MergeRanked(ranked, g.base, k)
	if gstar == 0 {
		return math.Inf(-1)
	}
	v, ok := g.g.SelectDesc(gstar)
	if !ok {
		panic("flgroup: stale global rank in sketch block")
	}
	return v
}

// nextSize reads the next set's size from a compressed sketch set and
// skips that set's pivots.
func (g *Group) nextSize(r *bitpack.Reader) int {
	size := int(r.Get(g.wL))
	r.Seek(r.Pos() + sketch.NumPivots(size, g.base)*(g.wG+g.wL))
	return size
}

// MaxIn returns the maximum of G_{α1} ∪ … ∪ G_{α2} in O(1) I/Os (one
// block holding per-set maxima), with ok=false when the union is empty.
func (g *Group) MaxIn(a1, a2 int) (float64, bool) {
	if a1 < 1 || a2 > g.f || a1 > a2 {
		panic("flgroup: bad set range")
	}
	mx := g.blocks.Read(g.mxb)
	r := bitpack.NewReader(g.blocks.Read(g.skb))
	best, ok := 0.0, false
	for i := 0; i < a2; i++ {
		if g.nextSize(r) == 0 || i < a1-1 {
			continue
		}
		v := math.Float64frombits(mx[i])
		if !ok || v > best {
			best, ok = v, true
		}
	}
	return best, ok
}

// CountIn returns |G_{α1} ∪ … ∪ G_{α2}| in one block read.
func (g *Group) CountIn(a1, a2 int) int {
	r := bitpack.NewReader(g.blocks.Read(g.skb))
	n := 0
	for i := 0; i < a2; i++ {
		if size := g.nextSize(r); i >= a1-1 {
			n += size
		}
	}
	return n
}

// Free releases every block the structure occupies.
func (g *Group) Free() {
	for _, tr := range g.gis {
		tr.Free()
	}
	g.g.Free()
	g.blocks.Free(g.skb)
	g.blocks.Free(g.pfb)
	g.blocks.Free(g.mxb)
}

// MinOf returns the smallest element of G_i (1-based), if any.
func (g *Group) MinOf(i int) (float64, bool) { return g.gis[i-1].Min() }

// MaxOf returns the largest element of G_i (1-based), if any.
func (g *Group) MaxOf(i int) (float64, bool) { return g.gis[i-1].Max() }

// Contains reports whether v is present in G_i (1-based).
func (g *Group) Contains(i int, v float64) bool { return g.gis[i-1].Contains(v) }

// KeysOf returns G_i (1-based) in ascending order, reading its whole
// B-tree: O(l/B) I/Os.
func (g *Group) KeysOf(i int) []float64 { return g.gis[i-1].Keys() }

// SelectExact returns the element of exact rank r in the FULL union G
// (not a sub-range), through the B-tree on G in O(log_B(fl)) I/Os. The
// §3.3 update algorithm uses it to find the (c2·l+1)-th score of a
// subtree when refilling G_u after a deletion.
func (g *Group) SelectExact(r int) (float64, bool) { return g.g.SelectDesc(r) }

// AppendTopIn appends to dst the m largest elements of G_{α1} ∪ … ∪
// G_{α2} in descending order. It costs O((α2−α1+1)·(m + log_B l)) I/Os
// (per-set B-tree walks) and exists for the degenerate-regime fallback
// of the §3.3 query, where subtrees are too small for the AURS
// precondition; in-regime queries never call it.
func (g *Group) AppendTopIn(dst []float64, a1, a2, m int) []float64 {
	n0 := len(dst)
	for i := a1 - 1; i < a2; i++ {
		take := m
		if n := g.gis[i].Len(); take > n {
			take = n
		}
		for r := 1; r <= take; r++ {
			v, _ := g.gis[i].SelectDesc(r)
			dst = append(dst, v)
		}
	}
	slices.SortFunc(dst[n0:], func(a, b float64) int { return cmp.Compare(b, a) })
	if len(dst) > n0+m {
		dst = dst[:n0+m]
	}
	return dst
}

// --- updates ----------------------------------------------------------

// globalRankOf returns the current global rank of a present element.
func (g *Group) globalRankOf(v float64) int { return g.g.RankDesc(v) }

// fetchGlobal returns the global rank of the element of local rank r in
// G_i (0-based i), using the prefix block when r is inside the prefix
// (1 I/O) and the B-trees otherwise (O(log_B(fl)) I/Os). pref may be nil
// to force the B-tree path.
func (g *Group) fetchGlobal(i, r int, pref [][]int) (int, float64) {
	if pref != nil && r <= len(pref[i]) {
		gr := pref[i][r-1]
		v, ok := g.g.SelectDesc(gr)
		if !ok {
			panic("flgroup: stale prefix entry")
		}
		return gr, v
	}
	v, ok := g.gis[i].SelectDesc(r)
	if !ok {
		panic("flgroup: local rank out of range")
	}
	return g.g.RankDesc(v), v
}

// pivotRank is the local rank at which pivot j (1-based) of a set of
// size n is placed: min(⌊(3/2)·base^(j−1)⌋, n), the §4.2 replacement
// that takes Ω(base^(j−1)) updates to invalidate again. The rank is at
// least 1 because base^(j−1) is.
func pivotRank(j, base, n int) int { return min(3*sketch.WindowLo(j, base)/2, n) }

// replacePivot sets pivot j (1-based) of sketch i to the element of
// local rank pivotRank.
func (g *Group) replacePivot(s *sketches, i, j int, pref [][]int) {
	target := pivotRank(j, g.base, s.sizes[i])
	gr, _ := g.fetchGlobal(i, target, pref)
	s.piv[i][j-1] = pivotR{G: gr, L: target}
}

// repair replaces every invalidated pivot of sketch i: one whose local
// rank has left its window [base^(j−1), base^j).
func (g *Group) repair(s *sketches, i int, pref [][]int) {
	for j := 1; j <= len(s.piv[i]); j++ {
		lo := sketch.WindowLo(j, g.base)
		if L := s.piv[i][j-1].L; L < lo || L >= lo*g.base {
			g.replacePivot(s, i, j, pref)
		}
	}
}

// Insert adds v to G_i (1-based), in O(log_B(fl)) amortized I/Os.
func (g *Group) Insert(i int, v float64) {
	i--
	if g.gis[i].Len() >= g.l {
		panic("flgroup: G_i full (caller must keep |G_i| ≤ l)")
	}
	if g.g.Contains(v) {
		panic("flgroup: duplicate value across the group")
	}
	rnew := g.g.CountGE(v) + 1 // global rank of v once inserted

	// B-trees first so rank fetches below see the new element.
	g.g.Insert(v)
	g.gis[i].Insert(v)

	// Compressed sketch set: deduce the new one from (r_new, i) — §4.2.
	// Both compressed blocks are decoded into the update scratch and
	// re-encoded into their own storage.
	skw := g.blocks.Read(g.skb)
	s := &g.us.s
	g.decodeSketches(s, skw)
	for si := range s.piv {
		for j := range s.piv[si] {
			if s.piv[si][j].G >= rnew {
				s.piv[si][j].G++
				if si == i {
					s.piv[si][j].L++
				}
			}
		}
	}
	s.sizes[i]++
	if want := sketch.NumPivots(s.sizes[i], g.base); want > len(s.piv[i]) {
		// Σ_i expands: the new pivot is the smallest element of G_i.
		mn, _ := g.gis[i].Min()
		s.piv[i] = append(s.piv[i], pivotR{G: g.g.RankDesc(mn), L: s.sizes[i]})
	}

	// Prefix set (Lemma 8): shift global ranks everywhere; splice v into
	// P_i if it ranks inside the prefix.
	pfw := g.blocks.Read(g.pfb)
	pref := g.us.pref
	g.decodePrefix(pref, pfw)
	for si := range pref {
		for j := range pref[si] {
			if pref[si][j] >= rnew {
				pref[si][j]++
			}
		}
	}
	lnew := g.gis[i].RankDesc(v)
	if lnew <= g.prefLen {
		at := lnew - 1
		pref[i] = append(pref[i], 0)
		copy(pref[i][at+1:], pref[i][at:])
		pref[i][at] = rnew
		if len(pref[i]) > g.prefLen {
			pref[i] = pref[i][:g.prefLen]
		}
	} else if len(pref[i]) < g.prefLen && len(pref[i]) < s.sizes[i] {
		// Prefix was short only because G_i was small; extend it.
		gr, _ := g.fetchGlobal(i, len(pref[i])+1, nil)
		pref[i] = append(pref[i], gr)
	}

	// Repair invalidated pivots of Σ_i, then persist everything.
	g.repair(s, i, pref)
	g.blocks.Write(g.skb, g.encodeSketches(skw, s))
	g.blocks.Write(g.pfb, g.encodePrefix(pfw, pref))

	// Maxima block.
	mx := g.blocks.Read(g.mxb)
	if s.sizes[i] == 1 || v > math.Float64frombits(mx[i]) {
		mx[i] = math.Float64bits(v)
		g.blocks.Write(g.mxb, mx)
	}
}

// Delete removes v from G_i (1-based), reporting whether it was present.
func (g *Group) Delete(i int, v float64) bool {
	i--
	if !g.gis[i].Contains(v) {
		return false
	}
	rold := g.globalRankOf(v)

	g.g.Delete(v)
	g.gis[i].Delete(v)

	// §4.3: deduce the new compressed sketch set from (r_old, i).
	skw := g.blocks.Read(g.skb)
	s := &g.us.s
	g.decodeSketches(s, skw)
	dangling := 0
	for j := range s.piv[i] {
		if s.piv[i][j].G == rold {
			dangling = j + 1
		}
	}
	for si := range s.piv {
		for j := range s.piv[si] {
			if s.piv[si][j].G > rold {
				s.piv[si][j].G--
				if si == i {
					s.piv[si][j].L--
				}
			}
		}
	}
	s.sizes[i]--
	if want := sketch.NumPivots(s.sizes[i], g.base); want < len(s.piv[i]) {
		s.piv[i] = s.piv[i][:want] // Σ_i shrinks
		if dangling > want {
			dangling = 0
		}
	}

	// Prefix set: shift, remove v from P_i if present, refill the tail.
	pfw := g.blocks.Read(g.pfb)
	pref := g.us.pref
	g.decodePrefix(pref, pfw)
	for si := range pref {
		for j := range pref[si] {
			if si == i && pref[si][j] == rold {
				pref[si] = append(pref[si][:j], pref[si][j+1:]...)
				break
			}
		}
		for j := range pref[si] {
			if pref[si][j] > rold {
				pref[si][j]--
			}
		}
	}
	if len(pref[i]) < g.prefLen && len(pref[i]) < s.sizes[i] {
		gr, _ := g.fetchGlobal(i, len(pref[i])+1, nil)
		pref[i] = append(pref[i], gr)
	}

	// Replace a dangling pivot, then repair any invalidated ones.
	if dangling > 0 {
		g.replacePivot(s, i, dangling, pref)
	}
	g.repair(s, i, pref)
	g.blocks.Write(g.skb, g.encodeSketches(skw, s))
	g.blocks.Write(g.pfb, g.encodePrefix(pfw, pref))

	// Maxima block.
	mx := g.blocks.Read(g.mxb)
	if s.sizes[i] == 0 {
		mx[i] = 0
		g.blocks.Write(g.mxb, mx)
	} else if math.Float64frombits(mx[i]) == v {
		nm, _ := g.gis[i].Max()
		mx[i] = math.Float64bits(nm)
		g.blocks.Write(g.mxb, mx)
	}
	return true
}
