// Package polylog implements the structure of §3.3 of the paper
// (Lemma 4): approximate range k-selection — and through the standard
// reduction, top-k range reporting — for k ≤ l with l = O(polylg n), in
// O(n/B) space, O(log_B n) query I/Os and O(log_B n) amortized update
// I/Os. Theorem 1 uses it in the hardest regime B < lg⁶n, where
// k < B·lg n < lg⁷n is polylogarithmic.
//
// Layout, following §3.3 and the appendix update algorithm:
//
//   - a weight-balanced base tree over the x-coordinates with branching
//     parameter f = √(B·lg n) and leaf capacity b = f·l·B;
//   - for every node u but the root, the set G_u of the c2·l highest
//     scores in u's subtree. It is stored once, as u's set in its
//     parent's (f,l)-group, whose B-tree on that set is the score
//     B-tree the update algorithm needs. No query and no update reads
//     the root's G set, so it is not kept;
//   - at every internal node, an (f, c2·l)-structure of Lemma 6
//     (package flgroup) over (G_u1, …, G_uf), which also supplies the
//     range-maximum capability of the "slightly augmented B-tree";
//   - at every leaf, the leaf's points in x-sorted one-block chunks
//     supporting exact in-leaf range k-selection (see leaf.go for why
//     this meets the role the paper assigns to the [14] leaf
//     structures at lower update cost).
//
// A query decomposes q into O(log_f n) canonical multi-slabs plus at
// most two boundary leaves, runs AURS (package aurs, Lemma 5) over the
// multi-slabs — Rank and Max implemented by the (f,c2l)-structures in
// O(log_B(fl)) I/Os each — performs leaf-level k-selection at the
// boundary leaves, and returns the maximum of the candidates; any
// candidate proves k points in range, so no query counts them first.
// A decomposition of boundary leaves alone holds every in-range point
// in the chunks the leaf selection reads, so Select answers such a q
// outright with the exact top k, and SelectApprox reports its k-th
// score.
//
// Degenerate regime: the AURS precondition k ≤ min|S_m|/c1 always holds
// in the paper's parameter regime because every canonical multi-slab
// contains a child subtree of weight ≥ b/4 = f·l·B/4 ≫ c2·l (footnote
// 6). At test scales with tiny subtrees the precondition can fail; the
// query then falls back to an exact merge of the pieces' top-k lists
// (flgroup.AppendTopIn), preserving correctness at a higher I/O cost. The
// fallback is counted and reported so experiments can confirm it never
// fires in-regime.
package polylog

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/em"
	"repro/internal/flgroup"
	"repro/internal/point"
)

// Options configure the structure.
type Options struct {
	// L is the paper's l: queries support k ≤ L.
	L int
	// F is the branching parameter (paper: √(B·lg n)). 0 derives it from
	// the disk block size and N.
	F int
	// LeafCap is the leaf capacity (paper: f·l·B). 0 derives it. Values
	// are clamped to keep test-scale trees non-trivial.
	LeafCap int
	// N is the size hint used to derive F (paper: N ∈ [n, 4n], fixed
	// between global rebuilds).
	N int
}

func (o Options) withDefaults(d *em.Disk) Options {
	if o.L <= 0 {
		o.L = 16
	}
	if o.N <= 0 {
		o.N = 1 << 16
	}
	if o.F <= 0 {
		lg := math.Log2(float64(o.N))
		if lg < 1 {
			lg = 1
		}
		o.F = int(math.Sqrt(float64(d.B()) * lg))
	}
	if o.F < 2 {
		o.F = 2
	}
	if o.LeafCap <= 0 {
		o.LeafCap = o.F * o.L * d.B()
	}
	if o.LeafCap < 8 {
		o.LeafCap = 8
	}
	return o
}

// c2 is the constant of the (f,l)-problem (§3.2); G_u holds c2·l scores.
// flgroup guarantees rank ∈ [k, base³·k] = [k, 8k], so c2 = 8.
const c2 = 8

type node struct {
	leaf     bool
	parent   em.Handle
	childIdx int
	lo, hi   float64
	weight   int // live points in subtree

	kids  []em.Handle
	kidLo []float64
}

func (n *node) size() int { return 8 + 2*len(n.kids) }

// Tree is the §3.3 structure. Create with New or Bulk.
type Tree struct {
	d     *em.Disk
	opt   Options
	store *em.Store[*node]
	root  em.Handle
	n     int

	// Per-internal-node (f,l)-groups, keyed by node handle; set j of a
	// node's group is its j-th child's G set. (Their disk footprint is
	// charged by their own stores.)
	fl     map[em.Handle]*flgroup.Group
	chunks *em.Store[[]point.P] // leaf point chunks

	// Fallbacks counts queries that left the AURS fast path (degenerate
	// regime detection, experiment E11).
	Fallbacks int

	qs queryScratch
}

// New returns an empty structure.
func New(d *em.Disk, opt Options) *Tree { return Bulk(d, opt, nil, nil) }

// Bulk builds the structure over pts bottom-up, in sorting time: it
// cuts the x-sorted points into equal leaves of about ¾·LeafCap, then
// groups each level's nodes under parents — one root over at most 2F
// children, else groups of about 3F/2 — building every node's
// secondary structures once (see newLeaf and newInternal). Each node's
// G set passes in memory to the parent built over it; the root's is
// dropped. Each level keeps a quarter of its capacity as slack for the
// splits that updates cause.
//
// pts must be sorted by X (as point.SortByX sorts), and byScore holds
// the same points sorted by descending score. One walk of byScore,
// lowest score first, deals every leaf its scores in ascending order,
// so no leaf sorts its own, and the build sorts nothing. Neither slice
// is modified or kept.
func Bulk(d *em.Disk, opt Options, pts, byScore []point.P) *Tree {
	opt = opt.withDefaults(d)
	t := &Tree{
		d: d, opt: opt,
		store:  em.NewStore(d, "pl.node", func(n *node) int { return n.size() }),
		fl:     map[em.Handle]*flgroup.Group{},
		chunks: em.NewStore(d, "pl.chunk", func(ps []point.P) int { return 1 + point.WordSize*len(ps) }),
		n:      len(pts),
	}
	for i := 1; i < len(pts); i++ {
		if !(pts[i-1].X < pts[i].X) {
			panic(fmt.Sprintf("polylog: duplicate or unsorted x %v after %v", pts[i].X, pts[i-1].X))
		}
	}
	m := max(1, ceilDiv(len(pts), 3*opt.LeafCap/4))
	asc := leafScores(pts, byScore, m)
	level, sets := make([]em.Handle, m), make([][]float64, m)
	for j := range m {
		a, b := j*len(pts)/m, (j+1)*len(pts)/m
		lo, hi := math.Inf(-1), math.Inf(1)
		if j > 0 {
			lo = pts[a].X
		}
		if j < m-1 {
			hi = pts[b].X
		}
		level[j], sets[j] = t.newLeaf(lo, hi, pts[a:b], asc[a:b])
	}
	for len(level) > 1 {
		m := 1
		if len(level) > 2*opt.F {
			m = ceilDiv(len(level), 3*opt.F/2)
		}
		for j := range m {
			a, b := j*len(level)/m, (j+1)*len(level)/m
			level[j], sets[j] = t.newInternal(level[a:b], sets[a:b])
		}
		level, sets = level[:m], sets[:m]
	}
	t.root = level[0]
	return t
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// leafScores returns the scores of xs, x-sorted points cut into m
// equal leaves as Bulk cuts them, laid out leaf by leaf, each leaf's
// ascending: leaf j's are at [j·n/m, (j+1)·n/m). It walks byScore, the
// same points by descending score, from its end, routing each score to
// its leaf by the leaves' low x-coordinates.
func leafScores(xs, byScore []point.P, m int) []float64 {
	if len(byScore) != len(xs) {
		panic(fmt.Sprintf("polylog: %d points by score for %d points", len(byScore), len(xs)))
	}
	cuts := make([]float64, m-1)
	next := make([]int, m) // leaf j's next free slot
	for j := 1; j < m; j++ {
		next[j] = j * len(xs) / m
		cuts[j-1] = xs[next[j]].X
	}
	out := make([]float64, len(xs))
	for i := len(byScore) - 1; i >= 0; i-- {
		p := byScore[i]
		j, at := slices.BinarySearch(cuts, p.X)
		if at {
			j++
		}
		out[next[j]] = p.Score
		next[j]++
	}
	for j := range m {
		if next[j] != (j+1)*len(xs)/m {
			panic("polylog: the points by score are not the points by x")
		}
	}
	return out
}

// Len returns the number of live points; L the query cap.
func (t *Tree) Len() int { return t.n }
func (t *Tree) L() int   { return t.opt.L }

// guCap is |G_u| at capacity.
func (t *Tree) guCap() int { return c2 * t.opt.L }

// newLeaf allocates a leaf with slab [lo, hi) over pts (x-sorted), in
// full chunks, and returns it with its G set: the top c2·l of asc, the
// scores of pts in ascending order.
func (t *Tree) newLeaf(lo, hi float64, pts []point.P, asc []float64) (em.Handle, []float64) {
	nd := &node{leaf: true, lo: lo, hi: hi, weight: len(pts)}
	m := ceilDiv(len(pts), t.chunkCap())
	for j := range m {
		a, b := j*len(pts)/m, (j+1)*len(pts)/m
		clo := lo
		if j > 0 {
			clo = pts[a].X
		}
		nd.kids = append(nd.kids, t.chunks.Alloc(slices.Clone(pts[a:b])))
		nd.kidLo = append(nd.kidLo, clo)
	}
	return t.store.Alloc(nd), t.topOf(asc)
}

// newInternal allocates an internal node over kids, consecutive nodes
// of one level whose G sets are sets, links them to it and builds its
// flgroup over those sets. It returns the node with its own G set, the
// top c2·l of the sets' union, which the flgroup's build merges.
func (t *Tree) newInternal(kids []em.Handle, sets [][]float64) (em.Handle, []float64) {
	nd := &node{kids: slices.Clone(kids), kidLo: make([]float64, len(kids))}
	for j, kid := range kids {
		kn := t.store.Read(kid)
		nd.kidLo[j] = kn.lo
		nd.weight += kn.weight
		nd.hi = kn.hi
	}
	nd.lo = nd.kidLo[0]
	h := t.store.Alloc(nd)
	for j, kid := range kids {
		t.store.Update(kid, func(c **node) { (*c).parent, (*c).childIdx = h, j })
	}
	fl, union := flgroup.Bulk(t.d, len(kids), t.guCap(), sets)
	t.fl[h] = fl
	return h, t.topOf(union)
}

// topOf returns the top c2·l of asc, an ascending slice.
func (t *Tree) topOf(asc []float64) []float64 { return asc[max(0, len(asc)-t.guCap()):] }

// gset returns where non-root node nd's G set lives: its parent's
// flgroup, and its 1-based set index there.
func (t *Tree) gset(nd *node) (*flgroup.Group, int) { return t.fl[nd.parent], nd.childIdx + 1 }

func routeKid(nd *node, x float64) int {
	lo, hi := 0, len(nd.kids)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if nd.kidLo[mid] <= x {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// --- updates ----------------------------------------------------------

// Insert adds p in O(log_B n) amortized I/Os (appendix update
// algorithm): descend to the leaf, update its [14] structure, then fix
// the G sets bottom-up, entering p's score wherever it ranks in the top
// c2·l of an ancestor's subtree: one flgroup update per level.
func (t *Tree) Insert(p point.P) {
	h := t.root
	for {
		nd := t.store.Read(h)
		nd.weight++
		t.store.Write(h, nd)
		if nd.leaf {
			break
		}
		h = nd.kids[routeKid(nd, p.X)]
	}
	t.n++
	t.leafInsert(h, p)
	t.bubbleInsert(h, p.Score)
	t.splitIfNeeded(h)
}

// bubbleInsert enters score s into G_u along the path from leaf h up
// to a child of the root for as long as it ranks in the top c2·l.
func (t *Tree) bubbleInsert(h em.Handle, s float64) {
	for {
		nd := t.store.Read(h)
		if nd.parent == em.NilHandle {
			return // the root keeps no G set
		}
		fl, i := t.gset(nd)
		if fl.SizeOf(i) >= t.guCap() {
			mn, _ := fl.MinOf(i)
			if s <= mn {
				return // s does not enter G_u, so nor any ancestor's
			}
			fl.Delete(i, mn)
		}
		fl.Insert(i, s)
		h = nd.parent
	}
}

// Delete removes p, reporting whether it was present.
func (t *Tree) Delete(p point.P) bool {
	// Locate the leaf.
	h := t.root
	for {
		nd := t.store.Read(h)
		if nd.leaf {
			break
		}
		h = nd.kids[routeKid(nd, p.X)]
	}
	if !t.leafDelete(h, p) {
		return false
	}
	t.n--
	// Decrement weights along the path.
	for w := h; w != em.NilHandle; {
		nd := t.store.Read(w)
		nd.weight--
		t.store.Write(w, nd)
		w = nd.parent
	}
	// Fix the G sets bottom-up: wherever score(p) was a member of G_u,
	// remove it and refill with the next-best score of u's subtree. The
	// root keeps no G set, so the walk stops below it.
	for u := h; ; {
		nd := t.store.Read(u)
		if nd.parent == em.NilHandle {
			return true
		}
		fl, i := t.gset(nd)
		if !fl.Delete(i, p.Score) {
			return true // not in G_u ⇒ not in any ancestor's
		}
		if refill, ok := t.nextBest(u, nd, fl.SizeOf(i)+1); ok {
			fl.Insert(i, refill)
		}
		u = nd.parent
	}
}

// nextBest returns the want-th best score of u's subtree, if it has
// one: with want = |G_u|+1 after a removal, the element to promote into
// G_u. For internal nodes it is the want-th of ∪G_ui, read exactly from
// the flgroup's B-tree on G; for leaves it comes from the leaf's
// chunks.
func (t *Tree) nextBest(u em.Handle, nd *node, want int) (float64, bool) {
	if nd.leaf {
		if want > nd.weight {
			return 0, false
		}
		pt, ok := t.leafSelect(u, math.Inf(-1), math.Inf(1), want)
		if !ok {
			return 0, false
		}
		return pt.Score, true
	}
	return t.fl[u].SelectExact(want)
}

// --- splits -----------------------------------------------------------

// splitIfNeeded splits an overfull leaf and cascades upward, rebuilding
// the secondary structures of the split node and its parent as the
// appendix prescribes.
func (t *Tree) splitIfNeeded(h em.Handle) {
	for h != em.NilHandle {
		nd := t.store.Read(h)
		over := (nd.leaf && nd.weight > t.opt.LeafCap) ||
			(!nd.leaf && len(nd.kids) > 2*t.opt.F)
		if !over {
			return
		}
		var halves [2]em.Handle
		var sets [2][]float64
		if nd.leaf {
			halves, sets = t.splitLeaf(h, nd)
		} else {
			halves, sets = t.splitInternal(h, nd)
		}
		left, right := halves[0], halves[1]

		if nd.parent == em.NilHandle {
			// New root above the two halves; its own G set is dropped.
			t.root, _ = t.newInternal(halves[:], sets[:])
			return
		}

		// Splice the two halves into the parent and rebuild its
		// secondary structures (fanout changed).
		par := t.store.Read(nd.parent)
		j := nd.childIdx
		rlo := t.store.Read(right).lo
		par.kids = append(par.kids, em.NilHandle)
		par.kidLo = append(par.kidLo, 0)
		copy(par.kids[j+2:], par.kids[j+1:])
		copy(par.kidLo[j+2:], par.kidLo[j+1:])
		par.kids[j] = left
		par.kids[j+1] = right
		par.kidLo[j+1] = rlo
		t.store.Write(nd.parent, par)
		t.store.Update(left, func(c **node) { (*c).parent, (*c).childIdx = nd.parent, j })
		t.store.Update(right, func(c **node) { (*c).parent, (*c).childIdx = nd.parent, j+1 })
		for jj := j + 2; jj < len(par.kids); jj++ {
			t.store.Update(par.kids[jj], func(c **node) { (*c).childIdx = jj })
		}
		t.rebuildSecondary(nd.parent, j, sets)
		h = nd.parent
	}
}

// splitLeaf splits leaf h in half by x into two new leaves and returns
// them with their G sets. The handle h is retired.
func (t *Tree) splitLeaf(h em.Handle, nd *node) (halves [2]em.Handle, sets [2][]float64) {
	all := t.leafAll(h)
	point.SortByX(all)
	mid := len(all) / 2
	halves[0], sets[0] = t.newLeaf(nd.lo, all[mid].X, all[:mid], ascScores(all[:mid]))
	halves[1], sets[1] = t.newLeaf(all[mid].X, nd.hi, all[mid:], ascScores(all[mid:]))
	t.retire(h)
	return halves, sets
}

// ascScores returns the scores of pts in ascending order.
func ascScores(pts []point.P) []float64 {
	scores := make([]float64, len(pts))
	for i, p := range pts {
		scores[i] = p.Score
	}
	slices.Sort(scores)
	return scores
}

// splitInternal splits internal node h in half by child index into two
// new nodes and returns them with their G sets. The children's G sets
// are read out of h's flgroup before it is retired with h.
func (t *Tree) splitInternal(h em.Handle, nd *node) (halves [2]em.Handle, sets [2][]float64) {
	kidSets := make([][]float64, len(nd.kids))
	for j := range kidSets {
		kidSets[j] = t.fl[h].KeysOf(j + 1)
	}
	mid := len(nd.kids) / 2
	halves[0], sets[0] = t.newInternal(nd.kids[:mid], kidSets[:mid])
	halves[1], sets[1] = t.newInternal(nd.kids[mid:], kidSets[mid:])
	t.retire(h)
	return halves, sets
}

// rebuildSecondary rebuilds internal node u's flgroup after its j-th
// child split in two halves, whose G sets are halfSets: the split cuts
// one child's G set in two, so the flgroup's sets are cut anew. The
// other children's sets are read out of the old flgroup before it is
// freed. u's subtree holds the same points, so G_u, in u's parent's
// flgroup, stays as it is.
func (t *Tree) rebuildSecondary(u em.Handle, j int, halfSets [2][]float64) {
	old := t.fl[u]
	sets := make([][]float64, 0, old.F()+1)
	for i := 1; i <= old.F(); i++ {
		if i == j+1 {
			sets = append(sets, halfSets[:]...)
		} else {
			sets = append(sets, old.KeysOf(i))
		}
	}
	old.Free()
	t.fl[u], _ = flgroup.Bulk(t.d, len(sets), t.guCap(), sets)
}

// FreeAll releases every node and secondary structure.
func (t *Tree) FreeAll() {
	var rec func(h em.Handle)
	rec = func(h em.Handle) {
		nd := t.store.Read(h)
		if !nd.leaf { // leaf kids are chunk handles, retired by retire
			for _, kid := range nd.kids {
				rec(kid)
			}
		}
		t.retire(h)
	}
	rec(t.root)
	t.root = em.NilHandle
	t.n = 0
}

// retire frees a node and its secondary structures.
func (t *Tree) retire(h em.Handle) {
	if g, ok := t.fl[h]; ok {
		g.Free()
		delete(t.fl, h)
	}
	if t.store.Peek(h).leaf {
		t.freeLeafChunks(h)
	}
	t.store.Free(h)
}
