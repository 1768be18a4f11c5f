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
//   - for every node u, the set G_u of the c2·l highest scores in u's
//     subtree, kept in a score B-tree at u;
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
// boundary leaves, and returns the maximum of the candidates.
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

	"repro/internal/btree"
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

	// Per-node secondary structures, keyed by node handle. (Their disk
	// footprint is charged by their own stores.)
	gu     map[em.Handle]*btree.Tree    // score B-tree on G_u
	fl     map[em.Handle]*flgroup.Group // internal nodes
	chunks *em.Store[[]point.P]         // leaf point chunks

	// Fallbacks counts queries that left the AURS fast path (degenerate
	// regime detection, experiment E11).
	Fallbacks int

	qs queryScratch
}

// New returns an empty structure.
func New(d *em.Disk, opt Options) *Tree { return Bulk(d, opt, nil) }

// Bulk builds the structure over pts bottom-up, in sorting time: it
// cuts the x-sorted points into equal leaves of about ¾·LeafCap, then
// groups each level's nodes under parents — one root over at most 2F
// children, else groups of about 3F/2 — building every node's
// secondary structures once (see newLeaf and newInternal). Each level
// keeps a quarter of its capacity as slack for the splits that updates
// cause.
func Bulk(d *em.Disk, opt Options, pts []point.P) *Tree {
	opt = opt.withDefaults(d)
	t := &Tree{
		d: d, opt: opt,
		store:  em.NewStore(d, "pl.node", func(n *node) int { return n.size() }),
		gu:     map[em.Handle]*btree.Tree{},
		fl:     map[em.Handle]*flgroup.Group{},
		chunks: em.NewStore(d, "pl.chunk", func(ps []point.P) int { return 1 + point.WordSize*len(ps) }),
		n:      len(pts),
	}
	pts = slices.Clone(pts)
	point.SortByX(pts)
	for i := 1; i < len(pts); i++ {
		if pts[i-1].X == pts[i].X {
			panic(fmt.Sprintf("polylog: duplicate x %v", pts[i].X))
		}
	}
	m := max(1, ceilDiv(len(pts), 3*opt.LeafCap/4))
	level := make([]em.Handle, m)
	for j := range m {
		a, b := j*len(pts)/m, (j+1)*len(pts)/m
		lo, hi := math.Inf(-1), math.Inf(1)
		if j > 0 {
			lo = pts[a].X
		}
		if j < m-1 {
			hi = pts[b].X
		}
		level[j] = t.newLeaf(lo, hi, pts[a:b])
	}
	for len(level) > 1 {
		m := 1
		if len(level) > 2*opt.F {
			m = ceilDiv(len(level), 3*opt.F/2)
		}
		for j := range m {
			level[j] = t.newInternal(level[j*len(level)/m : (j+1)*len(level)/m])
		}
		level = level[:m]
	}
	t.root = level[0]
	return t
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// Len returns the number of live points; L the query cap.
func (t *Tree) Len() int { return t.n }
func (t *Tree) L() int   { return t.opt.L }

// guCap is |G_u| at capacity.
func (t *Tree) guCap() int { return c2 * t.opt.L }

// newLeaf allocates a leaf with slab [lo, hi) over pts (x-sorted), in
// full chunks, and builds its G set: the top c2·l scores of pts.
func (t *Tree) newLeaf(lo, hi float64, pts []point.P) em.Handle {
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
	h := t.store.Alloc(nd)
	scores := make([]float64, len(pts))
	for i, p := range pts {
		scores[i] = p.Score
	}
	t.gu[h] = btree.Bulk(t.d, fmt.Sprintf("pl.gu%d", h), t.topScores(scores))
	return h
}

// newInternal allocates an internal node over kids, consecutive nodes
// of one level, links them to it and builds its secondary structures:
// the flgroup over the children's G sets and G_u, the top c2·l of
// their union.
func (t *Tree) newInternal(kids []em.Handle) em.Handle {
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
	sets := t.kidSets(nd)
	t.fl[h] = flgroup.Bulk(t.d, len(kids), t.guCap(), sets)
	t.gu[h] = btree.Bulk(t.d, fmt.Sprintf("pl.gu%d", h), t.topScores(slices.Concat(sets...)))
	return h
}

// kidSets returns the G sets of nd's children, in child order.
func (t *Tree) kidSets(nd *node) [][]float64 {
	sets := make([][]float64, len(nd.kids))
	for j, kid := range nd.kids {
		sets[j] = t.gu[kid].Keys()
	}
	return sets
}

// topScores sorts scores ascending and returns the top c2·l of them.
func (t *Tree) topScores(scores []float64) []float64 {
	slices.Sort(scores)
	return scores[max(0, len(scores)-t.guCap()):]
}

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
// c2·l of an ancestor's subtree.
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

// bubbleInsert enters score s into G_u along the leaf-to-root path for
// as long as it ranks in the top c2·l, maintaining the parents' flgroup
// sets in lockstep with the score B-trees.
func (t *Tree) bubbleInsert(h em.Handle, s float64) {
	for h != em.NilHandle {
		g := t.gu[h]
		full := g.Len() >= t.guCap()
		if full {
			mn, _ := g.Min()
			if s <= mn {
				return // s does not enter G_u, so nor any ancestor's
			}
			t.removeFromG(h, mn)
		}
		t.addToG(h, s)
		h = t.store.Read(h).parent
	}
}

// addToG inserts s into G_u's score B-tree and the parent's flgroup.
func (t *Tree) addToG(h em.Handle, s float64) {
	t.gu[h].Insert(s)
	nd := t.store.Read(h)
	if nd.parent != em.NilHandle {
		t.fl[nd.parent].Insert(nd.childIdx+1, s)
	}
}

// removeFromG removes s from G_u and the parent's flgroup.
func (t *Tree) removeFromG(h em.Handle, s float64) {
	t.gu[h].Delete(s)
	nd := t.store.Read(h)
	if nd.parent != em.NilHandle {
		t.fl[nd.parent].Delete(nd.childIdx+1, s)
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
	// remove it and refill with the next-best score of u's subtree.
	for u := h; u != em.NilHandle; {
		g := t.gu[u]
		if !g.Contains(p.Score) {
			return true // not in G_u ⇒ not in any ancestor's
		}
		t.removeFromG(u, p.Score)
		nd := t.store.Read(u)
		if refill, ok := t.nextBest(u, nd); ok {
			t.addToG(u, refill)
		}
		u = nd.parent
	}
	return true
}

// nextBest returns the (|G_u|+1)-th best score of u's subtree, i.e. the
// element to promote into G_u after a removal, if the subtree has one.
// For internal nodes it is the (|G_u|+1)-th of ∪G_ui, read exactly from
// the flgroup's B-tree on G; for leaves it comes from the [14]
// structure.
func (t *Tree) nextBest(u em.Handle, nd *node) (float64, bool) {
	want := t.gu[u].Len() + 1
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
		var left, right em.Handle
		if nd.leaf {
			left, right = t.splitLeaf(h, nd)
		} else {
			left, right = t.splitInternal(h, nd)
		}

		if nd.parent == em.NilHandle {
			// New root above the two halves.
			t.root = t.newInternal([]em.Handle{left, right})
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
		t.rebuildSecondary(nd.parent)
		h = nd.parent
	}
}

// splitLeaf splits leaf h in half by x into two new leaves. The handle
// h is retired.
func (t *Tree) splitLeaf(h em.Handle, nd *node) (em.Handle, em.Handle) {
	all := t.leafAll(h)
	point.SortByX(all)
	mid := len(all) / 2
	lh := t.newLeaf(nd.lo, all[mid].X, all[:mid])
	rh := t.newLeaf(all[mid].X, nd.hi, all[mid:])
	t.retire(h)
	return lh, rh
}

// splitInternal splits internal node h in half by child index into two
// new nodes. The handle h is retired.
func (t *Tree) splitInternal(h em.Handle, nd *node) (em.Handle, em.Handle) {
	mid := len(nd.kids) / 2
	lh := t.newInternal(nd.kids[:mid])
	rh := t.newInternal(nd.kids[mid:])
	t.retire(h)
	return lh, rh
}

// rebuildSecondary rebuilds internal node u's flgroup after one of its
// children split: the split cuts one child's G set in two, so the
// flgroup's sets are cut anew, but u's subtree holds the same points,
// so G_u and the parent's copy of it stay as they are.
func (t *Tree) rebuildSecondary(u em.Handle) {
	nd := t.store.Read(u)
	t.fl[u].Free()
	t.fl[u] = flgroup.Bulk(t.d, len(nd.kids), t.guCap(), t.kidSets(nd))
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
	if g, ok := t.gu[h]; ok {
		g.Free()
		delete(t.gu, h)
	}
	if g, ok := t.fl[h]; ok {
		g.Free()
		delete(t.fl, h)
	}
	if t.store.Peek(h).leaf {
		t.freeLeafChunks(h)
	}
	t.store.Free(h)
}
