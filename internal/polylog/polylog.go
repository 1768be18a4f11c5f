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
	"sort"

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

// Tree is the §3.3 structure. Create with New.
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
func New(d *em.Disk, opt Options) *Tree {
	opt = opt.withDefaults(d)
	t := &Tree{
		d: d, opt: opt,
		store: em.NewStore(d, "pl.node", func(n *node) int { return n.size() }),
		gu:    map[em.Handle]*btree.Tree{},
		fl:    map[em.Handle]*flgroup.Group{},
	}
	t.chunks = em.NewStore(d, "pl.chunk", func(ps []point.P) int { return 1 + point.WordSize*len(ps) })
	t.root = t.newLeaf(math.Inf(-1), math.Inf(1))
	return t
}

// Bulk builds the structure over pts.
func Bulk(d *em.Disk, opt Options, pts []point.P) *Tree {
	t := New(d, opt)
	for _, p := range pts {
		t.Insert(p)
	}
	return t
}

// Len returns the number of live points; L the query cap.
func (t *Tree) Len() int { return t.n }
func (t *Tree) L() int   { return t.opt.L }

// guCap is |G_u| at capacity.
func (t *Tree) guCap() int { return c2 * t.opt.L }

func (t *Tree) newLeaf(lo, hi float64) em.Handle {
	h := t.store.Alloc(&node{leaf: true, lo: lo, hi: hi})
	t.gu[h] = btree.New(t.d, fmt.Sprintf("pl.gu%d", h))
	return h
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
			ln, rn := t.store.Read(left), t.store.Read(right)
			root := &node{
				lo: math.Inf(-1), hi: math.Inf(1),
				weight: ln.weight + rn.weight,
				kids:   []em.Handle{left, right},
				kidLo:  []float64{math.Inf(-1), rn.lo},
			}
			rh := t.store.Alloc(root)
			t.store.Update(left, func(c **node) { (*c).parent, (*c).childIdx = rh, 0 })
			t.store.Update(right, func(c **node) { (*c).parent, (*c).childIdx = rh, 1 })
			t.gu[rh] = btree.New(t.d, fmt.Sprintf("pl.gu%d", rh))
			t.rebuildSecondary(rh)
			t.root = rh
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

// splitLeaf splits leaf h in half by x, rebuilding both halves' chunk
// stores and G sets. The handle h is retired.
func (t *Tree) splitLeaf(h em.Handle, nd *node) (em.Handle, em.Handle) {
	all := t.leafAll(h)
	point.SortByX(all)
	mid := len(all) / 2
	lh := t.newLeaf(nd.lo, all[mid].X)
	rh := t.newLeaf(all[mid].X, nd.hi)
	t.setLeafPoints(lh, all[:mid])
	t.setLeafPoints(rh, all[mid:])
	t.rebuildLeafG(lh)
	t.rebuildLeafG(rh)
	t.store.Update(lh, func(c **node) { (*c).weight = mid })
	t.store.Update(rh, func(c **node) { (*c).weight = len(all) - mid })
	t.retire(h)
	return lh, rh
}

// splitInternal splits internal node h in half by child index. The
// handle h is retired; both halves get fresh secondary structures.
func (t *Tree) splitInternal(h em.Handle, nd *node) (em.Handle, em.Handle) {
	mid := len(nd.kids) / 2
	mk := func(kids []em.Handle, kidLo []float64, lo, hi float64) em.Handle {
		n := &node{lo: lo, hi: hi,
			kids:  append([]em.Handle(nil), kids...),
			kidLo: append([]float64(nil), kidLo...),
		}
		n.kidLo[0] = lo
		nh := t.store.Alloc(n)
		w := 0
		for j, kid := range n.kids {
			t.store.Update(kid, func(c **node) { (*c).parent, (*c).childIdx = nh, j })
			w += t.store.Read(kid).weight
		}
		t.store.Update(nh, func(c **node) { (*c).weight = w })
		t.gu[nh] = btree.New(t.d, fmt.Sprintf("pl.gu%d", nh))
		t.rebuildSecondary(nh)
		return nh
	}
	lh := mk(nd.kids[:mid], nd.kidLo[:mid], nd.lo, nd.kidLo[mid])
	rh := mk(nd.kids[mid:], nd.kidLo[mid:], nd.kidLo[mid], nd.hi)
	t.retire(h)
	return lh, rh
}

// rebuildSecondary reconstructs node u's flgroup over its children's G
// sets and recomputes G_u (top c2·l of ∪G_ui) in its score B-tree.
func (t *Tree) rebuildSecondary(u em.Handle) {
	nd := t.store.Read(u)
	if old, ok := t.fl[u]; ok {
		old.Free()
	}
	g := flgroup.New(t.d, len(nd.kids), t.guCap())
	var all []float64
	for j, kid := range nd.kids {
		scores := t.gu[kid].Keys()
		for _, s := range scores {
			g.Insert(j+1, s)
			all = append(all, s)
		}
	}
	t.fl[u] = g
	// G_u = top c2·l of the union.
	sort.Sort(sort.Reverse(sort.Float64Slice(all)))
	if len(all) > t.guCap() {
		all = all[:t.guCap()]
	}
	gu := t.gu[u]
	for _, s := range gu.Keys() {
		gu.Delete(s)
	}
	for _, s := range all {
		gu.Insert(s)
	}
	// Propagate the recomputed G_u into the parent's flgroup.
	if nd.parent != em.NilHandle {
		pg := t.fl[nd.parent]
		i := nd.childIdx + 1
		for pg.SizeOf(i) > 0 {
			v, _ := pg.MaxOf(i)
			pg.Delete(i, v)
		}
		for _, s := range all {
			pg.Insert(i, s)
		}
	}
}

// rebuildLeafG recomputes a leaf's G set from its [14] structure.
func (t *Tree) rebuildLeafG(h em.Handle) {
	gu := t.gu[h]
	for _, s := range gu.Keys() {
		gu.Delete(s)
	}
	all := t.leafAll(h)
	point.SortByScoreDesc(all)
	if len(all) > t.guCap() {
		all = all[:t.guCap()]
	}
	for _, p := range all {
		gu.Insert(p.Score)
	}
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
