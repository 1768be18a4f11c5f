// Package ram implements the internal-memory baseline of §1.1: a
// pointer-machine structure combining a priority search tree (McCreight
// 1985) with heap selection (Frederickson 1993; realized as best-first
// search, see DESIGN.md substitution 2), answering top-k range queries
// in O(lg n + k) time with O(lg n) updates and O(n) words of space.
//
// The experiments use it as the RAM reference point (E13) and as a fast
// oracle for cross-checking the external structures on large inputs.
//
// The tree is a balanced (by x-rank) binary tree over the points'
// x-coordinates in which every node additionally stores one point by
// max-score priority: each point lives at the highest ancestor of its
// x-position whose priority slot it wins. Rebalancing uses the
// scapegoat/weight-balance scheme (partial rebuilds), which preserves
// O(lg n) amortized updates without rotation-aware priority repair.
package ram

import (
	"math"

	"repro/internal/heap"
	"repro/internal/point"
)

const alpha = 0.7 // weight-balance factor for scapegoat rebuilds

type node struct {
	xkey        float64 // routing key: max x in left subtree
	lo, hi      float64 // x-interval covered
	left, right *node
	size        int // points stored in subtree (= priority slots used)

	has bool    // priority slot occupied
	pt  point.P // the stored point
}

// Tree is the pointer-machine structure. The zero value is an empty
// tree ready to use.
type Tree struct {
	root *node
	n    int
	// Comparisons counts key comparisons, the cost unit of the pointer
	// machine model (E13 measures it).
	Comparisons int64
}

// Len returns the number of stored points.
func (t *Tree) Len() int { return t.n }

// Insert adds p (distinct x and score assumed, as in the paper).
func (t *Tree) Insert(p point.P) {
	t.n++
	if t.root == nil {
		t.root = &node{xkey: p.X, lo: math.Inf(-1), hi: math.Inf(1), size: 1, has: true, pt: p}
		return
	}
	t.insert(t.root, p)
	t.rebalance()
}

// insert pushes p down from nd, swapping it into any priority slot it
// wins, and extends the tree at the leaf level.
func (t *Tree) insert(nd *node, p point.P) {
	for {
		nd.size++
		if !nd.has {
			nd.has, nd.pt = true, p
			return
		}
		t.Comparisons++
		if p.Score > nd.pt.Score {
			nd.pt, p = p, nd.pt // p takes the slot; the loser descends
		}
		t.Comparisons++
		if nd.left == nil && nd.right == nil {
			// Split this leaf region: the old slot holder stays; the
			// loser opens a child.
			if p.X < nd.xkey {
				nd.left = &node{xkey: p.X, lo: nd.lo, hi: nd.xkey, size: 0, has: false}
				nd = nd.left
			} else {
				nd.right = &node{xkey: p.X, lo: nd.xkey, hi: nd.hi, size: 0, has: false}
				nd = nd.right
			}
			continue
		}
		if p.X < nd.xkey {
			if nd.left == nil {
				nd.left = &node{xkey: p.X, lo: nd.lo, hi: nd.xkey}
			}
			nd = nd.left
		} else {
			if nd.right == nil {
				nd.right = &node{xkey: p.X, lo: nd.xkey, hi: nd.hi}
			}
			nd = nd.right
		}
	}
}

// Delete removes the point with the given x and score, reporting
// whether it was present.
func (t *Tree) Delete(p point.P) bool {
	if !t.delete(t.root, p) {
		return false
	}
	t.n--
	t.rebalance()
	return true
}

func (t *Tree) delete(nd *node, p point.P) bool {
	if nd == nil {
		return false
	}
	t.Comparisons++
	if nd.has && nd.pt == p {
		// Pull up the best child slot holder, cascading.
		t.pullUp(nd)
		t.fixSizes(nd)
		return true
	}
	var ok bool
	if p.X < nd.xkey {
		ok = t.delete(nd.left, p)
	} else {
		ok = t.delete(nd.right, p)
	}
	if ok {
		nd.size--
	}
	return ok
}

// pullUp refills nd's slot with the best point below, recursively.
func (t *Tree) pullUp(nd *node) {
	var best *node
	if nd.left != nil && nd.left.has {
		best = nd.left
	}
	if nd.right != nil && nd.right.has {
		t.Comparisons++
		if best == nil || nd.right.pt.Score > best.pt.Score {
			best = nd.right
		}
	}
	if best == nil {
		nd.has = false
		return
	}
	nd.pt = best.pt
	t.pullUp(best)
}

// fixSizes recomputes sizes along the pulled path (sizes only shrink by
// one somewhere below; a full recompute at nd is O(subtree) — instead we
// walk down decrementing along the pull path, which pullUp lost track
// of; recomputing lazily is simpler and amortized by rebuilds).
func (t *Tree) fixSizes(nd *node) {
	if nd == nil {
		return
	}
	l, r := 0, 0
	if nd.left != nil {
		t.fixSizes(nd.left)
		l = nd.left.size
	}
	if nd.right != nil {
		t.fixSizes(nd.right)
		r = nd.right.size
	}
	stored := 0
	if nd.has {
		stored = 1
	}
	nd.size = l + r + stored
}

// rebalance rebuilds the whole tree when the root is α-unbalanced
// (global variant of the scapegoat scheme: simple and amortized
// O(lg n)… for the purposes of a baseline, O(n) rebuilds every Ω(n)
// updates).
func (t *Tree) rebalance() {
	if t.root == nil {
		return
	}
	l, r := 0, 0
	if t.root.left != nil {
		l = t.root.left.size
	}
	if t.root.right != nil {
		r = t.root.right.size
	}
	if float64(l) <= alpha*float64(t.root.size) && float64(r) <= alpha*float64(t.root.size) {
		return
	}
	pts := make([]point.P, 0, t.n)
	collect(t.root, &pts)
	point.SortByX(pts)
	t.root = build(pts, math.Inf(-1), math.Inf(1))
}

func collect(nd *node, out *[]point.P) {
	if nd == nil {
		return
	}
	if nd.has {
		*out = append(*out, nd.pt)
	}
	collect(nd.left, out)
	collect(nd.right, out)
}

// build constructs a perfectly balanced PST over pts (sorted by x).
func build(pts []point.P, lo, hi float64) *node {
	if len(pts) == 0 {
		return nil
	}
	// Highest point takes the root slot; remaining split at the median x.
	bi := 0
	for i, p := range pts {
		if p.Score > pts[bi].Score {
			bi = i
		}
	}
	best := pts[bi]
	rest := make([]point.P, 0, len(pts)-1)
	rest = append(rest, pts[:bi]...)
	rest = append(rest, pts[bi+1:]...)
	mid := len(rest) / 2
	var xkey float64
	switch {
	case len(rest) == 0:
		xkey = best.X
	default:
		xkey = rest[mid].X
	}
	nd := &node{xkey: xkey, lo: lo, hi: hi, size: len(pts), has: true, pt: best}
	nd.left = build(rest[:mid], lo, xkey)
	nd.right = build(rest[mid:], xkey, hi)
	return nd
}

// Bulk builds a tree over pts.
func Bulk(pts []point.P) *Tree {
	t := &Tree{}
	sorted := append([]point.P(nil), pts...)
	point.SortByX(sorted)
	t.root = build(sorted, math.Inf(-1), math.Inf(1))
	t.n = len(pts)
	return t
}

// src adapts the in-range portion of the PST to heap.Source for
// best-first selection: nodes enter the frontier when their stored point
// lies in [x1,x2]; out-of-range nodes whose interval intersects the
// query are expanded transparently.
type src struct {
	t      *Tree
	x1, x2 float64
	nodes  []*node
}

func (s *src) entryOf(nd *node, out *[]heap.Entry) {
	// Descend past nodes whose slot point is outside [x1,x2] (or empty),
	// emitting the highest in-range slots. Expansion is bounded: every
	// visited node's x-interval intersects the query, and out-of-range
	// slot points only occur on the two boundary paths — O(lg n) extras.
	if nd == nil || !nd.has {
		return
	}
	s.t.Comparisons += 2 // interval test against the query
	if nd.hi < s.x1 || nd.lo > s.x2 {
		return
	}
	s.t.Comparisons += 2 // slot-point containment test
	if nd.pt.In(s.x1, s.x2) {
		ref := int64(len(s.nodes))
		s.nodes = append(s.nodes, nd)
		*out = append(*out, heap.Entry{Ref: ref, Key: nd.pt.Score})
		return
	}
	s.entryOf(nd.left, out)
	s.entryOf(nd.right, out)
}

func (s *src) Roots(buf []heap.Entry) []heap.Entry {
	s.entryOf(s.t.root, &buf)
	return buf
}

func (s *src) Children(ref int64, buf []heap.Entry) []heap.Entry {
	nd := s.nodes[ref]
	s.entryOf(nd.left, &buf)
	s.entryOf(nd.right, &buf)
	return buf
}

// Query returns the k highest-scoring points in [x1,x2], descending,
// in O(lg n + k) comparisons.
func (t *Tree) Query(x1, x2 float64, k int) []point.P {
	if k <= 0 || x1 > x2 || t.root == nil {
		return nil
	}
	s := &src{t: t, x1: x1, x2: x2}
	es := heap.SelectTop(s, k)
	out := make([]point.P, len(es))
	for i, e := range es {
		out[i] = s.nodes[e.Ref].pt
	}
	return out
}
