package pst

import (
	"math"

	"repro/internal/em"
	"repro/internal/heap"
	"repro/internal/point"
)

// packVid encodes a vid as an int64 heap reference (tnode handles are
// small integers; secondary trees have < 2^16 nodes for any sane branch
// parameter).
func packVid(v vid) int64 { return int64(v.t)<<16 | int64(v.idx) }

func unpackVid(r int64) vid { return vid{em.Handle(r >> 16), int(r & 0xffff)} }

// heapSrc exposes the forest of max-heaps H(v), v ∈ Π, as a heap.Source:
// nodes are T̂ nodes with non-empty pilot sets, keyed by the
// y-coordinate of their representative. The heap order holds because
// pilot sets are layered by score along every root-to-leaf path.
type heapSrc struct {
	p     *PST
	roots []vid
}

func (s *heapSrc) Roots(buf []heap.Entry) []heap.Entry {
	for _, v := range s.roots {
		nd := s.p.tstore.Read(v.t)
		if nd.vs[v.idx].size > 0 {
			buf = append(buf, heap.Entry{Ref: packVid(v), Key: nd.vs[v.idx].rep})
		}
	}
	return buf
}

func (s *heapSrc) Children(ref int64, buf []heap.Entry) []heap.Entry {
	v := unpackVid(ref)
	nd := s.p.tstore.Read(v.t)
	kids, n := s.p.vchildren(nd, v)
	for _, c := range kids[:n] {
		var cm vmeta
		if c.t == v.t {
			cm = nd.vs[c.idx]
		} else {
			cm = s.p.tstore.Read(c.t).vs[c.idx]
		}
		if cm.size > 0 {
			buf = append(buf, heap.Entry{Ref: packVid(c), Key: cm.rep})
		}
	}
	return buf
}

// appendPath appends the T̂ root-to-leaf path whose slabs contain x.
func (p *PST) appendPath(path []vid, x float64) []vid {
	h := p.root
	for {
		nd := p.tstore.Read(h)
		for i := 0; i >= 0; i = nextVS(nd, i, x) {
			path = append(path, vid{h, i})
		}
		if nd.level == 0 {
			return path
		}
		h = nd.kids[routeKid(nd, x)]
	}
}

// collect adds the in-range points of v's pilot to the candidates, the
// first time the query meets v.
func (p *PST) collect(v vid, x1, x2 float64) {
	if p.qs.marks.set(v, markSeen) {
		return
	}
	nd := p.tstore.Read(v.t)
	for _, q := range p.readPilot(nd.vs[v.idx].pilot) {
		if q.In(x1, x2) {
			p.qs.cands = append(p.qs.cands, q)
		}
	}
}

// covered reports whether v's slab lies inside [x1, x2].
func (p *PST) covered(v vid, x1, x2 float64) bool {
	nd := p.tstore.Read(v.t)
	lo, hi := slabOf(nd, v.idx)
	return lo >= x1 && hi <= math.Nextafter(x2, math.Inf(1))
}

// Query returns the k highest-scoring points with x ∈ [x1, x2], sorted
// by descending score (all of them if fewer than k qualify), in
// O(lg n + k/B) I/Os — the §2 query algorithm:
//
//  1. descend the two paths π1, π2 and collect their pilot points (Q1);
//  2. identify Π, the hanging children of π'1 ∪ π'2 (below the LCA)
//     whose slabs are covered by q, and view their subtrees as
//     score-ordered max-heaps keyed by pilot representatives;
//  3. extract the φ·(lg n + k/B) largest representatives R (heap
//     selection; Frederickson's bound realized as best-first search);
//  4. gather the pilot sets of the selected nodes (Q2) and of their
//     in-range siblings and children (Q3);
//  5. report the k highest points of Q1 ∪ Q2 ∪ Q3 in q.
//
// Lemma 2 (φ = 16) guarantees Q1 ∪ Q2 ∪ Q3 contains the true top k.
// The work happens in the structure's query scratch; the answer is a
// fresh slice the caller owns.
func (p *PST) Query(x1, x2 float64, k int) []point.P {
	if p.root == em.NilHandle || k <= 0 || x1 > x2 {
		return nil
	}
	top := p.query(x1, x2, k)
	if len(top) == 0 {
		return nil
	}
	return append(make([]point.P, 0, len(top)), top...)
}

// query is Query into scratch: the result aliases p.qs.cands.
func (p *PST) query(x1, x2 float64, k int) []point.P {
	s := &p.qs
	s.marks.reset()
	s.cands = s.cands[:0]
	s.path1 = p.appendPath(s.path1[:0], x1)
	s.path2 = p.appendPath(s.path2[:0], x2)
	path1, path2 := s.path1, s.path2

	// Q1: pilot points on π1 ∪ π2. The paths are walked in slice order:
	// the order of block reads decides the buffer pool's hits and
	// misses, so it must repeat.
	for _, v := range path1 {
		p.collect(v, x1, x2)
	}
	for _, v := range path2 {
		p.collect(v, x1, x2)
	}

	// v* = LCA; π'1, π'2 = the portions below (and including) v*.
	lca := 0
	for lca < len(path1) && lca < len(path2) && path1[lca] == path2[lca] {
		lca++
	}
	lca-- // last common index; ≥ 0 since both start at the root

	// Π: children of π' nodes, off the paths, with slab ⊆ q. π'1 then
	// π'2 without its first node, v*, which π'1 holds. Off the paths
	// means not yet seen: Q1 marked exactly π1 ∪ π2. Every score below
	// a Π node is at most its path parent's representative.
	s.pi, s.piBound = s.pi[:0], s.piBound[:0]
	for _, below := range [2][]vid{path1[lca:], path2[lca+1:]} {
		for _, v := range below {
			nd := p.tstore.Read(v.t)
			kids, n := p.vchildren(nd, v)
			for _, c := range kids[:n] {
				if !s.marks.has(c, markSeen) && p.covered(c, x1, x2) {
					s.pi = append(s.pi, c)
					s.piBound = append(s.piBound, nd.vs[v.idx].rep)
				}
			}
		}
	}

	// Heap selection of the φ·(lg n + ⌈k/B⌉) largest representatives.
	t := p.opt.Phi * (p.lgN() + (k+p.opt.PilotB-1)/p.opt.PilotB)
	s.src = heapSrc{p: p, roots: s.pi}
	if p.opt.PaperSelection {
		s.selected = s.sel.SelectTop(s.selected[:0], &s.src, t)
	} else if p.selectEarly(t, k, x1, x2) {
		// Early termination proved every unexplored subtree (and
		// hence every would-be Q3 candidate) is dominated by the k-th
		// best candidate already collected.
		return point.SelectTop(s.cands, k)
	}

	// Q2: pilots of the selected nodes. Q3: pilots of their in-range
	// siblings and of their children.
	for _, e := range s.selected {
		s.marks.set(unpackVid(e.Ref), markSelected)
	}
	for _, e := range s.selected {
		v := unpackVid(e.Ref)
		p.collect(v, x1, x2)
		nd := p.tstore.Read(v.t)
		kids, n := p.vchildren(nd, v)
		for _, c := range kids[:n] {
			p.collect(c, x1, x2)
		}
		par := p.vparent(nd, v)
		if par.valid() {
			pn := p.tstore.Read(par.t)
			sibs, n := p.vchildren(pn, par)
			for _, sib := range sibs[:n] {
				if sib != v && !s.marks.has(sib, markSelected) && p.covered(sib, x1, x2) {
					p.collect(sib, x1, x2)
				}
			}
		}
	}

	// Report the k highest candidates. The candidate pool has size
	// O(B lg n + k); selecting within it is CPU work on blocks already
	// read, and only the k kept are sorted.
	return point.SelectTop(s.cands, k)
}

// selectEarly is the default selection: heap.SelectTop into
// p.qs.selected, with early termination. Each selected node's pilot is
// collected at once through collect (so the pilot read is never
// repeated), and selection stops as soon as the k-th best in-range
// candidate outranks the upper bound of every unexplored subtree. A
// frontier node's subtree scores never exceed its T̂ parent's
// representative, since the parent's pilot holds the highest points
// left below it; for a root of Π that parent is a path node, whose
// pilot Q1 collected. It reports complete=true when that proves no Q3
// gathering is needed: every would-be Q3 node sits in (or below) the
// frontier.
//
// All of it runs in the query scratch. The frontier is a max-heap of
// representatives whose refs index s.fr. Each parent of frontier nodes
// is a bounder: s.live counts its children on the frontier, and s.bnd,
// a max-heap of bounder bounds from which spent bounders are dropped
// lazily, yields the largest bound still on the frontier. s.kbest
// holds the k best candidate scores so far.
func (p *PST) selectEarly(t, k int, x1, x2 float64) (complete bool) {
	s := &p.qs
	s.selected, s.fr, s.front = s.selected[:0], s.fr[:0], s.front[:0]
	s.live, s.bnd, s.kbest = s.live[:0], s.bnd[:0], s.kbest[:0]
	s.offer(0, k) // Q1
	for i, v := range s.pi {
		if m := p.tstore.Read(v.t).vs[v.idx]; m.size > 0 {
			s.push(heap.Entry{Ref: packVid(v), Key: m.rep}, s.bounder(s.piBound[i], 1))
		}
	}
	for len(s.selected) < t && len(s.front) > 0 {
		var top heap.Entry
		top, s.front = heap.Pop(s.front)
		f := s.fr[top.Ref]
		s.live[f.bounder]--
		ref := packVid(f.v)
		s.selected = append(s.selected, heap.Entry{Ref: ref, Key: top.Key})
		n := len(s.cands)
		p.collect(f.v, x1, x2)
		s.offer(n, k)
		s.kids = s.src.Children(ref, s.kids[:0])
		if len(s.kids) > 0 {
			b := s.bounder(top.Key, len(s.kids))
			for _, e := range s.kids {
				s.push(e, b)
			}
		}
		if len(s.kbest) < k {
			continue
		}
		for len(s.bnd) > 0 && s.live[s.bnd[0].Ref] == 0 {
			_, s.bnd = heap.Pop(s.bnd)
		}
		if len(s.bnd) == 0 || -s.kbest[0].Key >= s.bnd[0].Key {
			return true
		}
	}
	return len(s.front) == 0
}

// frontierNode is a T̂ node on selectEarly's frontier and the bounder
// (its T̂ parent) whose representative bounds its subtree.
type frontierNode struct {
	v       vid
	bounder int32
}

// bounder registers a parent of live frontier nodes whose subtrees its
// bound covers, returning its index.
func (s *queryScratch) bounder(bound float64, live int) int32 {
	b := int32(len(s.live))
	s.live = append(s.live, int32(live))
	s.bnd = heap.Push(s.bnd, heap.Entry{Ref: int64(b), Key: bound})
	return b
}

// push puts the node of e on the frontier under bounder b.
func (s *queryScratch) push(e heap.Entry, b int32) {
	s.fr = append(s.fr, frontierNode{unpackVid(e.Ref), b})
	s.front = heap.Push(s.front, heap.Entry{Ref: int64(len(s.fr) - 1), Key: e.Key})
}

// offer feeds the candidates from index n on into the k best scores:
// kbest is a min-heap of scores, kept as heap's max-heap of negated
// keys, so kbest[0] is the k-th best once it holds k.
func (s *queryScratch) offer(n, k int) {
	for _, q := range s.cands[n:] {
		e := heap.Entry{Key: -q.Score}
		if len(s.kbest) < k {
			s.kbest = heap.Push(s.kbest, e)
		} else if e.Key < s.kbest[0].Key {
			s.kbest[0] = e
			heap.Down(s.kbest, 0)
		}
	}
}

// QueryAll is Query with k = n (report everything in range; test helper).
func (p *PST) QueryAll(x1, x2 float64) []point.P { return p.Query(x1, x2, p.n) }

// Report3Sided returns every point p with p.X ∈ [x1, x2] and
// score(p) ≥ tau (unsorted). This is the three-sided reporting query the
// reduction of §3.3 needs: given the threshold produced by approximate
// range k-selection, report the Θ(k) qualifying points and select the
// top k among them for free.
//
// The traversal prunes by the pilot layering: a node whose representative
// (= minimum pilot score) is below tau cannot have qualifying points in
// its subtree beyond its own pilot, so recursion stops there. Interior
// visits are therefore paid for by output (Ω(B/2) qualifying points per
// fully-qualified pilot) plus the two boundary paths.
//
// The result lives in the structure's query scratch: it is valid, and
// the caller may reorder it, until the next query on this PST.
func (p *PST) Report3Sided(x1, x2, tau float64) []point.P {
	if p.root == em.NilHandle || x1 > x2 {
		return nil
	}
	p.qs.cands = p.report3(p.qs.cands[:0], vid{p.root, 0}, x1, x2, tau)
	return p.qs.cands
}

func (p *PST) report3(out []point.P, v vid, x1, x2, tau float64) []point.P {
	nd := p.tstore.Read(v.t)
	m := nd.vs[v.idx]
	lo, hi := slabOf(nd, v.idx)
	if hi <= x1 || lo > x2 || m.size == 0 {
		return out
	}
	for _, q := range p.readPilot(m.pilot) {
		if q.In(x1, x2) && q.Score >= tau {
			out = append(out, q)
		}
	}
	if m.rep >= tau {
		kids, n := p.vchildren(nd, v)
		for _, c := range kids[:n] {
			out = p.report3(out, c, x1, x2, tau)
		}
	}
	return out
}
