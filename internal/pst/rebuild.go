package pst

import (
	"math"
	"slices"

	"repro/internal/em"
	"repro/internal/point"
)

// cap returns the weight cap of a level-l node: Branch^(l+1). A node
// whose weight exceeds its cap is unbalanced (the paper's WBB condition;
// the lower bound B^(l+1)/4 cannot be violated here because deletions do
// not remove x-coordinates from T).
func (p *PST) cap(level int) int {
	c := 1
	for i := 0; i <= level; i++ {
		if c > (1<<40)/p.opt.Branch {
			return 1 << 40 // effectively unbounded
		}
		c *= p.opt.Branch
	}
	return c
}

// buildVS constructs the canonical balanced binary search tree over f
// child slabs (the secondary tree T(u) of §2). Index 0 is the root;
// children have larger indices than their parents, so iterating indices
// in decreasing order visits T(u) bottom-up.
func buildVS(f int) []vmeta {
	var vs []vmeta
	var rec func(lo, hi, parent int) int
	rec = func(lo, hi, parent int) int {
		idx := len(vs)
		vs = append(vs, vmeta{parent: parent, left: -1, right: -1, kid: -1, lo: lo, hi: hi, rep: math.Inf(-1)})
		if hi-lo == 1 {
			vs[idx].kid = lo
			return idx
		}
		mid := (lo + hi) / 2
		vs[idx].left = rec(lo, mid, idx)
		vs[idx].right = rec(mid, hi, idx)
		return idx
	}
	rec(0, f, -1)
	return vs
}

// buildSub constructs a fresh T subtree of the given level over the
// sorted, distinct x-coordinates xs with slab [lo, hi). Pilot sets are
// left empty, without records, for the caller's fill.
func (p *PST) buildSub(xs []float64, level int, lo, hi float64) em.Handle {
	if level == 0 {
		nd := &tnode{
			level: 0, lo: lo, hi: hi,
			weight: len(xs),
			xs:     append([]float64(nil), xs...),
			vs:     []vmeta{{parent: -1, left: -1, right: -1, kid: -1, rep: math.Inf(-1)}},
		}
		return p.tstore.Alloc(nd)
	}
	// Split xs into children of target weight 0.7·cap(level-1): still
	// Ω(cap(level-1)) insert slack before a child overflows, with a
	// fanout of ~1.4·Branch instead of 2·Branch, keeping the node
	// record (and hence every representative-block read) smaller.
	childCap := p.cap(level - 1)
	target := childCap * 7 / 10
	if target < 1 {
		target = 1
	}
	f := (len(xs) + target - 1) / target
	if f < 1 {
		f = 1
	}
	nd := &tnode{level: level, lo: lo, hi: hi, weight: len(xs), vs: buildVS(f)}
	for j := 0; j < f; j++ {
		a, b := j*len(xs)/f, (j+1)*len(xs)/f
		clo := lo
		if j > 0 {
			clo = xs[a]
		}
		chi := hi
		if j < f-1 {
			chi = xs[b]
		}
		kid := p.buildSub(xs[a:b], level-1, clo, chi)
		nd.kids = append(nd.kids, kid)
		nd.kidLo = append(nd.kidLo, clo)
	}
	h := p.tstore.Alloc(nd)
	for j, kid := range nd.kids {
		p.tstore.Update(kid, func(c **tnode) {
			(*c).parent = h
			(*c).childIdx = j
		})
	}
	return h
}

// fill stores pts, the points of v's slab that no pilot above v
// holds, sorted by descending score, in the T̂ subtree of v, whose
// pilots are all empty: pilot(v) takes the first PilotB, and the rest
// go down to v's children by slab; a T leaf keeps all it is given, in
// x order. This is the state §2's reconstruction reaches by grounding
// every point at the leaves and refilling bottom-up with pull-ups until
// each pilot holds B points or its subtree is empty: with distinct
// scores each pull-up moves the highest points below, so both leave in
// pilot(v) the B highest points of P(v) not stored above v. Every
// internal pilot holds exactly B points unless its subtree below is
// empty, so Lemma 3's invariants hold with no tokens.
//
// The split to the children is a stable partition on the slab
// boundary, so each child's list stays in descending score order and
// the whole fill costs one score sort plus O(n) per T̂ level. fill
// reorders pts in place and uses scratch, of capacity at least
// len(pts), as the partition's buffer and a leaf's sort scratch.
func (p *PST) fill(v vid, pts, scratch []point.P) {
	if len(pts) == 0 {
		return
	}
	nd := p.tstore.Read(v.t)
	if nd.level == 0 {
		leaf := slices.Clone(pts)
		point.SortByXBuf(leaf, scratch)
		p.writePilot(nd, v.idx, leaf)
		p.tstore.Write(v.t, nd)
		return
	}
	b := min(p.opt.PilotB, len(pts))
	p.writePilot(nd, v.idx, slices.Clone(pts[:b]))
	p.tstore.Write(v.t, nd)
	rest := pts[b:]
	kids, n := p.vchildren(nd, v)
	if n == 1 {
		p.fill(kids[0], rest, scratch)
		return
	}
	_, mid := slabOf(nd, kids[0].idx)
	j := splitAt(rest, mid, scratch)
	p.fill(kids[0], rest[:j], scratch)
	p.fill(kids[1], rest[j:], scratch)
}

// splitAt moves the points of ps left of mid before the others,
// keeping each side's order, and returns how many lie left of mid. The
// right side passes through scratch, which must hold len(ps) points.
func splitAt(ps []point.P, mid float64, scratch []point.P) int {
	right := scratch[:0]
	j := 0
	for _, q := range ps {
		if q.X < mid {
			ps[j] = q
			j++
		} else {
			right = append(right, q)
		}
	}
	copy(ps[j:], right)
	return j
}

// freeSubtree releases every tnode and pilot record under h.
func (p *PST) freeSubtree(h em.Handle) {
	nd := p.tstore.Read(h)
	for i, m := range nd.vs {
		p.tok.drop(vid{h, i})
		if m.pilot != em.NilHandle {
			p.pstore.Free(m.pilot)
		}
	}
	for _, kid := range nd.kids {
		p.freeSubtree(kid)
	}
	p.tstore.Free(h)
}

// collectPoints appends every pilot point stored in the subtree of h.
func (p *PST) collectPoints(h em.Handle, out *[]point.P) {
	nd := p.tstore.Read(h)
	for i := range nd.vs {
		*out = append(*out, p.readPilot(nd.vs[i].pilot)...)
	}
	for _, kid := range nd.kids {
		p.collectPoints(kid, out)
	}
}

// collectXS appends the x-lists of all leaves under h in order.
func (p *PST) collectXS(h em.Handle, out *[]float64) {
	nd := p.tstore.Read(h)
	if nd.level == 0 {
		*out = append(*out, nd.xs...)
		return
	}
	for _, kid := range nd.kids {
		p.collectXS(kid, out)
	}
}

// rebuildSubtree reconstructs the subtree of ûhat (§2 "Rebalancing"):
// node reconstruction, then the pilot fill. The x-coordinates
// (including stale ones) and the pilot points stored inside the
// subtree are preserved; points absorbed by pilots above ûhat are
// unaffected. Freeing the old subtree destroys its tokens, and the fill
// creates none (rule 7 of Lemma 3).
func (p *PST) rebuildSubtree(uhat em.Handle) {
	old := p.tstore.Read(uhat)
	level, lo, hi := old.level, old.lo, old.hi
	parent, childIdx := old.parent, old.childIdx

	var xs []float64
	p.collectXS(uhat, &xs)
	var pts []point.P
	p.collectPoints(uhat, &pts)
	point.SortByScoreDesc(pts)
	p.freeSubtree(uhat)

	fresh := p.buildSub(xs, level, lo, hi)
	p.fill(vid{fresh, 0}, pts, make([]point.P, len(pts)))

	if parent == em.NilHandle {
		p.root = fresh
	} else {
		p.tstore.Update(fresh, func(c **tnode) {
			(*c).parent = parent
			(*c).childIdx = childIdx
		})
		p.tstore.Update(parent, func(c **tnode) {
			(*c).kids[childIdx] = fresh
		})
	}
}

// rebuildAll reconstructs the entire structure over the live points
// (global rebuilding: resets stale x-coordinates and the height). It
// sorts pts by X in place and a copy by descending score, both through
// the scratch the pilot fill then uses.
func (p *PST) rebuildAll(pts []point.P) {
	scratch := make([]point.P, len(pts))
	point.SortByXBuf(pts, scratch)
	byScore := slices.Clone(pts)
	point.SortByScoreDescBuf(byScore, scratch)
	p.rebuildSorted(pts, byScore, scratch)
}

// rebuildSorted is rebuildAll given pts sorted by X and byScore, the
// same points sorted by descending score, which the pilot fill
// reorders through scratch, of capacity at least len(pts).
func (p *PST) rebuildSorted(pts, byScore, scratch []point.P) {
	if p.root != em.NilHandle {
		p.freeSubtree(p.root)
		p.root = em.NilHandle
	}
	p.n = len(pts)
	p.sizeAtBuild = len(pts)
	p.updatesSince = 0
	if len(pts) == 0 {
		return
	}
	xs := make([]float64, len(pts))
	for i, q := range pts {
		if i > 0 && !(xs[i-1] < q.X) {
			panic("pst: duplicate or unsorted x-coordinates (input must be a set of reals, sorted by X)")
		}
		xs[i] = q.X
	}
	// Smallest root level whose cap leaves at least 2× slack.
	level := 0
	for p.cap(level) < 2*len(xs) && p.cap(level) < 1<<40 {
		level++
	}
	p.root = p.buildSub(xs, level, math.Inf(-1), math.Inf(1))
	p.fill(vid{p.root, 0}, byScore, scratch)
}

// FreeAll releases every block of the structure, leaving it empty.
func (p *PST) FreeAll() {
	if p.root != em.NilHandle {
		p.freeSubtree(p.root)
		p.root = em.NilHandle
	}
	p.n = 0
	p.sizeAtBuild = 0
	p.updatesSince = 0
}

// liveAll returns every live point (a full scan, used by the global
// rebuild and by tests).
func (p *PST) liveAll() []point.P {
	if p.root == em.NilHandle {
		return nil
	}
	var pts []point.P
	p.collectPoints(p.root, &pts)
	return pts
}

// maybeGlobalRebuild applies the standard global rebuilding rule: after
// n0/2 updates since the last build (n0 = size at that build), rebuild
// from scratch, keeping the height Θ(lg n).
func (p *PST) maybeGlobalRebuild() {
	p.updatesSince++
	threshold := p.sizeAtBuild / 2
	if threshold < 8 {
		threshold = 8
	}
	if p.updatesSince > threshold {
		p.rebuildAll(p.liveAll())
	}
}
