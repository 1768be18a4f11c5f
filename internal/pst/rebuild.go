package pst

import (
	"math"

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

// allocPilots allocates an empty pilot record for every vmeta of nd.
func (p *PST) allocPilots(nd *tnode) {
	for i := range nd.vs {
		nd.vs[i].pilot = p.pstore.Alloc(nil)
	}
}

// buildSub constructs a fresh T subtree of the given level over the
// sorted, distinct x-coordinates xs with slab [lo, hi). Pilot sets are
// left empty; the caller grounds points at the leaves and refills.
func (p *PST) buildSub(xs []float64, level int, lo, hi float64) em.Handle {
	if level == 0 {
		nd := &tnode{
			level: 0, lo: lo, hi: hi,
			weight: len(xs),
			xs:     append([]float64(nil), xs...),
			vs:     []vmeta{{parent: -1, left: -1, right: -1, kid: -1, rep: math.Inf(-1)}},
		}
		p.allocPilots(nd)
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
	p.allocPilots(nd)
	h := p.tstore.Alloc(nd)
	for j, kid := range nd.kids {
		p.tstore.Update(kid, func(c **tnode) {
			(*c).parent = h
			(*c).childIdx = j
		})
	}
	return h
}

// collectLeaves appends the leaf tnodes under h in slab order.
func (p *PST) collectLeaves(h em.Handle, out *[]em.Handle) {
	nd := p.tstore.Read(h)
	if nd.level == 0 {
		*out = append(*out, h)
		return
	}
	for _, kid := range nd.kids {
		p.collectLeaves(kid, out)
	}
}

// ground distributes pts (sorted by x) onto the leaf pilot sets of the
// subtree rooted at h: the terminal state of the paper's pilot grounding
// process, reached directly during reconstruction.
func (p *PST) ground(h em.Handle, pts []point.P) {
	var leaves []em.Handle
	p.collectLeaves(h, &leaves)
	i := 0
	for _, lh := range leaves {
		nd := p.tstore.Read(lh)
		j := i
		for j < len(pts) && pts[j].X < nd.hi {
			j++
		}
		if j > i {
			p.writePilot(nd, 0, append([]point.P(nil), pts[i:j]...))
			p.tstore.Write(lh, nd)
		}
		i = j
	}
	if i != len(pts) {
		panic("pst: ground lost points")
	}
}

// refill fills the pilot sets of the subtree rooted at h bottom-up: each
// node is populated "using the same algorithm as treating a pilot set
// underflow", i.e. pull-ups until |pilot| = B or the pull-up drains.
func (p *PST) refill(h em.Handle) {
	nd := p.tstore.Read(h)
	if nd.level > 0 {
		for _, kid := range nd.kids {
			p.refill(kid)
		}
	}
	// Secondary-tree children have larger indices, so decreasing index
	// order is bottom-up within T(u). Leaves already hold their points.
	if nd.level == 0 {
		return
	}
	for idx := len(nd.vs) - 1; idx >= 0; idx-- {
		p.fillPilot(vid{h, idx})
	}
}

// fillPilot tops pilot(v) up to exactly B points via pull-ups during
// reconstruction. Children depleted by a pull-up are re-filled to B
// recursively (not merely to B/2): this is what establishes the base
// case of Lemma 3 — right after reconstruction every node has either
// |pilot| = B or an empty subtree below, so both invariants hold with
// zero tokens.
func (p *PST) fillPilot(v vid) {
	for {
		nd := p.tstore.Read(v.t)
		if nd.vs[v.idx].size >= p.opt.PilotB {
			return
		}
		if p.pullUpOnce(v) {
			return // drained: nothing left below
		}
		kids, n := p.vchildren(p.tstore.Read(v.t), v)
		for _, c := range kids[:n] {
			p.fillPilot(c)
		}
	}
}

// freeSubtree releases every tnode and pilot record under h.
func (p *PST) freeSubtree(h em.Handle) {
	nd := p.tstore.Read(h)
	for i := range nd.vs {
		p.tok.drop(nd.vs[i].pilot)
		p.pstore.Free(nd.vs[i].pilot)
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

// rebuildSubtree reconstructs the subtree of ûhat: pilot grounding, node
// reconstruction, and bottom-up pilot refill (§2 "Rebalancing"). The
// x-coordinates (including stale ones) and the pilot points stored
// inside the subtree are preserved; points absorbed by pilots above ûhat
// are unaffected.
func (p *PST) rebuildSubtree(uhat em.Handle) {
	// Rule 7 of Lemma 3: reconstruction destroys all tokens in the
	// subtree and creates none — the pull-ups performed by the refill
	// are part of the rebuild, not update-time operations.
	saved := p.tok
	p.tok = nil
	defer func() { p.tok = saved }()

	old := p.tstore.Read(uhat)
	level, lo, hi := old.level, old.lo, old.hi
	parent, childIdx := old.parent, old.childIdx

	var xs []float64
	p.collectXS(uhat, &xs)
	var pts []point.P
	p.collectPoints(uhat, &pts)
	point.SortByX(pts)
	p.freeSubtree(uhat)

	fresh := p.buildSub(xs, level, lo, hi)
	p.ground(fresh, pts)
	p.refill(fresh)

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
// (global rebuilding: resets stale x-coordinates and the height).
func (p *PST) rebuildAll(pts []point.P) {
	saved := p.tok
	p.tok = nil
	defer func() { p.tok = saved }()

	if p.root != em.NilHandle {
		p.freeSubtree(p.root)
		p.root = em.NilHandle
	}
	pts = append([]point.P(nil), pts...)
	point.SortByX(pts)
	p.n = len(pts)
	p.sizeAtBuild = len(pts)
	p.updatesSince = 0
	if len(pts) == 0 {
		return
	}
	xs := make([]float64, len(pts))
	for i, q := range pts {
		xs[i] = q.X
	}
	for i := 1; i < len(xs); i++ {
		if xs[i] == xs[i-1] {
			panic("pst: duplicate x-coordinates (input must be a set of reals)")
		}
	}
	// Smallest root level whose cap leaves at least 2× slack.
	level := 0
	for p.cap(level) < 2*len(xs) && p.cap(level) < 1<<40 {
		level++
	}
	p.root = p.buildSub(xs, level, math.Inf(-1), math.Inf(1))
	p.ground(p.root, pts)
	p.refill(p.root)
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
