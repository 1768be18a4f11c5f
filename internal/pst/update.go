package pst

import (
	"sort"

	"repro/internal/em"
	"repro/internal/point"
)

// Insert adds pt to the structure in O(log_B n) amortized I/Os: one
// root-to-leaf descent of T updating weights and inserting the
// x-coordinate, one descent locating the pilot set that must absorb pt
// (decided per T-node from the representative block, i.e. the rep/size
// fields bundled in the tnode record), push-downs on overflow, and the
// WBB rebuild of the subtree under the parent of the highest unbalanced
// node when one exists.
func (p *PST) Insert(pt point.P) {
	if p.root == em.NilHandle {
		p.rebuildAll([]point.P{pt})
		return
	}
	p.n++

	// Descent 1: weights + x insertion, recording the highest node that
	// becomes unbalanced.
	unbalanced := em.NilHandle
	h := p.root
	for {
		nd := p.tstore.Read(h)
		nd.weight++
		if nd.weight > p.cap(nd.level) && unbalanced == em.NilHandle {
			unbalanced = h
		}
		if nd.level == 0 {
			i := sort.SearchFloat64s(nd.xs, pt.X)
			if i < len(nd.xs) && nd.xs[i] == pt.X {
				// The coordinate is already routable: deletions leave
				// x-coordinates in T (§2), so this is the re-insertion
				// of a previously deleted point — reuse the stale
				// entry. (Inserting an x equal to a LIVE point's x
				// violates the problem's set-of-reals contract; the
				// caller-facing structures reject it.)
				p.tstore.Write(h, nd)
				break
			}
			nd.xs = append(nd.xs, 0)
			copy(nd.xs[i+1:], nd.xs[i:])
			nd.xs[i] = pt.X
			p.tstore.Write(h, nd)
			break
		}
		p.tstore.Write(h, nd)
		h = nd.kids[routeKid(nd, pt.X)]
	}

	// Descent 2: place pt into the topmost pilot set that must hold it.
	p.placePoint(pt)

	// Rebalance: rebuild under the parent of the highest unbalanced
	// node; if the root itself is unbalanced, rebuild globally with a
	// taller tree.
	if unbalanced != em.NilHandle {
		und := p.tstore.Read(unbalanced)
		if und.parent == em.NilHandle {
			p.rebuildAll(p.liveAll())
			return
		}
		p.rebuildSubtree(und.parent)
	}
	p.maybeGlobalRebuild()
}

// placePoint walks the root-to-leaf path of T̂ toward pt.X and inserts
// pt into the first node v where it belongs: a T-leaf (whose pilot holds
// everything not absorbed above), a pilot whose representative pt
// outranks, or a pilot with spare capacity (< B points) whose subtree
// below stores nothing.
//
// The last condition is what keeps Invariant 2 of Lemma 3 inductive: if
// pt were placed below a node v with |pilot(v)| < B and an empty
// subtree, v's "all descendants empty" exemption would vanish with no
// deletion tokens to cover B − |pilot(v)|. Placing pt at v instead is
// legal (nothing below v outranks it) and shrinks B − |pilot(v)|.
func (p *PST) placePoint(pt point.P) {
	h := p.root
	for {
		nd := p.tstore.Read(h)
		for idx := 0; idx >= 0; idx = nextVS(nd, idx, pt.X) {
			m := nd.vs[idx]
			takeHere := nd.level == 0 || pt.Score >= m.rep ||
				(m.size < p.opt.PilotB && !p.anyChildNonempty(nd, vid{h, idx}))
			if takeHere {
				ps := append(p.readPilot(m.pilot), pt)
				p.writePilot(nd, idx, ps)
				p.tstore.Write(h, nd)
				p.tok.onInsert(vid{h, idx})
				if len(ps) > 2*p.opt.PilotB {
					p.pushDown(vid{h, idx})
				}
				return
			}
		}
		nd = p.tstore.Read(h)
		h = nd.kids[routeKid(nd, pt.X)]
	}
}

// Delete removes the point with the given coordinate and score,
// reporting whether it was present. The x-coordinate is deliberately NOT
// removed from the base tree (§2: "we do not remove the x-coordinate of
// p from the base tree T"); stale coordinates disappear at the next
// rebuild touching their leaf.
func (p *PST) Delete(pt point.P) bool {
	if p.root == em.NilHandle {
		return false
	}
	h := p.root
	for {
		nd := p.tstore.Read(h)
		for idx := 0; idx >= 0; idx = nextVS(nd, idx, pt.X) {
			m := nd.vs[idx]
			if m.size == 0 || pt.Score < m.rep {
				continue
			}
			// By the layering of pilots along a root-to-leaf path, pt
			// can only live here.
			ps := p.readPilot(m.pilot)
			at := -1
			for i, q := range ps {
				if q.X == pt.X && q.Score == pt.Score {
					at = i
					break
				}
			}
			if at < 0 {
				return false
			}
			ps = append(ps[:at], ps[at+1:]...)
			p.writePilot(nd, idx, ps)
			p.tstore.Write(h, nd)
			p.tok.onDelete(vid{h, idx})
			p.n--
			p.fixUnderflow(vid{h, idx})
			p.maybeGlobalRebuild()
			return true
		}
		nd = p.tstore.Read(h)
		if nd.level == 0 {
			return false
		}
		h = nd.kids[routeKid(nd, pt.X)]
	}
}

// pushDown restores |pilot(v)| ≤ 2B by moving the lowest |pilot|−B
// points into the pilot sets of v's (at most two) T̂ children, cascading
// as needed. A T leaf has no children and keeps what it holds: its
// weight cap, not 2B, bounds it, and it may exceed 2B when PilotB is
// below Branch/2.
func (p *PST) pushDown(v vid) {
	nd := p.tstore.Read(v.t)
	ps := p.readPilot(nd.vs[v.idx].pilot)
	if len(ps) <= 2*p.opt.PilotB || nd.level == 0 {
		return
	}
	point.SortByScoreDesc(ps)
	keep := append([]point.P(nil), ps[:p.opt.PilotB]...)
	movers := ps[p.opt.PilotB:]
	p.writePilot(nd, v.idx, keep)
	p.tstore.Write(v.t, nd)

	kidArr, nk := p.vchildren(nd, v)
	kids := kidArr[:nk]
	var overflowed []vid
	for _, c := range kids {
		cn := p.tstore.Read(c.t)
		clo, chi := slabOf(cn, c.idx)
		var take []point.P
		for _, q := range movers {
			if q.X >= clo && q.X < chi {
				take = append(take, q)
			}
		}
		if len(take) == 0 {
			continue
		}
		cps := append(p.readPilot(cn.vs[c.idx].pilot), take...)
		p.writePilot(cn, c.idx, cps)
		p.tstore.Write(c.t, cn)
		p.tok.onPushDown(v, c, len(take))
		if len(cps) > 2*p.opt.PilotB {
			overflowed = append(overflowed, c)
		}
	}
	for _, c := range overflowed {
		p.pushDown(c)
	}
}

// anyChildNonempty reports whether a T̂ child of v has a non-empty
// pilot. nd must be the loaded record of v.t.
func (p *PST) anyChildNonempty(nd *tnode, v vid) bool {
	kids, n := p.vchildren(nd, v)
	for _, c := range kids[:n] {
		var sz int
		if c.t == v.t {
			sz = nd.vs[c.idx].size
		} else {
			sz = p.tstore.Read(c.t).vs[c.idx].size
		}
		if sz > 0 {
			return true
		}
	}
	return false
}

// pullUpOnce performs one pull-up at v: it moves the
// min(B/2, B−|pilot(v)|) highest points of the children's pilot sets
// into pilot(v). It reports whether the pull-up was draining (fewer
// points were available than requested), in which case the entire
// subtree below v is empty and its tokens disappear (rule 6).
func (p *PST) pullUpOnce(v vid) (drained bool) {
	nd := p.tstore.Read(v.t)
	m := nd.vs[v.idx]
	need := p.opt.PilotB / 2
	if r := p.opt.PilotB - m.size; r < need {
		need = r
	}
	if need <= 0 {
		return false
	}
	kidArr, nk := p.vchildren(nd, v)
	kids := kidArr[:nk]
	type src struct {
		c  vid
		ps []point.P
	}
	var srcs []src
	var all []point.P
	for _, c := range kids {
		cn := p.tstore.Read(c.t)
		ps := p.readPilot(cn.vs[c.idx].pilot)
		srcs = append(srcs, src{c, ps})
		all = append(all, ps...)
	}
	point.SortByScoreDesc(all)
	drained = len(all) < need
	if len(all) > need {
		all = all[:need]
	}
	if len(all) == 0 {
		return drained
	}
	cut := all[len(all)-1].Score // movers: score ≥ cut
	moved := 0
	for _, s := range srcs {
		var stay, go_ []point.P
		for _, q := range s.ps {
			if q.Score >= cut {
				go_ = append(go_, q)
			} else {
				stay = append(stay, q)
			}
		}
		if len(go_) == 0 {
			continue
		}
		cn := p.tstore.Read(s.c.t)
		p.writePilot(cn, s.c.idx, stay)
		p.tstore.Write(s.c.t, cn)
		p.tok.onPullUp(v, s.c, len(go_))
		moved += len(go_)
	}
	if moved != len(all) {
		panic("pst: pull-up cut mismatch")
	}
	nd = p.tstore.Read(v.t)
	ps := append(p.readPilot(nd.vs[v.idx].pilot), all...)
	p.writePilot(nd, v.idx, ps)
	p.tstore.Write(v.t, nd)
	if drained {
		p.dropTokensBelow(v.t, v.idx)
	}
	return drained
}

// fixUnderflow remedies a pilot underflow at v (|pilot| < B/2 while a
// child pilot is non-empty): at most two pull-ups, fixing child
// underflows recursively after each, until |pilot(v)| = B or a draining
// pull-up occurred — the procedure of §2 "Deletion".
func (p *PST) fixUnderflow(v vid) {
	nd := p.tstore.Read(v.t)
	if nd.vs[v.idx].size >= p.opt.PilotB/2 || !p.anyChildNonempty(nd, v) {
		return
	}
	for round := 0; round < 2; round++ {
		drained := p.pullUpOnce(v)
		nd = p.tstore.Read(v.t)
		kids, n := p.vchildren(nd, v)
		for _, c := range kids[:n] {
			p.fixUnderflow(c)
		}
		nd = p.tstore.Read(v.t)
		if drained || nd.vs[v.idx].size >= p.opt.PilotB {
			return
		}
	}
}
