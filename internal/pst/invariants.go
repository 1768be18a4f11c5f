package pst

import (
	"fmt"
	"math"

	"repro/internal/em"
	"repro/internal/point"
)

// CheckInvariants validates every structural invariant of §2 (and, when
// token tracking is on, the two invariants of Lemma 3). It is meter-free
// (uses Peek) and intended for tests; it returns the first violation.
//
// Checked properties:
//   - tree shape: parent/child links, slab partition, weight caps,
//     x-lists sorted and within slabs;
//   - pilot sizing: |pilot| ≤ 2B, or at a T leaf ≤ its weight cap;
//     |pilot| < B/2 only when the whole T̂ subtree below is empty
//     ("includes all of them");
//   - layering: every pilot point lies in its node's slab, and scores in
//     pilot(v) are all ≥ every score stored strictly below v;
//   - representative blocks: rep = min score of the pilot, size = |pilot|,
//     and a node has a pilot record exactly when its size is positive;
//   - empty-pilot rule: an empty pilot implies an empty subtree;
//   - point conservation: the pilots partition the live point set;
//   - Lemma 3, Invariant 1: internal v holds ≥ |pilot(v)| − B insertion
//     tokens; Invariant 2: internal v holds ≥ B − |pilot(v)| deletion
//     tokens unless its subtree below is empty.
func (p *PST) CheckInvariants() error {
	if p.root == em.NilHandle {
		if p.n != 0 {
			return fmt.Errorf("empty tree with n=%d", p.n)
		}
		return nil
	}
	total := 0
	if err := p.checkT(p.root, math.Inf(-1), math.Inf(1), &total); err != nil {
		return err
	}
	if _, err := p.checkV(vid{p.root, 0}, math.Inf(1)); err != nil {
		return err
	}
	if total != p.n {
		return fmt.Errorf("pilot points %d != n %d", total, p.n)
	}
	return nil
}

// checkT validates the base-tree shape under h and accumulates pilot
// point counts.
func (p *PST) checkT(h em.Handle, lo, hi float64, total *int) error {
	nd := p.tstore.Peek(h)
	if nd.lo != lo || nd.hi != hi {
		return fmt.Errorf("tnode %d slab [%v,%v) want [%v,%v)", h, nd.lo, nd.hi, lo, hi)
	}
	if nd.weight > p.cap(nd.level) {
		return fmt.Errorf("tnode %d weight %d exceeds cap %d", h, nd.weight, p.cap(nd.level))
	}
	for i := range nd.vs {
		*total += nd.vs[i].size
		if (nd.vs[i].pilot != em.NilHandle) != (nd.vs[i].size > 0) {
			return fmt.Errorf("tnode %d vs %d size %d with pilot record %d", h, i, nd.vs[i].size, nd.vs[i].pilot)
		}
		ps := p.peekPilot(nd.vs[i].pilot)
		if len(ps) != nd.vs[i].size {
			return fmt.Errorf("tnode %d vs %d size %d != |pilot| %d", h, i, nd.vs[i].size, len(ps))
		}
		if len(ps) > 2*p.opt.PilotB && (nd.level > 0 || len(ps) > p.cap(0)) {
			return fmt.Errorf("tnode %d vs %d pilot overflow: %d", h, i, len(ps))
		}
		rep := math.Inf(-1)
		slo, shi := slabOf(nd, i)
		for _, q := range ps {
			if q.X < slo || q.X >= shi {
				return fmt.Errorf("tnode %d vs %d point %v outside slab [%v,%v)", h, i, q, slo, shi)
			}
			if rep == math.Inf(-1) || q.Score < rep {
				rep = q.Score
			}
		}
		if rep != nd.vs[i].rep && !(len(ps) == 0 && math.IsInf(nd.vs[i].rep, -1)) {
			return fmt.Errorf("tnode %d vs %d rep %v want %v", h, i, nd.vs[i].rep, rep)
		}
	}
	if nd.level == 0 {
		for i := 1; i < len(nd.xs); i++ {
			if nd.xs[i-1] >= nd.xs[i] {
				return fmt.Errorf("tnode %d x-list out of order", h)
			}
		}
		if len(nd.xs) > 0 && (nd.xs[0] < lo || nd.xs[len(nd.xs)-1] >= hi) {
			return fmt.Errorf("tnode %d x-list outside slab", h)
		}
		return nil
	}
	if len(nd.kids) == 0 {
		return fmt.Errorf("internal tnode %d without children", h)
	}
	if nd.kidLo[0] != lo {
		return fmt.Errorf("tnode %d kidLo[0]=%v want %v", h, nd.kidLo[0], lo)
	}
	for j, kid := range nd.kids {
		clo := nd.kidLo[j]
		chi := hi
		if j+1 < len(nd.kids) {
			chi = nd.kidLo[j+1]
		}
		cn := p.tstore.Peek(kid)
		if cn.parent != h || cn.childIdx != j {
			return fmt.Errorf("tnode %d kid %d bad parent link", h, j)
		}
		if cn.level != nd.level-1 {
			return fmt.Errorf("tnode %d kid %d level %d want %d", h, j, cn.level, nd.level-1)
		}
		if err := p.checkT(kid, clo, chi, total); err != nil {
			return err
		}
	}
	return nil
}

// checkV validates pilot layering and the Lemma 3 invariants over T̂,
// returning the maximum score stored strictly below v (−Inf if none).
func (p *PST) checkV(v vid, ancestorMin float64) (float64, error) {
	nd := p.tstore.Peek(v.t)
	ps := p.peekPilot(nd.vs[v.idx].pilot)

	pilotMin, pilotMax := math.Inf(1), math.Inf(-1)
	for _, q := range ps {
		if q.Score > ancestorMin {
			return 0, fmt.Errorf("layering: score %v above ancestor min %v", q.Score, ancestorMin)
		}
		pilotMin = math.Min(pilotMin, q.Score)
		pilotMax = math.Max(pilotMax, q.Score)
	}
	nextMin := math.Min(ancestorMin, pilotMin)

	belowMax := math.Inf(-1)
	belowNonEmpty := false
	childNonEmpty := false
	kids, n := p.vchildren(nd, v)
	for _, c := range kids[:n] {
		cn := p.tstore.Peek(c.t)
		if cn.vs[c.idx].size > 0 {
			childNonEmpty = true
		}
		bm, err := p.checkV(c, nextMin)
		if err != nil {
			return 0, err
		}
		if !math.IsInf(bm, -1) {
			belowNonEmpty = true
			belowMax = math.Max(belowMax, bm)
		}
		if cn.vs[c.idx].size > 0 {
			belowNonEmpty = true
		}
	}
	// Empty pilot ⇒ empty subtree below; < B/2 ⇒ "includes all".
	if len(ps) == 0 && belowNonEmpty {
		return 0, fmt.Errorf("empty pilot with non-empty subtree at %v", v)
	}
	if len(ps) < p.opt.PilotB/2 && childNonEmpty {
		return 0, fmt.Errorf("underflowed pilot (%d < B/2=%d) with non-empty child at %v",
			len(ps), p.opt.PilotB/2, v)
	}
	// Lemma 3 invariants, when tokens are tracked. Leaves are exempt
	// (rule 5), as is any v whose subtree below is empty (Invariant 2).
	if p.tok != nil && nd.level > 0 {
		if got, want := p.tok.ins[v], len(ps)-p.opt.PilotB; got < want {
			return 0, fmt.Errorf("Invariant 1 violated at %v: %d insertion tokens < %d", v, got, want)
		}
		if belowNonEmpty || childNonEmpty {
			if got, want := p.tok.del[v], p.opt.PilotB-len(ps); got < want {
				return 0, fmt.Errorf("Invariant 2 violated at %v: %d deletion tokens < %d", v, got, want)
			}
		}
	}
	// The subtree max seen from the parent includes this pilot.
	ret := belowMax
	if len(ps) > 0 {
		ret = math.Max(ret, pilotMax)
	}
	return ret, nil
}

// peekPilot is readPilot without the meter.
func (p *PST) peekPilot(h em.Handle) []point.P {
	if h == em.NilHandle {
		return nil
	}
	return p.pstore.Peek(h)
}

// Live returns all live points (test/bench helper; full scan).
func (p *PST) Live() []point.P { return p.liveAll() }
