package polylog

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/aurs"
	"repro/internal/em"
	"repro/internal/point"
)

// piece is one canonical element of the range decomposition: either a
// multi-slab [a1,a2] at an internal node (leaf == NilHandle means
// unused) or a boundary leaf.
type piece struct {
	node   em.Handle
	a1, a2 int  // 1-based child range (multi-slabs)
	isLeaf bool // boundary leaf: select within [x1,x2] directly
}

// decompose returns the canonical pieces covering [x1, x2]: maximal
// multi-slabs at the nodes of the two boundary paths, plus the (at most
// two) boundary leaves.
func (t *Tree) decompose(x1, x2 float64) []piece {
	var pieces []piece
	var walk func(h em.Handle)
	walk = func(h em.Handle) {
		nd := t.store.Read(h)
		if nd.leaf {
			pieces = append(pieces, piece{node: h, isLeaf: true})
			return
		}
		// Contiguous run of fully-covered children → one multi-slab;
		// partially covered children → recurse.
		runStart := -1
		flush := func(end int) {
			if runStart >= 0 {
				pieces = append(pieces, piece{node: h, a1: runStart + 1, a2: end})
				runStart = -1
			}
		}
		for j := range nd.kids {
			clo := nd.kidLo[j]
			chi := nd.hi
			if j+1 < len(nd.kids) {
				chi = nd.kidLo[j+1]
			}
			switch {
			case chi <= x1 || clo > x2:
				flush(j)
			case clo >= x1 && chi <= math.Nextafter(x2, math.Inf(1)):
				if runStart < 0 {
					runStart = j
				}
			default:
				flush(j)
				walk(nd.kids[j])
			}
		}
		flush(len(nd.kids))
	}
	walk(t.root)
	return pieces
}

// slabSet adapts a multi-slab piece to the aurs.Set interface: Len and
// Max in O(1) I/Os from the (f,c2l)-structure's blocks, Rank in
// O(log_B(fl)) via the compressed sketch set. The ranks are taken in
// ∪G_ui, which agrees with the subtree union up to rank c2·l — the
// region AURS probes under its precondition (footnote 6 of the paper).
type slabSet struct {
	g      *aursGroup
	a1, a2 int
}

type aursGroup struct {
	fl interface {
		CountIn(a1, a2 int) int
		MaxIn(a1, a2 int) (float64, bool)
		Select(a1, a2, k int) float64
		Bound() int
	}
}

func (s slabSet) Len() int { return s.g.fl.CountIn(s.a1, s.a2) }

func (s slabSet) Max() float64 {
	v, ok := s.g.fl.MaxIn(s.a1, s.a2)
	if !ok {
		return math.Inf(-1)
	}
	return v
}

func (s slabSet) Rank(rho float64) float64 {
	k := int(math.Ceil(rho))
	if k < 1 {
		k = 1
	}
	if n := s.Len(); k > n {
		k = n
	}
	return s.g.fl.Select(s.a1, s.a2, k)
}

// SelectApprox performs approximate range k-selection: it returns a
// score τ such that between k and O(k)·(approximation constant) points
// of S∩[x1,x2] have score ≥ τ. ok is false when |S∩q| < k. k must be
// ≤ L().
//
// In-regime (every multi-slab large enough for the AURS precondition)
// the cost is O(log_B n) I/Os; otherwise the exact fallback described in
// the package comment fires.
func (t *Tree) SelectApprox(x1, x2 float64, k int) (float64, bool) {
	if k < 1 || k > t.opt.L {
		panic("polylog: k outside [1, L]")
	}
	if x1 > x2 || t.n == 0 {
		return 0, false
	}
	pieces := t.decompose(x1, x2)

	// Every candidate emitted below has rank ≥ k within its own piece
	// group, which is what makes max{candidates} a valid lower bound;
	// pieces holding fewer than k elements are pooled into one exactly
	// merged group so that collectively small pieces still produce a
	// rank-≥-k candidate when they hold the answer together.
	c1 := 8 // flgroup Select bound for base 2
	var slabs []aurs.Set
	var cands []float64
	var merged []float64
	for _, pc := range pieces {
		if pc.isLeaf {
			in := t.leafInRange(pc.node, x1, x2)
			if len(in) >= k {
				point.SortByScoreDesc(in)
				cands = append(cands, in[k-1].Score)
			} else {
				for _, p := range in {
					merged = append(merged, p.Score)
				}
			}
			continue
		}
		ss := slabSet{g: &aursGroup{fl: t.fl[pc.node]}, a1: pc.a1, a2: pc.a2}
		n := ss.Len()
		switch {
		case n >= c1*k:
			slabs = append(slabs, ss) // AURS precondition holds
		case n >= k:
			// Too small for AURS but big enough to own the answer:
			// probe its (f,c2l)-structure directly (rank ∈ [k, 8k]).
			t.Fallbacks++
			cands = append(cands, t.fl[pc.node].Select(pc.a1, pc.a2, k))
		case n > 0:
			t.Fallbacks++
			merged = append(merged, t.fl[pc.node].TopIn(pc.a1, pc.a2, n)...)
		}
	}
	if len(slabs) > 0 {
		cands = append(cands, aurs.Select(slabs, c1, k))
	}
	if len(merged) >= k {
		slices.SortFunc(merged, func(a, b float64) int { return cmp.Compare(b, a) })
		cands = append(cands, merged[k-1])
	}
	if len(cands) == 0 || t.Count(x1, x2) < k {
		return 0, false
	}
	best := cands[0]
	for _, c := range cands[1:] {
		if c > best {
			best = c
		}
	}
	return best, true
}

// Count returns |S ∩ [x1,x2]| using subtree weights plus boundary-leaf
// counts, in O(log_B n) I/Os.
func (t *Tree) Count(x1, x2 float64) int {
	if x1 > x2 {
		return 0
	}
	total := 0
	var walk func(h em.Handle)
	walk = func(h em.Handle) {
		nd := t.store.Read(h)
		if nd.leaf {
			total += t.leafCount(h, x1, x2)
			return
		}
		for j, kid := range nd.kids {
			clo := nd.kidLo[j]
			chi := nd.hi
			if j+1 < len(nd.kids) {
				chi = nd.kidLo[j+1]
			}
			if chi <= x1 || clo > x2 {
				continue
			}
			if clo >= x1 && chi <= math.Nextafter(x2, math.Inf(1)) {
				total += t.store.Read(kid).weight
				continue
			}
			walk(kid)
		}
	}
	walk(t.root)
	return total
}

// SelectBound returns the worst-case approximation factor of
// SelectApprox on the in-regime path: the returned score τ has between k
// and SelectBound()·k points of S∩q at or above it. It combines the
// AURS bound c' = c1²(2+2c1) with the ≤ 3 candidate pieces (one AURS
// aggregate + two boundary leaves, whose selection here is exact).
func (t *Tree) SelectBound() int { return aurs.Bound(8) + 2 }
