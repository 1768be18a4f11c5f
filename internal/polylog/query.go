package polylog

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/aurs"
	"repro/internal/em"
	"repro/internal/flgroup"
	"repro/internal/point"
)

// piece is one canonical element of the range decomposition: either a
// multi-slab [a1,a2] of an internal node's children or a boundary leaf.
type piece struct {
	node   em.Handle
	a1, a2 int  // 1-based child range (multi-slabs)
	isLeaf bool // boundary leaf: select within [x1,x2] directly
}

// queryScratch is a Tree's working memory for SelectApprox (and, on
// the update path, leafSelect). A Tree is single-threaded by contract
// and every use resets what it takes, so the buffers grow to the
// largest query the structure has answered and are reused after that.
// None of it is charged to the I/O meter.
type queryScratch struct {
	pieces []piece
	in     []point.P // one boundary leaf's in-range points
	slabs  []slabSet
	sets   []aurs.Set // pointers into slabs, as AURS takes them
	cands  []float64
	merged []float64
	aurs   aurs.Scratch
}

// decompose appends to pieces the canonical pieces covering [x1, x2]
// below h: maximal multi-slabs at the nodes of the two boundary paths,
// plus the (at most two) boundary leaves.
func (t *Tree) decompose(pieces []piece, h em.Handle, x1, x2 float64) []piece {
	nd := t.store.Read(h)
	if nd.leaf {
		return append(pieces, piece{node: h, isLeaf: true})
	}
	// Contiguous run of fully-covered children → one multi-slab;
	// partially covered children → recurse.
	runStart := -1
	for j := range nd.kids {
		clo, chi := kidSlab(nd, j)
		disjoint := chi <= x1 || clo > x2
		if !disjoint && clo >= x1 && chi <= math.Nextafter(x2, math.Inf(1)) {
			if runStart < 0 {
				runStart = j
			}
			continue
		}
		if runStart >= 0 {
			pieces = append(pieces, piece{node: h, a1: runStart + 1, a2: j})
			runStart = -1
		}
		if !disjoint {
			pieces = t.decompose(pieces, nd.kids[j], x1, x2)
		}
	}
	if runStart >= 0 {
		pieces = append(pieces, piece{node: h, a1: runStart + 1, a2: len(nd.kids)})
	}
	return pieces
}

// kidSlab returns the slab [lo, hi) of nd's j-th child (a subtree for
// an internal node, a chunk for a leaf).
func kidSlab(nd *node, j int) (float64, float64) {
	hi := nd.hi
	if j+1 < len(nd.kids) {
		hi = nd.kidLo[j+1]
	}
	return nd.kidLo[j], hi
}

// slabSet adapts a multi-slab piece to the aurs.Set interface: Len and
// Max in O(1) I/Os from the (f,c2l)-structure's blocks, Rank in
// O(log_B(fl)) via the compressed sketch set. The ranks are taken in
// ∪G_ui, which agrees with the subtree union up to rank c2·l — the
// region AURS probes under its precondition (footnote 6 of the paper).
type slabSet struct {
	fl     *flgroup.Group
	a1, a2 int
}

func (s *slabSet) Len() int { return s.fl.CountIn(s.a1, s.a2) }

func (s *slabSet) Max() float64 {
	v, ok := s.fl.MaxIn(s.a1, s.a2)
	if !ok {
		return math.Inf(-1)
	}
	return v
}

func (s *slabSet) Rank(rho float64) float64 {
	k := int(math.Ceil(rho))
	if k < 1 {
		k = 1
	}
	if n := s.Len(); k > n {
		k = n
	}
	return s.fl.Select(s.a1, s.a2, k)
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
	qs := &t.qs
	qs.pieces = t.decompose(qs.pieces[:0], t.root, x1, x2)

	// Every candidate emitted below has rank ≥ k within its own piece
	// group, which is what makes max{candidates} a valid lower bound;
	// pieces holding fewer than k elements are pooled into one exactly
	// merged group so that collectively small pieces still produce a
	// rank-≥-k candidate when they hold the answer together.
	c1 := 8 // flgroup Select bound for base 2
	qs.slabs, qs.cands, qs.merged = qs.slabs[:0], qs.cands[:0], qs.merged[:0]
	for _, pc := range qs.pieces {
		if pc.isLeaf {
			qs.in = t.leafInRange(qs.in[:0], pc.node, x1, x2)
			if len(qs.in) >= k {
				point.SortByScoreDesc(qs.in)
				qs.cands = append(qs.cands, qs.in[k-1].Score)
			} else {
				for _, p := range qs.in {
					qs.merged = append(qs.merged, p.Score)
				}
			}
			continue
		}
		ss := slabSet{fl: t.fl[pc.node], a1: pc.a1, a2: pc.a2}
		n := ss.Len()
		switch {
		case n >= c1*k:
			qs.slabs = append(qs.slabs, ss) // AURS precondition holds
		case n >= k:
			// Too small for AURS but big enough to own the answer:
			// probe its (f,c2l)-structure directly (rank ∈ [k, 8k]).
			t.Fallbacks++
			qs.cands = append(qs.cands, ss.fl.Select(pc.a1, pc.a2, k))
		case n > 0:
			t.Fallbacks++
			qs.merged = ss.fl.AppendTopIn(qs.merged, pc.a1, pc.a2, n)
		}
	}
	if len(qs.slabs) > 0 {
		qs.sets = qs.sets[:0]
		for i := range qs.slabs {
			qs.sets = append(qs.sets, &qs.slabs[i])
		}
		qs.cands = append(qs.cands, qs.aurs.Select(qs.sets, c1, k))
	}
	if len(qs.merged) >= k {
		slices.SortFunc(qs.merged, func(a, b float64) int { return cmp.Compare(b, a) })
		qs.cands = append(qs.cands, qs.merged[k-1])
	}
	if len(qs.cands) == 0 || t.Count(x1, x2) < k {
		return 0, false
	}
	return slices.Max(qs.cands), true
}

// Count returns |S ∩ [x1,x2]| using subtree weights plus boundary-leaf
// counts, in O(log_B n) I/Os.
func (t *Tree) Count(x1, x2 float64) int {
	if x1 > x2 {
		return 0
	}
	return t.count(t.root, x1, x2)
}

func (t *Tree) count(h em.Handle, x1, x2 float64) int {
	nd := t.store.Read(h)
	if nd.leaf {
		return t.leafCount(h, x1, x2)
	}
	total := 0
	for j, kid := range nd.kids {
		clo, chi := kidSlab(nd, j)
		if chi <= x1 || clo > x2 {
			continue
		}
		if clo >= x1 && chi <= math.Nextafter(x2, math.Inf(1)) {
			total += t.store.Read(kid).weight
			continue
		}
		total += t.count(kid, x1, x2)
	}
	return total
}

// SelectBound returns the worst-case approximation factor of
// SelectApprox on the in-regime path: the returned score τ has between k
// and SelectBound()·k points of S∩q at or above it. It combines the
// AURS bound c' = c1²(2+2c1) with the ≤ 3 candidate pieces (one AURS
// aggregate + two boundary leaves, whose selection here is exact).
func (t *Tree) SelectBound() int { return aurs.Bound(8) + 2 }
