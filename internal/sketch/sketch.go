// Package sketch implements the logarithmic sketch of Sheng and Tao,
// the tool §4.1 of the paper builds on, together with the multi-set
// approximate rank selection of Lemma 7.
//
// Let L be a set of l real values; the rank of e in L is |{e' ∈ L :
// e' ≥ e}| (the largest element has rank 1). A sketch Σ of L is an array
// of ⌊log_c l⌋+1 pivots where the j-th pivot is an element of L whose
// rank falls in the window [c^(j-1), c^j). The paper uses c = 2; the base
// is a parameter here so the ablation bench can vary it.
//
// Lemma 7: given sketches of m disjoint sets and 1 ≤ k ≤ |∪L_i|, a value
// x with rank in [k, c3·k] in the union can be found from the sketches
// alone, where c3 is a constant (c3 = c³ for this implementation; 8 for
// the paper's base 2). Merge implements it:
//
//	For a threshold x, est_i(x) = c^(j-1) where j is the largest pivot
//	index of Σ_i with value ≥ x (0 if none). Validity of the sketches
//	gives est_i(x) ≤ rank_i(x) < c²·est_i(x). Merge returns the largest
//	pivot value x with EST(x) = Σ est_i(x) ≥ k, or -∞ if no pivot
//	qualifies. Lower bound: rank(x) ≥ EST(x) ≥ k. Upper bound: let x'
//	be the next larger candidate (EST(x') < k); moving to x raises one
//	sketch's estimate by at most (c-1)·est_i(x') < (c-1)·k, so
//	EST(x) < c·k and rank(x) < c²·EST(x) < c³·k. For -∞: EST(-∞) ≥
//	|∪L_i|/c, so EST(-∞) < k implies rank(-∞) = |∪L_i| < c·k.
//
// Package flgroup maintains the compressed, rank-encoded form of these
// sketches under updates (§4.2/§4.3) and merges them with MergeRanked.
package sketch

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
)

// DefaultBase is the rank-window base used by the paper.
const DefaultBase = 2

// Sketch is a logarithmic sketch: Pivots[j-1] is the paper's Σ[j].
type Sketch struct {
	Base   int
	Pivots []float64
}

// NumPivots returns the pivot count required for a set of size l:
// ⌊log_base l⌋ + 1, and 0 for an empty set.
func NumPivots(l, base int) int {
	if l <= 0 {
		return 0
	}
	n, p := 1, base
	for p <= l {
		n++
		p *= base
	}
	return n
}

// WindowLo returns the smallest legal rank of pivot j (1-based): c^(j-1).
func WindowLo(j, base int) int {
	lo := 1
	for i := 1; i < j; i++ {
		lo *= base
	}
	return lo
}

// Build constructs the canonical sketch of the given set with pivot j
// chosen as the element of rank c^(j-1). sortedDesc must be sorted by
// descending value.
func Build(sortedDesc []float64, base int) Sketch {
	if base < 2 {
		panic("sketch: base must be ≥ 2")
	}
	s := Sketch{Base: base}
	for j := 1; j <= NumPivots(len(sortedDesc), base); j++ {
		s.Pivots = append(s.Pivots, sortedDesc[WindowLo(j, base)-1])
	}
	return s
}

// Validate checks that s is a legal sketch of the set sortedDesc: correct
// pivot count, each pivot present with rank inside its window.
func Validate(s Sketch, sortedDesc []float64) error {
	want := NumPivots(len(sortedDesc), s.Base)
	if len(s.Pivots) != want {
		return fmt.Errorf("sketch: %d pivots, want %d for l=%d", len(s.Pivots), want, len(sortedDesc))
	}
	for j, p := range s.Pivots {
		r := sort.Search(len(sortedDesc), func(i int) bool { return sortedDesc[i] <= p })
		if r >= len(sortedDesc) || sortedDesc[r] != p {
			return fmt.Errorf("sketch: pivot %d value %v not in set", j+1, p)
		}
		rank := r + 1
		lo := WindowLo(j+1, s.Base)
		if rank < lo || rank >= lo*s.Base {
			return fmt.Errorf("sketch: pivot %d rank %d outside [%d,%d)", j+1, rank, lo, lo*s.Base)
		}
	}
	return nil
}

// MergeBound returns the approximation constant c3 guaranteed by Merge
// for the given base: base³.
func MergeBound(base int) int { return base * base * base }

// Merge implements Lemma 7: it returns a value x whose rank in the union
// of the sketched sets lies in [k, MergeBound(base)·k], provided every
// sketch is valid and 1 ≤ k ≤ |∪L_i|. x is either −∞ or an element of
// the union. The I/O cost of reading the m sketches is borne by the
// caller (each sketch occupies O(1) blocks); Merge itself is CPU-only,
// which is free in the EM model.
func Merge(sketches []Sketch, k int) float64 {
	if k < 1 {
		panic("sketch: k must be ≥ 1")
	}
	type cand struct {
		value float64
		si    int // sketch index
		j     int // 1-based pivot index
	}
	var cands []cand
	base := DefaultBase
	for si, s := range sketches {
		if s.Base != 0 {
			base = s.Base
		}
		for j, v := range s.Pivots {
			cands = append(cands, cand{v, si, j + 1})
		}
	}
	// Sweep candidates from largest to smallest, maintaining
	// EST = Σ_i est_i incrementally.
	sort.Slice(cands, func(a, b int) bool { return cands[a].value > cands[b].value })
	est := make([]int, len(sketches))
	total := 0
	for _, c := range cands {
		w := WindowLo(c.j, base)
		if w > est[c.si] {
			total += w - est[c.si]
			est[c.si] = w
		}
		if total >= k {
			return c.value
		}
	}
	return math.Inf(-1)
}

// Scratch holds MergeRanked's working lists between calls, so a caller
// that keeps one merges without allocating once the lists have grown.
// The zero value is ready; a Scratch is not safe for concurrent use.
type Scratch struct {
	cands []rankedCand
	est   []int
}

type rankedCand struct {
	grank int
	si    int
	j     int
}

// MergeRanked is Merge for rank-encoded sketches, the compressed form of
// §4.1: pivots are identified by their global rank in the ground set G
// (1 = largest) instead of by value, which is all a compressed sketch
// set stores. ranked[i][j-1] is the global rank of the j-th pivot of
// sketch i. The function returns the global rank g* of a pivot whose
// rank within the union of the sketched sets lies in [k, MergeBound·k],
// or 0 to signify −∞ (the union is smaller than base·k).
//
// The algorithm is Merge with the sweep order reversed: ascending global
// rank is descending value.
func (s *Scratch) MergeRanked(ranked [][]int, base, k int) int {
	if k < 1 {
		panic("sketch: k must be ≥ 1")
	}
	s.cands = s.cands[:0]
	for si, piv := range ranked {
		for j, g := range piv {
			s.cands = append(s.cands, rankedCand{g, si, j + 1})
		}
	}
	slices.SortFunc(s.cands, func(a, b rankedCand) int { return cmp.Compare(a.grank, b.grank) })
	if cap(s.est) < len(ranked) {
		s.est = make([]int, len(ranked))
	}
	est := s.est[:len(ranked)]
	clear(est)
	total := 0
	for _, c := range s.cands {
		w := WindowLo(c.j, base)
		if w > est[c.si] {
			total += w - est[c.si]
			est[c.si] = w
		}
		if total >= k {
			return c.grank
		}
	}
	return 0
}
