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
// The package also provides Tracked, a sketch with exact per-pivot local
// ranks maintained incrementally under insertions and deletions — the
// bookkeeping that §4.2/§4.3 perform on the compressed sketch set.
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

// Pivot is one sketch entry: an element and (when tracked) its exact
// local rank.
type Pivot struct {
	Value float64
	// Rank is the exact local rank |{e ∈ L : e ≥ Value}|. Static sketches
	// built by Build carry the construction-time rank.
	Rank int
}

// Sketch is a logarithmic sketch: Pivots[j-1] is the paper's Σ[j].
type Sketch struct {
	Base   int
	Pivots []Pivot
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
		r := WindowLo(j, base)
		s.Pivots = append(s.Pivots, Pivot{Value: sortedDesc[r-1], Rank: r})
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
		r := sort.Search(len(sortedDesc), func(i int) bool { return sortedDesc[i] <= p.Value })
		if r >= len(sortedDesc) || sortedDesc[r] != p.Value {
			return fmt.Errorf("sketch: pivot %d value %v not in set", j+1, p.Value)
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
		for j := range s.Pivots {
			cands = append(cands, cand{s.Pivots[j].Value, si, j + 1})
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

// Tracked is a sketch whose pivots carry exact local ranks, updated
// incrementally as the underlying set changes. It performs exactly the
// in-memory bookkeeping of §4.2/§4.3: rank shifts on every update,
// expansion/shrink when |L| crosses a power of the base, detection of
// dangling and invalidated pivots. It does not access the set itself;
// when a new or replacement pivot element is needed, the caller supplies
// it (from a B-tree, per the paper).
type Tracked struct {
	Base   int
	Size   int
	Pivots []Pivot
}

// NewTracked returns an empty tracked sketch.
func NewTracked(base int) *Tracked {
	if base < 2 {
		panic("sketch: base must be ≥ 2")
	}
	return &Tracked{Base: base}
}

// BuildTracked constructs a canonical tracked sketch for sortedDesc.
func BuildTracked(sortedDesc []float64, base int) *Tracked {
	s := Build(sortedDesc, base)
	return &Tracked{Base: base, Size: len(sortedDesc), Pivots: s.Pivots}
}

// Sketch returns the static view for merging.
func (t *Tracked) Sketch() Sketch { return Sketch{Base: t.Base, Pivots: t.Pivots} }

// WantPivots returns the required pivot count for the current size.
func (t *Tracked) WantPivots() int { return NumPivots(t.Size, t.Base) }

// NoteInsert records the insertion of v into the set: ranks of pivots
// with value ≤ v shift up by one. It returns true if the sketch must
// expand (|L| reached a new power of the base); the caller then appends
// the minimum element via AppendPivot.
func (t *Tracked) NoteInsert(v float64) (expand bool) {
	t.Size++
	for i := range t.Pivots {
		if t.Pivots[i].Value <= v {
			t.Pivots[i].Rank++
		}
	}
	return t.WantPivots() > len(t.Pivots)
}

// AppendPivot adds the expansion pivot: the element of local rank rank
// (the paper uses the minimum, rank = |L|).
func (t *Tracked) AppendPivot(v float64, rank int) {
	t.Pivots = append(t.Pivots, Pivot{Value: v, Rank: rank})
}

// NoteDelete records the deletion of v: ranks of pivots with value < v
// shift down by one. dangling is the 1-based index of the pivot whose
// element was v itself (0 if none); the caller must replace it via
// SetPivot. If the sketch must shrink, the last pivot is dropped first
// (a dangling last pivot therefore reports 0 after the shrink).
func (t *Tracked) NoteDelete(v float64) (dangling int) {
	t.Size--
	for i := range t.Pivots {
		if t.Pivots[i].Value < v {
			t.Pivots[i].Rank--
		} else if t.Pivots[i].Value == v {
			dangling = i + 1
		}
	}
	if want := t.WantPivots(); want < len(t.Pivots) {
		t.Pivots = t.Pivots[:want]
		if dangling > want {
			dangling = 0
		}
	}
	return dangling
}

// SetPivot replaces pivot j (1-based) with the element v of local rank
// rank. The paper repairs an invalidated Σ[j] with the element of rank
// ⌊(3/2)·c^(j-1)⌋ so that Ω(c^(j-1)) updates are needed to invalidate it
// again; RepairRank computes that target.
func (t *Tracked) SetPivot(j int, v float64, rank int) {
	t.Pivots[j-1] = Pivot{Value: v, Rank: rank}
}

// RepairRank returns the target local rank for repairing pivot j:
// ⌊(3/2)·c^(j-1)⌋, clamped into [1, Size].
func (t *Tracked) RepairRank(j int) int {
	r := 3 * WindowLo(j, t.Base) / 2
	if r < 1 {
		r = 1
	}
	if r > t.Size {
		r = t.Size
	}
	return r
}

// Invalidated returns the 1-based indices of pivots whose exact rank has
// left its window [c^(j-1), c^j).
func (t *Tracked) Invalidated() []int {
	var out []int
	for j := 1; j <= len(t.Pivots); j++ {
		lo := WindowLo(j, t.Base)
		r := t.Pivots[j-1].Rank
		if r < lo || r >= lo*t.Base {
			out = append(out, j)
		}
	}
	return out
}

// WordSize returns the storage footprint in words: one value plus one
// rank per pivot, plus the size counter. (The compressed bit-packed form
// used inside a block is produced by package flgroup.)
func (t *Tracked) WordSize() int { return 1 + 2*len(t.Pivots) }
