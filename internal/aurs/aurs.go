// Package aurs implements approximate union-rank selection (§3.1 and the
// appendix of the paper, Lemma 5).
//
// Given m disjoint sets L_1, …, L_m of real values, each accessible only
// through a Max operator and an approximate Rank operator (which, for a
// parameter ρ, returns an element whose rank in L_i falls in [ρ, c1·ρ)),
// and an integer k with 1 ≤ k ≤ min_i |L_i| / c1, Select returns an
// element of ∪L_i whose rank in the union falls in [k, c'·k] for a
// constant c' depending only on c1. The cost is O(m·(cost_max +
// cost_rank)) I/Os, charged by the Set implementations themselves.
//
// The algorithm is the adaptation of Frederickson–Johnson rank selection
// described in the appendix: ⌈log_c m⌉ rounds over a shrinking active
// set, fetching markers of geometrically growing target rank c^j·k/m,
// weighting them by the increase of that target, keeping the ⌈m/c^j⌉
// largest markers as pivots, and finally weighted-selecting the largest
// pivot whose prefix weight reaches k. The k < m case first prunes to
// the k sets whose maxima beat the k-th largest maximum.
package aurs

import (
	"cmp"
	"math"
	"slices"
)

// Set is the paper's access interface to one L_i.
type Set interface {
	// Len returns |L_i|. (Metadata; any real implementation keeps a
	// counter, so no I/O is charged for it.)
	Len() int
	// Max returns the largest element of L_i.
	Max() float64
	// Rank returns an element of L_i whose rank (|{e' ≥ e}|, largest has
	// rank 1) falls in [ρ, c1·ρ), clamped to |L_i| when c1·ρ exceeds it.
	Rank(rho float64) float64
}

// Bound returns the approximation constant c' proven in the appendix:
// the returned element's rank lies in [k, c'·k] with c' = c²(2+2c).
func Bound(c1 int) int { return c1 * c1 * (2 + 2*c1) }

// Select performs approximate union-rank selection with approximation
// parameter c1 ≥ 2 (the guarantee of the Rank operators). It panics if
// k violates the precondition 1 ≤ k ≤ min|L_i|/c1 of §3.1 equation (2).
func Select(sets []Set, c1 int, k int) float64 {
	var s Scratch
	return s.Select(sets, c1, k)
}

// Scratch holds Select's working lists between calls, so a caller that
// keeps one selects without allocating once the lists have grown to
// its set counts. The zero value is ready; a Scratch is not safe for
// concurrent use.
type Scratch struct {
	maxima  []setMax
	active  []Set
	idx     []int
	markers []marker
	pivots  []pivot
}

type setMax struct {
	i   int
	max float64
}

type marker struct {
	set    int
	value  float64
	weight int
}

type pivot struct {
	value  float64
	weight int
}

// Select is the package's Select on the scratch's lists.
func (s *Scratch) Select(sets []Set, c1 int, k int) float64 {
	if c1 < 2 {
		panic("aurs: c1 must be ≥ 2")
	}
	if len(sets) == 0 {
		panic("aurs: no sets")
	}
	for _, set := range sets {
		if k < 1 || k > set.Len()/c1 {
			panic("aurs: k outside [1, min|L_i|/c1]")
		}
	}
	m := len(sets)
	if k >= m {
		return s.selectCore(sets, c1, k)
	}
	// Case k < m: prune with Max.
	s.maxima = s.maxima[:0]
	for i, set := range sets {
		s.maxima = append(s.maxima, setMax{i, set.Max()})
	}
	slices.SortFunc(s.maxima, func(a, b setMax) int { return cmp.Compare(b.max, a.max) })
	vPrime := s.maxima[k-1].max
	s.active = s.active[:0]
	for _, e := range s.maxima[:k] {
		s.active = append(s.active, sets[e.i])
	}
	v := s.selectCore(s.active, c1, k)
	return math.Max(v, vPrime)
}

// selectCore is the main (k ≥ m) algorithm.
func (s *Scratch) selectCore(sets []Set, c1 int, k int) float64 {
	m := len(sets)
	c := float64(c1)

	s.pivots = s.pivots[:0]
	active := s.idx[:0]
	for i := range m {
		active = append(active, i)
	}
	rounds := 1
	for p := c1; p < m; p *= c1 {
		rounds++
	}
	cj := c // c^j
	prevCeil := 0
	for j := 1; j <= rounds && len(active) > 0; j++ {
		rho := cj * float64(k) / float64(m)
		if rho < 1 {
			rho = 1
		}
		curCeil := int(math.Ceil(cj * float64(k) / float64(m)))
		w := curCeil - prevCeil
		if j == 1 {
			w = curCeil
		}
		if w < 1 {
			w = 1
		}
		prevCeil = curCeil

		s.markers = s.markers[:0]
		for _, i := range active {
			s.markers = append(s.markers, marker{set: i, value: sets[i].Rank(rho), weight: w})
		}
		slices.SortFunc(s.markers, func(a, b marker) int { return cmp.Compare(b.value, a.value) })

		keep := int(math.Ceil(float64(m) / math.Pow(c, float64(j))))
		if keep > len(s.markers) {
			keep = len(s.markers)
		}
		if keep < 1 {
			keep = 1
		}
		// The kept markers' sets become the next round's active set;
		// active is read only to build the markers, so it is
		// rewritten in place.
		active = active[:0]
		for _, mk := range s.markers[:keep] {
			s.pivots = append(s.pivots, pivot{value: mk.value, weight: mk.weight})
			active = append(active, mk.set)
		}
		cj *= c
	}
	s.idx = active

	// Weighted selection (CPU; the pivot list has O(m) entries).
	slices.SortFunc(s.pivots, func(a, b pivot) int { return cmp.Compare(b.value, a.value) })
	prefix := 0
	for _, p := range s.pivots {
		prefix += p.weight
		if prefix >= k {
			return p.value
		}
	}
	// Observation 1 guarantees a cutoff pivot with prefix weight ≥ k, so
	// this is unreachable for conforming Rank operators.
	panic("aurs: no pivot reached prefix weight k")
}
