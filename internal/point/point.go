// Package point defines the vocabulary shared by every layer of the
// repository, from the EM structures to the HTTP wire: a
// one-dimensional point with a real-valued score (P), an update that
// inserts or deletes one (Op), and a top-k range query (Query).
//
// Following the paper (§2), a top-k query has a natural geometric
// interpretation: map each element e to the planar point (e, score(e));
// then the query reports the k highest points in the vertical slab
// q × (−∞, ∞). Both coordinates are float64 and scores are assumed
// distinct, the standard assumption that makes top-k results unique.
package point

import (
	"math"
	"math/rand/v2"
	"slices"
)

// P is an input element: position X with score Score. The JSON tags
// are the wire spelling of a point in every /v1 request and response.
type P struct {
	X     float64 `json:"x"`
	Score float64 `json:"score"`
}

// Op is one update: an insert of (X, Score), or a delete when Delete
// is set.
type Op struct {
	Delete   bool
	X, Score float64
}

// Point returns the point op inserts or deletes.
func (op Op) Point() P { return P{X: op.X, Score: op.Score} }

// Query is one top-k read: the K highest-scoring points with position
// in [X1, X2].
type Query struct {
	X1, X2 float64
	K      int
}

// Finite reports whether both coordinates are real numbers (no NaN,
// no ±Inf). The paper's input is a set of reals; non-finite values
// additionally break position routing and map-based duplicate guards
// (NaN is unequal to itself), so every insert path rejects them first.
func (p P) Finite() bool {
	return !math.IsNaN(p.X) && !math.IsInf(p.X, 0) &&
		!math.IsNaN(p.Score) && !math.IsInf(p.Score, 0)
}

// In reports whether p lies in the closed interval [x1, x2].
func (p P) In(x1, x2 float64) bool { return x1 <= p.X && p.X <= x2 }

// SortByX sorts ps ascending by X, breaking ties by score (ties in X
// can occur; ties in score are excluded by the distinct-score
// assumption), comparing each field once per step.
//
// Both sorts use slices.SortFunc: sort.Slice swaps through reflection,
// which made it the engine's largest CPU cost on wide reads.
func SortByX(ps []P) {
	slices.SortFunc(ps, func(a, b P) int {
		switch {
		case a.X < b.X:
			return -1
		case a.X > b.X:
			return 1
		case a.Score < b.Score:
			return -1
		case a.Score > b.Score:
			return 1
		}
		return 0
	})
}

// SortByScoreDesc sorts ps by descending score.
func SortByScoreDesc(ps []P) {
	slices.SortFunc(ps, func(a, b P) int {
		switch {
		case a.Score > b.Score:
			return -1
		case a.Score < b.Score:
			return 1
		}
		return 0
	})
}

// SelectTop moves the k highest-scoring points of ps to its front,
// sorts them by descending score and returns them: ps[:k], or all of
// ps sorted when k ≥ len(ps). Selection is a quickselect on random
// pivots, expected O(len(ps)) comparisons, so only the k points kept
// pay for a sort; the rest of ps is left in an unspecified order.
func SelectTop(ps []P, k int) []P {
	switch {
	case k <= 0:
		return ps[:0]
	case k < len(ps):
		selectScoreDesc(ps, k)
		ps = ps[:k]
	}
	SortByScoreDesc(ps)
	return ps
}

// selectScoreDesc orders ps, 0 < k < len(ps), so that its k highest
// scores come first. It narrows [lo, hi), the run holding position k,
// by Hoare partitions: afterwards nothing before a run scores below
// anything in it, nor anything after it above.
func selectScoreDesc(ps []P, k int) {
	lo, hi := 0, len(ps)
	for hi-lo > 1 {
		pivot := ps[lo+rand.IntN(hi-lo)].Score
		i, j := lo, hi-1
		for i <= j {
			for ps[i].Score > pivot {
				i++
			}
			for ps[j].Score < pivot {
				j--
			}
			if i <= j {
				ps[i], ps[j] = ps[j], ps[i]
				i, j = i+1, j-1
			}
		}
		// ps[lo:i] scores ≥ pivot, ps[j+1:hi] ≤ pivot, so the points
		// between j and i equal it and sit where a sort puts them.
		switch {
		case k <= j:
			hi = j + 1
		case k >= i:
			lo = i
		default:
			return
		}
	}
}

// ByScoreDesc returns a copy of ps sorted by descending score.
func ByScoreDesc(ps []P) []P {
	out := slices.Clone(ps)
	SortByScoreDesc(out)
	return out
}

// TopK returns the k highest-scoring points of ps that lie in [x1, x2],
// sorted by descending score. If fewer than k qualify, all are returned.
// It is the brute-force reference semantics of the problem statement.
func TopK(ps []P, x1, x2 float64, k int) []P {
	if k <= 0 {
		return nil
	}
	var in []P
	for _, p := range ps {
		if p.In(x1, x2) {
			in = append(in, p)
		}
	}
	SortByScoreDesc(in)
	if k < len(in) {
		in = in[:k]
	}
	return in
}

// WordSize is the storage footprint of one point in machine words
// (two float64 fields).
const WordSize = 2
