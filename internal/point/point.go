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

// Less orders by X, breaking ties by score (ties in X can occur; ties in
// score are excluded by the distinct-score assumption).
func Less(a, b P) bool {
	if a.X != b.X {
		return a.X < b.X
	}
	return a.Score < b.Score
}

// In reports whether p lies in the closed interval [x1, x2].
func (p P) In(x1, x2 float64) bool { return x1 <= p.X && p.X <= x2 }

// SortByX sorts ps ascending by X (score tiebreak).
//
// Both sorts use slices.SortFunc: sort.Slice swaps through reflection,
// which made it the engine's largest CPU cost on wide reads.
func SortByX(ps []P) {
	slices.SortFunc(ps, func(a, b P) int {
		switch {
		case Less(a, b):
			return -1
		case Less(b, a):
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
