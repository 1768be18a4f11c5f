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

// radixCutoff is the length from which SortByX and SortByScoreDesc
// radix-sort; both cross the comparison sort there. On a 2-vCPU Xeon,
// uniform values:
//   - BenchmarkSortByScoreDesc: the kernel ties slices.SortFunc at 256
//     points (16 µs), is 1.4× slower at 64, where its fixed cost of
//     eight 256-entry histograms dominates, and is 4–5× faster at
//     read-wide's answer sizes (92 against 382 µs at 2,600 points, 142
//     against 658 µs at 4,096);
//   - BenchmarkSortByX, fastest of six runs: the radix path beats
//     slices.SortFunc at 256 points (12 against 15 µs), is 2× slower
//     at 64 and 2.9× faster at 2,048 (83 against 242 µs), and sorts
//     one benchmark member's 21,845 points 3.8× faster (1.0 against
//     3.8 ms).
const radixCutoff = 256

// SortByX sorts ps ascending by X, breaking ties by ascending score
// (ties in X can occur, −0 and +0 among them; ties in score are
// excluded by the distinct-score assumption). Input already in that
// order costs it one pass. Below radixCutoff points it is a comparison
// sort; from the cutoff on it radix-sorts through a scratch buffer of
// len(ps) points that it allocates and drops, and a caller that sorts
// repeatedly keeps one with SortByXBuf instead.
func SortByX(ps []P) { SortByXBuf(ps, nil) }

// SortByXBuf is SortByX with the radix kernel's scratch taken from
// buf, which is grown when it holds fewer than len(ps) points. It
// returns the scratch for the caller to keep.
func SortByXBuf(ps, buf []P) []P {
	switch {
	case IsSortedByX(ps):
	case len(ps) < radixCutoff:
		slices.SortFunc(ps, compareX)
	default:
		if cap(buf) < len(ps) {
			buf = make([]P, len(ps))
		}
		radixByX(ps, buf[:len(ps)])
	}
	return buf
}

// IsSortedByX reports whether ps is in SortByX's order.
func IsSortedByX(ps []P) bool {
	for i := 1; i < len(ps); i++ {
		if compareX(ps[i], ps[i-1]) < 0 {
			return false
		}
	}
	return true
}

// compareX is SortByX's order.
func compareX(a, b P) int {
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
}

// radixByX is the radix path of SortByXBuf: it sorts ps, len(ps) > 0,
// in SortByX's order through tmp, len(tmp) == len(ps). It runs the
// score sort's kernel with −X in each point's score: scoreKey(−x) is
// the complement of scoreKey(x), so descending −X is ascending X. The
// kernel keeps input order among equal keys, and the points of one X,
// −0 and +0 together (their keys are adjacent), end up side by side;
// a last pass sorts each such run by score.
func radixByX(ps, tmp []P) {
	for i, p := range ps {
		ps[i] = P{X: p.Score, Score: -p.X}
	}
	radixScoreDesc(ps, tmp)
	for i, p := range ps {
		ps[i] = P{X: -p.Score, Score: p.X}
	}
	for i := 0; i < len(ps); {
		j := i + 1
		for j < len(ps) && ps[j].X == ps[i].X {
			j++
		}
		if j-i > 1 {
			slices.SortFunc(ps[i:j], compareX)
		}
		i = j
	}
}

// SortByScoreDesc sorts ps by descending score. From radixCutoff
// points on it radix-sorts through a scratch buffer of len(ps) points
// that it allocates and drops; a caller that sorts repeatedly keeps
// one with SortByScoreDescBuf instead.
func SortByScoreDesc(ps []P) { SortByScoreDescBuf(ps, nil) }

// SortByScoreDescBuf is SortByScoreDesc with the radix kernel's
// scratch taken from buf, which is grown when it holds fewer than
// len(ps) points. It returns the scratch for the caller to keep.
//
// Below radixCutoff points it is a comparison sort. From the cutoff
// on it is an LSD radix sort over scoreKey's eight bytes: one pass
// over ps counts all eight byte histograms, a byte that is the same in
// every key is skipped, and each other byte is one stable scatter
// between ps and the scratch. Scores are distinct (one of ±0 at most),
// so both sorts give the one order.
func SortByScoreDescBuf(ps, buf []P) []P {
	if len(ps) < radixCutoff {
		slices.SortFunc(ps, func(a, b P) int {
			switch {
			case a.Score > b.Score:
				return -1
			case a.Score < b.Score:
				return 1
			}
			return 0
		})
		return buf
	}
	if cap(buf) < len(ps) {
		buf = make([]P, len(ps))
	}
	radixScoreDesc(ps, buf[:len(ps)])
	return buf
}

// radixScoreDesc is the radix kernel of both sorts: it sorts ps,
// len(ps) > 0, stably by descending score through tmp, len(tmp) ==
// len(ps).
func radixScoreDesc(ps, tmp []P) {
	var counts [8][256]uint32
	for _, p := range ps {
		k := scoreKey(p.Score)
		for b := range counts {
			counts[b][byte(k>>(8*b))]++
		}
	}
	first := scoreKey(ps[0].Score)
	src, dst := ps, tmp
	for b := range counts {
		c := &counts[b]
		if int(c[byte(first>>(8*b))]) == len(ps) {
			continue
		}
		var off uint32
		for d, n := range c {
			c[d], off = off, off+n
		}
		scatter(dst, src, c, uint(8*b))
		src, dst = dst, src
	}
	if &src[0] != &ps[0] {
		copy(ps, src)
	}
}

// scoreKey maps a score to a key whose ascending order is the scores'
// descending order: the IEEE bits of a non-negative score with the
// sign clear and the rest flipped, those of a negative score as they
// are. Non-negative scores therefore come first, largest first, and
// negative ones follow, nearest zero first. −0 and +0 get adjacent
// keys, and the key of −s is the complement of that of s.
func scoreKey(s float64) uint64 {
	b := math.Float64bits(s)
	return b ^ ^(uint64(int64(b)>>63) | 1<<63)
}

// scatter is one radix pass: it moves every point of src to dst at the
// next offset of its key's byte at shift, off holding each byte
// value's first free index.
//
//topk:nomalloc
func scatter(dst, src []P, off *[256]uint32, shift uint) {
	for _, p := range src {
		d := byte(scoreKey(p.Score) >> shift)
		dst[off[d]] = p
		off[d]++
	}
}

// Select moves the k highest-scoring points of ps to its front and
// returns them, ps[:k] in no particular order, or all of ps when
// k ≥ len(ps). It is a quickselect on random pivots, expected
// O(len(ps)) comparisons; the rest of ps is left in an unspecified
// order.
func Select(ps []P, k int) []P {
	switch {
	case k <= 0:
		return ps[:0]
	case k < len(ps):
		selectScoreDesc(ps, k)
		return ps[:k]
	}
	return ps
}

// SelectTop is Select with the k points it keeps sorted by descending
// score, so only they pay for a sort.
func SelectTop(ps []P, k int) []P {
	ps = Select(ps, k)
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
