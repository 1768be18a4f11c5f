// Package core assembles Theorem 1 of the paper: a dynamic structure
// for top-k range reporting with O(n/B) space, O(log_B n + k/B) query
// I/Os, and O(log_B n) amortized update I/Os — improving the O(log²_B n)
// updates of the prior state of the art.
//
// Per §1.2, three components are combined with global rebuilding:
//
//  1. k ≥ B·lg n — the external priority search tree of §2
//     (internal/pst, Lemma 1): its O(lg n + k/B) query cost is O(k/B)
//     in this regime.
//  2. lg n ≤ B^(1/6), i.e. B ≥ lg⁶n — the structure of [14]
//     (internal/shengtao), whose O(lg²_B n) amortized update cost is
//     already O(log_B n) when the base-B logarithm is that large.
//  3. B < lg⁶n and k < B·lg n < lg⁷n — the polylogarithmic-k structure
//     of §3.3 (internal/polylog, Lemma 4), driven through the standard
//     reduction: approximate range k-selection produces a threshold τ
//     with between k and O(k) in-range points at or above it; a
//     three-sided reporting query on the §2 tree retrieves them; the
//     top k among them is selected for free in memory.
//
// Every update is applied to both maintained structures (two linear-
// space structures are still linear space, and two O(log_B n) updates
// are still O(log_B n)). When n doubles or halves relative to the size
// fixed at the last build, everything is rebuilt from scratch with
// N := 2n, exactly as the paper's appendix prescribes.
package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/em"
	"repro/internal/point"
	"repro/internal/polylog"
	"repro/internal/pst"
	"repro/internal/shengtao"
)

// Sentinel errors of the insert/update path. They are defined here —
// the lowest layer that understands the paper's input contract (a set
// of reals with distinct scores) — and re-exported by the public topk
// package so every serving layer speaks the same vocabulary.
var (
	// ErrInvalidPoint rejects NaN/±Inf coordinates.
	ErrInvalidPoint = errors.New("invalid point: position and score must be finite")
	// ErrDuplicatePosition rejects an insert at an occupied position.
	ErrDuplicatePosition = errors.New("position already present")
	// ErrDuplicateScore rejects an insert whose score is already live.
	ErrDuplicateScore = errors.New("score already present")
	// ErrNotFound reports a batched delete of an absent point.
	ErrNotFound = errors.New("point not found")
)

// Regime identifies which small-k component serves queries below the
// k-threshold.
type Regime int

const (
	// RegimeAuto selects per the paper: shengtao when B ≥ lg⁶N, polylog
	// otherwise.
	RegimeAuto Regime = iota
	// RegimePolylog forces the §3.3 structure (Lemma 4).
	RegimePolylog
	// RegimeBaseline forces the [14] structure.
	RegimeBaseline
)

func (r Regime) String() string {
	switch r {
	case RegimePolylog:
		return "polylog(§3.3)"
	case RegimeBaseline:
		return "baseline[14]"
	default:
		return "auto"
	}
}

// Options tune the composition; zero values follow the paper.
type Options struct {
	// Regime selects the small-k component.
	Regime Regime
	// KThreshold overrides the B·lg n dispatch threshold (0 = paper's).
	KThreshold int
	// PST passes through to the §2 structure.
	PST pst.Options
	// PolylogF / PolylogLeafCap override §3.3 shape parameters (0 =
	// paper's f = √(B·lg N) and b = f·l·B; tests shrink them to keep
	// multi-level trees at small n).
	PolylogF       int
	PolylogLeafCap int
}

// Index is the Theorem 1 structure. Create with New or Bulk.
type Index struct {
	d   *em.Disk
	opt Options

	n int
	// N is fixed in [n, 4n] between global rebuilds.
	N int

	tree   *pst.PST
	poly   *polylog.Tree  // small-k component in the polylog regime
	base   *shengtao.Tree // small-k component in the baseline regime
	regime Regime         // resolved regime for the current build

	// positions and scores are the duplicate guards behind Insert's
	// error contract. They live in Go memory outside the I/O-charged
	// model — like the I/O meter itself they are serving-layer
	// bookkeeping, not part of the paper's structure (the in-model
	// alternative is a Count probe at O(log_B n) extra I/Os per
	// insert, which would distort the measured update bounds).
	positions map[float64]struct{}
	scores    map[float64]struct{}
}

// New returns an empty index on d.
func New(d *em.Disk, opt Options) *Index {
	ix := &Index{d: d, opt: opt}
	ix.build(nil)
	return ix
}

// Bulk builds an index over pts.
func Bulk(d *em.Disk, opt Options, pts []point.P) *Index {
	ix := &Index{d: d, opt: opt}
	ix.build(pts)
	return ix
}

// Len returns the number of live points.
func (ix *Index) Len() int { return ix.n }

// lg is the paper's lg: max(1, ⌈log2 x⌉).
func lg(x int) int {
	l := 1
	for v := 2; v < x; v *= 2 {
		l++
	}
	return l
}

// KThreshold returns the current dispatch threshold B·lg N (queries
// with k at or above it go to the §2 structure).
func (ix *Index) KThreshold() int {
	if ix.opt.KThreshold > 0 {
		return ix.opt.KThreshold
	}
	return ix.d.B() * lg(ix.N)
}

// CurrentRegime reports which small-k component is active.
func (ix *Index) CurrentRegime() Regime { return ix.regime }

// resolveRegime applies the §1.2 case analysis for the current N.
func (ix *Index) resolveRegime() Regime {
	if ix.opt.Regime != RegimeAuto {
		return ix.opt.Regime
	}
	l := float64(lg(ix.N))
	if float64(ix.d.B()) >= math.Pow(l, 6) {
		return RegimeBaseline
	}
	return RegimePolylog
}

// build (re)constructs everything over pts with N := max(2·|pts|, 16).
func (ix *Index) build(pts []point.P) {
	if ix.tree != nil {
		// Free the previous build's blocks.
		ix.freeAll()
	}
	ix.n = len(pts)
	ix.N = 2 * len(pts)
	if ix.N < 16 {
		ix.N = 16
	}
	ix.regime = ix.resolveRegime()
	ix.positions = make(map[float64]struct{}, len(pts))
	ix.scores = make(map[float64]struct{}, len(pts))
	for _, p := range pts {
		ix.positions[p.X] = struct{}{}
		ix.scores[p.Score] = struct{}{}
	}
	ix.tree = pst.Bulk(ix.d, ix.opt.PST, pts)
	switch ix.regime {
	case RegimeBaseline:
		ix.base = shengtao.Bulk(ix.d, shengtao.Options{K: ix.KThreshold()}, pts)
		ix.poly = nil
	default:
		ix.poly = polylog.Bulk(ix.d, polylog.Options{
			L:       ix.KThreshold(),
			N:       ix.N,
			F:       ix.opt.PolylogF,
			LeafCap: ix.opt.PolylogLeafCap,
		}, pts)
		ix.base = nil
	}
}

func (ix *Index) freeAll() {
	// The PST and polylog tree own many stores; rebuilding simply drops
	// them and lets their blocks be freed by reconstruction. For exact
	// space accounting the PST frees its subtree; the small structures
	// free node-by-node.
	if ix.base != nil {
		ix.base.Free()
	}
	// pst and polylog blocks are freed by their Bulk/rebuild paths; the
	// simplest exact route is to rebuild fresh structures on the same
	// disk after releasing the old ones.
	if ix.tree != nil {
		ix.tree.FreeAll()
	}
	if ix.poly != nil {
		ix.poly.FreeAll()
	}
}

// maybeRebuild applies global rebuilding: rebuild when n has doubled or
// halved relative to the last build.
func (ix *Index) maybeRebuild() {
	if ix.n > ix.N || 4*ix.n < ix.N {
		ix.build(ix.live())
	}
}

// live collects the current point set (used only during rebuilds, whose
// cost global rebuilding amortizes).
func (ix *Index) live() []point.P { return ix.tree.Live() }

// Live returns the current point set as an O(n/B) scan of the §2 tree.
// The shard layer uses it to re-partition an index when splitting; its
// cost is amortized against the updates that made the split necessary,
// the same argument as global rebuilding.
func (ix *Index) Live() []point.P { return ix.live() }

// Has reports whether a live point occupies position x (O(1), no I/O:
// the guard maps are Go-memory bookkeeping).
func (ix *Index) Has(x float64) bool {
	_, ok := ix.positions[x]
	return ok
}

// HasScore reports whether score is live (O(1), no I/O).
func (ix *Index) HasScore(score float64) bool {
	_, ok := ix.scores[score]
	return ok
}

// Insert adds p in O(log_B n) amortized I/Os. Contract violations are
// rejected with a sentinel error BEFORE anything is mutated — an
// in-flight violation would leave the two maintained structures
// diverged and poison every later rebuild. Checks run in a fixed
// order: ErrInvalidPoint, then ErrDuplicatePosition, then
// ErrDuplicateScore.
func (ix *Index) Insert(p point.P) error {
	if !p.Finite() {
		return ErrInvalidPoint
	}
	if ix.Has(p.X) {
		return ErrDuplicatePosition
	}
	if ix.HasScore(p.Score) {
		return ErrDuplicateScore
	}
	ix.tree.Insert(p)
	if ix.poly != nil {
		ix.poly.Insert(p)
	}
	if ix.base != nil {
		ix.base.Insert(p)
	}
	ix.positions[p.X] = struct{}{}
	ix.scores[p.Score] = struct{}{}
	ix.n++
	ix.maybeRebuild()
	return nil
}

// Delete removes p, reporting whether it was present, in O(log_B n)
// amortized I/Os.
func (ix *Index) Delete(p point.P) bool {
	if !ix.tree.Delete(p) {
		return false
	}
	delete(ix.positions, p.X)
	delete(ix.scores, p.Score)
	if ix.poly != nil && !ix.poly.Delete(p) {
		panic("core: structures diverged on delete")
	}
	if ix.base != nil && !ix.base.Delete(p) {
		panic("core: structures diverged on delete")
	}
	ix.n--
	ix.maybeRebuild()
	return true
}

// Query returns the k highest-scoring points with x ∈ [x1, x2], sorted
// by descending score (all of them if fewer qualify), in
// O(log_B n + k/B) I/Os.
func (ix *Index) Query(x1, x2 float64, k int) []point.P {
	if k <= 0 || x1 > x2 || ix.n == 0 {
		return nil
	}
	if k > ix.n {
		// Clamp before anything sizes a buffer by k: no query can
		// return more than n points, and the selection paths
		// preallocate k-proportional buffers — an absurd caller k must
		// not drive an allocation. The answer is unchanged (k ≥ n
		// already reported every qualifying point).
		k = ix.n
	}
	if k >= ix.KThreshold() {
		// Regime 1: k ≥ B·lg n — the §2 structure's O(lg n + k/B) is
		// O(k/B) here.
		return ix.tree.Query(x1, x2, k)
	}
	tau, ok := ix.smallSelect(x1, x2, k)
	if !ok {
		// Fewer than k points in range: report them all. The three-
		// sided query with τ = −∞ reads exactly the in-range points.
		out := ix.tree.Report3Sided(x1, x2, math.Inf(-1))
		return topCopy(out, len(out))
	}
	// Reduction: τ has between k and O(k) in-range points at or above
	// it; fetch them with a three-sided query and keep the top k.
	out := ix.tree.Report3Sided(x1, x2, tau)
	if len(out) < k {
		// Defensive: approximate selection under-delivered (cannot
		// happen for in-regime parameters; see polylog docs). Degrade
		// to the exact path.
		return ix.tree.Query(x1, x2, k)
	}
	return topCopy(out, k)
}

// topCopy sorts a three-sided report by descending score and returns a
// copy of its first k points. The report lives in the PST's query
// scratch, and the shard layer hands an answer to its caller after
// releasing the shard, so the answer must not alias it.
func topCopy(ps []point.P, k int) []point.P {
	if len(ps) == 0 {
		return nil
	}
	point.SortByScoreDesc(ps)
	return append(make([]point.P, 0, k), ps[:k]...)
}

// smallSelect runs approximate range k-selection on the active small-k
// component.
func (ix *Index) smallSelect(x1, x2 float64, k int) (float64, bool) {
	if ix.poly != nil {
		return ix.poly.SelectApprox(x1, x2, k)
	}
	pt, ok := ix.base.SelectApprox(x1, x2, k)
	if !ok {
		return 0, false
	}
	return pt.Score, true
}

// Count returns |S ∩ [x1,x2]|.
func (ix *Index) Count(x1, x2 float64) int {
	if ix.poly != nil {
		return ix.poly.Count(x1, x2)
	}
	return ix.base.Count(x1, x2)
}

// Stats exposes the disk meter.
func (ix *Index) Stats() em.Stats { return ix.d.Stats() }

// CheckInvariants validates both maintained structures (test helper).
func (ix *Index) CheckInvariants() error {
	if err := ix.tree.CheckInvariants(); err != nil {
		return fmt.Errorf("pst: %w", err)
	}
	if ix.poly != nil {
		if err := ix.poly.CheckInvariants(); err != nil {
			return fmt.Errorf("polylog: %w", err)
		}
	}
	if ix.base != nil {
		if err := ix.base.CheckInvariants(); err != nil {
			return fmt.Errorf("baseline: %w", err)
		}
	}
	if len(ix.positions) != ix.n || len(ix.scores) != ix.n {
		return fmt.Errorf("duplicate guards out of sync: %d positions, %d scores, n=%d",
			len(ix.positions), len(ix.scores), ix.n)
	}
	for _, p := range ix.live() {
		if !ix.Has(p.X) || !ix.HasScore(p.Score) {
			return fmt.Errorf("live point %v missing from duplicate guards", p)
		}
	}
	return nil
}

// String summarizes the composition.
func (ix *Index) String() string {
	return fmt.Sprintf("core.Index{n=%d, N=%d, kThreshold=%d, regime=%s}",
		ix.n, ix.N, ix.KThreshold(), ix.regime)
}
