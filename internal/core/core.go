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
//     top k among them is selected for free in memory. A range that
//     covers no §3.3 subtree whole needs none of it: the selection
//     reads the one or two boundary leaves that hold every in-range
//     point, and answers from them.
//
// Every update is applied to both maintained structures (two linear-
// space structures are still linear space, and two O(log_B n) updates
// are still O(log_B n)). When n doubles or halves relative to the size
// fixed at the last build, everything is rebuilt from scratch with
// N := 2n, exactly as the paper's appendix prescribes.
//
// The paper's input is a set of finite points with distinct positions
// and distinct scores. Index assumes it and checks nothing; Guard,
// defined here beside the sentinels it returns, is how a Store enforces
// it. Each Store owns exactly one Guard, at the tier whose scope the
// contract covers: topk.Index for its one machine, the shard router for
// the whole fleet.
package core

import (
	"errors"
	"fmt"
	"math"
	"slices"

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

// Guard enforces the input contract on one Store's live set: finite
// coordinates, distinct positions, distinct scores. It checks in one
// fixed order, ErrInvalidPoint, then ErrDuplicatePosition, then
// ErrDuplicateScore, and a rejected point claims nothing. It keeps one
// set of positions and one of scores, each a FloatSet: an
// open-addressing table of float64 bits, 8 bytes a slot at load ≤ 3/4,
// hashed under its own random seed, with −0 and +0 one key as in a Go
// map. The tables live in Go memory outside the I/O-charged model: like
// the I/O meter they are serving-layer bookkeeping, not part of the
// paper's structure (the in-model alternative is a Count probe at
// O(log_B n) extra I/Os per insert, which would distort the measured
// update bounds).
//
// The zero value is an empty guard. A Guard is not safe for concurrent
// use: an owner that serves concurrent updates holds its own mutex
// around every call.
type Guard struct {
	positions, scores FloatSet
}

// Load empties g, sizes its tables for pts, and claims the points of
// pts in order, checking each as Reserve does. The error of the first
// point that fails wraps the sentinel and names the point by its index
// in pts; g is then to be discarded.
func (g *Guard) Load(pts []point.P) error {
	g.positions.reset(len(pts))
	g.scores.reset(len(pts))
	for i, p := range pts {
		err := g.Reserve(p)
		switch {
		case err == nil:
		case errors.Is(err, ErrDuplicatePosition):
			return fmt.Errorf("load point %d (x=%v): %w", i, p.X, err)
		case errors.Is(err, ErrDuplicateScore):
			return fmt.Errorf("load point %d (score=%v): %w", i, p.Score, err)
		default:
			return fmt.Errorf("load point %d (%v, %v): %w", i, p.X, p.Score, err)
		}
	}
	return nil
}

// Reserve checks p against the live set and claims its position and
// score, or returns the sentinel of the first check that fails and
// claims nothing. A successful Reserve pairs with one Release: when p
// is deleted, or when its insert is abandoned. A table that is full
// doubles before it takes a key.
func (g *Guard) Reserve(p point.P) error {
	if !p.Finite() {
		return ErrInvalidPoint
	}
	if !g.positions.Add(p.X) {
		return ErrDuplicatePosition
	}
	if !g.scores.Add(p.Score) {
		g.positions.Remove(p.X)
		return ErrDuplicateScore
	}
	return nil
}

// Release gives up p's position and score.
func (g *Guard) Release(p point.P) {
	g.positions.Remove(p.X)
	g.scores.Remove(p.Score)
}

// Check reports whether g holds exactly the positions and scores of
// live, which its owner's structures hold (a test helper: it builds a
// second guard over live).
func (g *Guard) Check(live []point.P) error {
	var want Guard
	if err := want.Load(live); err != nil {
		return fmt.Errorf("live set: %w", err)
	}
	if !g.positions.equal(&want.positions) || !g.scores.equal(&want.scores) {
		return fmt.Errorf("guard holds %d positions and %d scores, not those of the %d live points",
			g.positions.len(), g.scores.len(), len(live))
	}
	return nil
}

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
	// PST passes through to the §2 structure.
	PST pst.Options
	// PolylogF / PolylogLeafCap override §3.3 shape parameters (0 =
	// paper's f = √(B·lg N) and b = f·l·B; tests shrink them to keep
	// multi-level trees at small n).
	PolylogF       int
	PolylogLeafCap int
}

// Index is the Theorem 1 structure. Create with New or Bulk. Its
// points must be finite with distinct positions and distinct scores:
// that is its caller's contract, which the caller's Guard enforces, and
// a violation corrupts the structures.
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

	sortBuf []point.P // Query's sort scratch
}

// New returns an empty index on d.
func New(d *em.Disk, opt Options) *Index {
	ix := &Index{d: d, opt: opt}
	ix.build(nil)
	return ix
}

// Bulk builds an index over pts, which it does not modify.
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
func (ix *Index) KThreshold() int { return ix.d.B() * lg(ix.N) }

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

// build (re)constructs everything over pts with N := max(2·|pts|, 16),
// leaving pts as it is. It sorts one copy of pts by descending score,
// which both the §2 tree and the §3.3 leaves build from, and one by
// position unless pts is already in that order, which serves both the
// §2 tree's slabs and the §3.3 leaves; the [14] structure takes pts in
// the order given. One buffer of 3·|pts| points holds the score order
// and the scratch of the sorts and of the §2 tree's pilot fill.
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
	buf := make([]point.P, 3*len(pts))
	byScore, scratch := buf[:len(pts)], buf[len(pts):]
	byX := pts
	if !point.IsSortedByX(byX) {
		byX = slices.Clone(pts)
		point.SortByXBuf(byX, scratch)
	}
	copy(byScore, pts)
	point.SortByScoreDescBuf(byScore, scratch)
	ix.tree = pst.BulkSorted(ix.d, ix.opt.PST, byX, byScore, scratch)
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
		}, byX, byScore)
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

// Insert adds p in O(log_B n) amortized I/Os. p must be finite, and
// its position and score must not be live: the caller's Guard.Reserve
// has to accept p first, because a violation would leave the two
// maintained structures diverged and poison every later rebuild.
func (ix *Index) Insert(p point.P) {
	ix.tree.Insert(p)
	if ix.poly != nil {
		ix.poly.Insert(p)
	}
	if ix.base != nil {
		ix.base.Insert(p)
	}
	ix.n++
	ix.maybeRebuild()
}

// Delete removes p, reporting whether it was present, in O(log_B n)
// amortized I/Os.
func (ix *Index) Delete(p point.P) bool {
	if !ix.tree.Delete(p) {
		return false
	}
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
// O(log_B n + k/B) I/Os: AppendQuery into a fresh slice the caller
// owns, plus one sort.
func (ix *Index) Query(x1, x2 float64, k int) []point.P {
	out := ix.AppendQuery(nil, x1, x2, k)
	ix.sortBuf = point.SortByScoreDescBuf(out, ix.sortBuf)
	return out
}

// AppendQuery appends to dst the points Query reports, in no
// particular order, with the same block reads. A k at or above the
// threshold goes to the §2 tree. A smaller k goes to the small-k
// component's selection, whose boundary leaves answer a range that
// covers no subtree whole; any other range takes the reduction through
// a three-sided report. Every path works in the structures' query
// scratch and copies only the answer out, so the shard layer, which
// hands the answer on after releasing the shard, can append several
// shards' answers into one buffer and select and sort once.
func (ix *Index) AppendQuery(dst []point.P, x1, x2 float64, k int) []point.P {
	if k <= 0 || x1 > x2 || ix.n == 0 {
		return dst
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
		return ix.tree.AppendQuery(dst, x1, x2, k)
	}
	top, exact, tau, ok := ix.smallSelect(x1, x2, k)
	if exact {
		// The range meets no subtree whole: the boundary leaves that
		// the selection read hold the answer.
		return append(dst, top...)
	}
	if !ok {
		// Fewer than k points in range: report them all. The three-
		// sided query with τ = −∞ reads exactly the in-range points.
		return append(dst, ix.tree.Report3Sided(x1, x2, math.Inf(-1))...)
	}
	// Reduction: τ has between k and O(k) in-range points at or above
	// it; fetch them with a three-sided query and keep the top k.
	out := ix.tree.Report3Sided(x1, x2, tau)
	if len(out) < k {
		// Defensive: approximate selection under-delivered (cannot
		// happen for in-regime parameters; see polylog docs). Degrade
		// to the exact path.
		return ix.tree.AppendQuery(dst, x1, x2, k)
	}
	return append(dst, point.Select(out, k)...)
}

// smallSelect runs the selection step of the active small-k component:
// the polylog tree's answer when its boundary leaves hold it (exact),
// else a threshold τ with between k and O(k) in-range points at or
// above it (ok false when fewer than k points are in range).
func (ix *Index) smallSelect(x1, x2 float64, k int) (top []point.P, exact bool, tau float64, ok bool) {
	if ix.poly != nil {
		return ix.poly.Select(x1, x2, k)
	}
	pt, ok := ix.base.SelectApprox(x1, x2, k)
	return nil, false, pt.Score, ok
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
	return nil
}

// String summarizes the composition.
func (ix *Index) String() string {
	return fmt.Sprintf("core.Index{n=%d, N=%d, kThreshold=%d, regime=%s}",
		ix.n, ix.N, ix.KThreshold(), ix.regime)
}
