// Package pst implements the structure of §2 of the paper (Lemma 1): an
// external priority search tree for top-k range reporting with
//
//	space  O(n/B) blocks,
//	query  O(lg n + k/B) I/Os (base-2 logarithm),
//	update O(log_B n) amortized I/Os.
//
// The composed structure of Theorem 1 uses it for k = Ω(B lg n), where
// its query cost collapses to O(k/B).
//
// Layout follows the paper. The base tree T is a weight-balanced B-tree
// on the x-coordinates with leaf capacity and branching parameter B
// (both configurable here). Every internal node u of T carries a binary
// search tree T(u) over its child slabs; concatenating all secondary
// trees yields the big tree T̂ of Figure 1 (a slab leaf of T(u) has as
// its only child the root of T(u') of the corresponding child u'). Every
// T̂ node v has a pilot set: the highest points of P(v) not stored at
// proper ancestors, holding between B/2 and 2B points unless fewer
// remain, in which case it holds all of them (so an empty pilot set
// implies an empty subtree). The lowest pilot point is the node's
// representative. A T leaf's pilot keeps every point of its slab not
// stored above; its weight cap (Branch) bounds it, not 2B, which it
// exceeds only when PilotB is below Branch/2. Each T-node u keeps the
// representatives, pilot sizes and pilot record addresses of all T(u)
// nodes together in O(1) blocks (the "representative blocks"), which
// is what makes O(log_B n) root-to-leaf descents possible.
//
// A pilot pays only for the points it holds. Its record is the points
// alone, since its size already sits in the representative block, so a
// full pilot of B points fills two blocks; and an empty pilot has no
// record at all: its address is em.NilHandle until its first point
// arrives, and its record is freed when its last point leaves.
//
// The query selects T̂ nodes best-first and, by default, stops as soon
// as the k-th best candidate collected so far outranks every subtree
// it has not explored (an optimization beyond the paper; see
// Options.PaperSelection).
//
// Updates use the push-down/pull-up discipline of the paper, whose
// amortized cost is bounded by the token argument of Lemma 3; the tokens
// are implemented as optional instrumentation (see tokens.go) and the
// invariants are asserted in tests. Rebalancing rebuilds the subtree
// under the parent of the highest unbalanced node, as §2 prescribes, and
// fills its pilots top-down with the state that §2's grounding and
// bottom-up refill reach (see fill); deleted x-coordinates stay in T
// until a periodic global rebuild.
package pst

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/em"
	"repro/internal/point"
)

// Options configure a PST.
type Options struct {
	// PilotB is the paper's B for pilot-set sizing: pilots hold between
	// PilotB/2 and 2·PilotB points. Defaults to the disk block size.
	PilotB int
	// Branch is the leaf capacity and branching parameter of the base
	// tree T. Defaults to the disk block size.
	Branch int
	// Phi is the constant φ of the query algorithm; Lemma 2 proves
	// correctness for φ = 16, the default. Smaller values are exposed
	// for the ablation experiment E4.
	Phi int
	// TrackTokens enables the Lemma 3 token instrumentation (CPU-side
	// only; never charged as I/O). Tests use it to assert Invariants 1
	// and 2 after every operation.
	TrackTokens bool
	// PaperSelection runs the query's heap selection as §2 states it:
	// select exactly φ·(lg n + ⌈k/B⌉) nodes, then gather Q2 and Q3. By
	// default the selection terminates early instead, an optimization
	// beyond the paper: it collects each selected node's pilot at once
	// and stops as soon as the k-th best in-range candidate outranks
	// every unexplored subtree (a frontier node's subtree scores are
	// bounded by its parent's representative). Answers are identical;
	// only the I/O constant changes. The φ ablations set it.
	PaperSelection bool
}

func (o Options) withDefaults(d *em.Disk) Options {
	if o.PilotB <= 0 {
		o.PilotB = d.B()
	}
	if o.PilotB < 4 {
		o.PilotB = 4
	}
	if o.Branch <= 0 {
		o.Branch = d.B()
	}
	if o.Branch < 4 {
		o.Branch = 4
	}
	if o.Phi <= 0 {
		o.Phi = 16
	}
	return o
}

// vmeta is one node of the secondary binary tree T(u), stored inside its
// owning T-node record. Index 0 is the root of T(u).
type vmeta struct {
	parent      int // index in vs; -1 for the root of T(u)
	left, right int // indices in vs; -1 for slab leaves
	kid         int // child index in kids for slab leaves; -1 otherwise
	lo, hi      int // child-index range [lo,hi) covered by this node

	pilot em.Handle // pilot set record (pilot store); NilHandle when empty
	rep   float64   // representative score; -Inf when the pilot is empty
	size  int       // |pilot|
}

// tnode is one node of the base tree T, bundled with its secondary tree
// and representative block. A leaf (level 0) has no kids and a single
// vmeta; it additionally stores the x-coordinates in its slab.
type tnode struct {
	level    int
	parent   em.Handle // T-parent; NilHandle at the root
	childIdx int       // index of this node in parent.kids
	weight   int       // inserted x-coordinates in the subtree (never decremented)
	lo, hi   float64   // slab [lo, hi)

	kids  []em.Handle // internal: children, left to right
	kidLo []float64   // internal: slab low of each child (kidLo[0] == lo)
	vs    []vmeta     // secondary tree T(u); leaves: exactly one entry
	xs    []float64   // leaves only: sorted x-coordinates (incl. stale)
}

// size reports the record footprint in words: a small header, two words
// per child (handle + slab separator), two words per secondary-tree node
// (the representative block of §2: the representative score, plus one
// word packing the pilot size — ≤ 2B, so ~lg B bits — with the pilot
// record's address), and the leaf x-list. The secondary tree's
// *topology* is not charged: it is the canonical balanced tree over
// len(kids) slabs, fully determined by the fanout, so an implementation
// need not store it (the in-memory vmeta copies exist purely for
// programming convenience). The record is O(Branch) words = O(1) blocks.
func (t *tnode) size() int {
	return 8 + 2*len(t.kids) + 2*len(t.vs) + len(t.xs)
}

// vid addresses one T̂ node: a vmeta inside a tnode.
type vid struct {
	t   em.Handle
	idx int
}

var nilVid = vid{}

func (v vid) valid() bool { return v.t != em.NilHandle }

// PST is the §2 structure. Create with New or Bulk.
type PST struct {
	disk   *em.Disk
	opt    Options
	tstore *em.Store[*tnode]
	pstore *em.Store[[]point.P]

	root em.Handle // root tnode; NilHandle when empty
	n    int       // live points

	// Global rebuilding state: the structure is rebuilt from scratch
	// once the number of updates since the last build exceeds half the
	// size at that build, keeping the height Θ(lg n).
	sizeAtBuild  int
	updatesSince int

	tok *tokens // nil unless Options.TrackTokens

	qs queryScratch
}

// New returns an empty PST on d.
func New(d *em.Disk, opts Options) *PST {
	opts = opts.withDefaults(d)
	p := &PST{
		disk:   d,
		opt:    opts,
		tstore: em.NewStore(d, "pst.t", func(t *tnode) int { return t.size() }),
		// The pilot's size is in the representative block, so its
		// record holds the points alone.
		pstore: em.NewStore(d, "pst.pilot", func(ps []point.P) int { return point.WordSize * len(ps) }),
	}
	if opts.TrackTokens {
		p.tok = newTokens()
	}
	return p
}

// Bulk builds a PST over pts (bulk loading = the paper's reconstruction
// algorithm applied to the whole input).
func Bulk(d *em.Disk, opts Options, pts []point.P) *PST {
	p := New(d, opts)
	p.rebuildAll(pts)
	return p
}

// BulkSorted is Bulk for a caller that already holds byScore, the
// points of pts sorted by descending score: the build sorts only the
// x-coordinates, in pts' order, so x-sorted pts cost it no sort at
// all. Neither slice is modified or kept.
func BulkSorted(d *em.Disk, opts Options, pts, byScore []point.P) *PST {
	p := New(d, opts)
	p.rebuildSorted(pts, slices.Clone(byScore))
	return p
}

// Len returns the number of live points.
func (p *PST) Len() int { return p.n }

// B returns the pilot parameter B.
func (p *PST) B() int { return p.opt.PilotB }

// Phi returns the query constant φ.
func (p *PST) Phi() int { return p.opt.Phi }

// Height returns the number of T levels (0 for an empty structure).
func (p *PST) Height() int {
	if p.root == em.NilHandle {
		return 0
	}
	return p.tstore.Read(p.root).level + 1
}

// lgN returns max(1, ⌈lg n⌉), the paper's lg.
func (p *PST) lgN() int {
	lg := 1
	for v := 2; v < p.n; v *= 2 {
		lg++
	}
	return lg
}

// --- T̂ navigation helpers -------------------------------------------

// vchildren returns the T̂ children of v and how many there are (at
// most two). It reads nothing: a slab leaf's child is the root of the
// child T-node's secondary tree, addressed by the handle nd holds.
func (p *PST) vchildren(nd *tnode, v vid) ([2]vid, int) {
	m := nd.vs[v.idx]
	if m.left >= 0 {
		return [2]vid{{v.t, m.left}, {v.t, m.right}}, 2
	}
	if m.kid >= 0 {
		return [2]vid{{nd.kids[m.kid], 0}}, 1
	}
	return [2]vid{}, 0
}

// vparent returns the T̂ parent of v (reading the parent tnode when v is
// the root of its secondary tree), or nilVid at the global root.
func (p *PST) vparent(nd *tnode, v vid) vid {
	m := nd.vs[v.idx]
	if m.parent >= 0 {
		return vid{v.t, m.parent}
	}
	if nd.parent == em.NilHandle {
		return nilVid
	}
	par := p.tstore.Read(nd.parent)
	for i, pm := range par.vs {
		if pm.kid == nd.childIdx {
			return vid{nd.parent, i}
		}
	}
	panic("pst: broken parent link")
}

// slabOf returns the slab [lo, hi) of v.
func slabOf(nd *tnode, idx int) (float64, float64) {
	m := nd.vs[idx]
	if m.kid >= 0 || m.left >= 0 {
		lo := nd.kidLo[m.lo]
		hi := nd.hi
		if m.hi < len(nd.kids) {
			hi = nd.kidLo[m.hi]
		}
		return lo, hi
	}
	return nd.lo, nd.hi
}

// routeKid returns the child index of nd whose slab contains x.
func routeKid(nd *tnode, x float64) int {
	lo, hi := 0, len(nd.kids)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if nd.kidLo[mid] <= x {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// nextVS steps the walk of nd's secondary tree toward x: it returns
// the child of node i on the way to x's slab leaf, or -1 at the leaf.
// Starting from 0 (the root of T(u)), the walk is all in memory.
func nextVS(nd *tnode, i int, x float64) int {
	m := nd.vs[i]
	if m.left < 0 {
		return -1
	}
	// Left child covers [lo,mid), right [mid,hi).
	if x < nd.kidLo[nd.vs[m.left].hi] {
		return m.left
	}
	return m.right
}

// readPilot loads a pilot set; an empty one has no record to read.
func (p *PST) readPilot(h em.Handle) []point.P {
	if h == em.NilHandle {
		return nil
	}
	return p.pstore.Read(h)
}

// writePilot stores ps as the pilot set of nd.vs[idx], updating its
// rep, size and record address inside nd, which the caller writes back.
// The pilot's first point allocates its record and its last point
// leaving frees it.
func (p *PST) writePilot(nd *tnode, idx int, ps []point.P) {
	m := &nd.vs[idx]
	switch {
	case len(ps) == 0:
		if m.pilot != em.NilHandle {
			p.pstore.Free(m.pilot)
			m.pilot = em.NilHandle
		}
	case m.pilot == em.NilHandle:
		m.pilot = p.pstore.Alloc(ps)
	default:
		p.pstore.Write(m.pilot, ps)
	}
	m.size = len(ps)
	m.rep = math.Inf(-1)
	for _, q := range ps {
		if m.rep == math.Inf(-1) || q.Score < m.rep {
			m.rep = q.Score
		}
	}
}

// Stats exposes the underlying disk meter.
func (p *PST) Stats() em.Stats { return p.disk.Stats() }

// String summarizes the structure.
func (p *PST) String() string {
	return fmt.Sprintf("pst{n=%d, height=%d, B=%d, branch=%d}",
		p.n, p.Height(), p.opt.PilotB, p.opt.Branch)
}
