// Package topk is a dynamic, I/O-efficient index for one-dimensional
// top-k range reporting, reproducing Yufei Tao's PODS 2014 paper
// "A Dynamic I/O-Efficient Structure for One-Dimensional Top-k Range
// Reporting" (arXiv:1208.4516).
//
// The problem: maintain a set S of n points on the real line, each with
// a distinct score, under insertions and deletions, so that a query
// (q = [x1,x2], k) returns the k points of S ∩ q with the highest
// scores. In the external-memory model (block size B words), the index
// achieves the paper's Theorem 1 bounds:
//
//	space   O(n/B) blocks
//	query   O(log_B n + k/B) I/Os
//	update  O(log_B n) amortized I/Os
//
// improving on the O(log²_B n) updates of the prior state of the art.
//
// Usage:
//
//	idx, err := topk.New(topk.Config{})
//	if err != nil { ... }
//	if err := idx.Insert(142.50, 9.1); err != nil { ... } // e.g. price, rating
//	if err := idx.Insert(99.99, 8.4); err != nil { ... }
//	best := idx.TopK(100, 200, 10) // ten best-rated in [100,200]
//
// Misuse returns sentinel errors (ErrDuplicatePosition,
// ErrDuplicateScore, ErrInvalidPoint) instead of panicking; see
// store.go for the Store interface both backends implement.
//
// The disk is simulated (DESIGN.md, substitution 1): I/Os are counted
// through an LRU buffer pool exactly as the Aggarwal–Vitter model
// prescribes, and Stats exposes the meter so applications and the
// experiment harness can observe block transfers directly.
//
// An Index is a single sequential EM machine. For concurrent serving,
// Sharded range-partitions the line across several independent EM
// machines, fans queries out in parallel and selects and sorts once
// over the shards' answers, returning exactly what a single Index
// would; cmd/topkd serves it
// over HTTP. See DESIGN.md for the architecture.
package topk

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/em"
	"repro/internal/point"
)

// Config configures an Index. The zero value follows the paper's
// defaults on a 64-word-block simulated disk.
type Config struct {
	// BlockWords is B, the block size in words (default 64).
	BlockWords int
	// MemoryWords is M, the buffer-pool memory in words (default 16·B).
	MemoryWords int
	// ForcePolylog pins the small-k component to the §3.3 structure
	// instead of the paper's automatic B-vs-lg⁶n regime test.
	ForcePolylog bool
	// PolylogF and PolylogLeafCap shrink the §3.3 tree shape for small
	// inputs (0 = the paper's f = √(B·lg n), b = f·l·B, which keep the
	// tree a single leaf until n is very large).
	PolylogF       int
	PolylogLeafCap int
}

// Result is one reported point. It is the same type as the engine's
// internal point, so answers reach the caller without a conversion.
type Result = point.P

// Index is a dynamic top-k range reporting index. Create with New; an
// Index is not safe for concurrent use (the EM model is sequential —
// even queries mutate the buffer pool's LRU state). Use Sharded for
// concurrent serving.
type Index struct {
	disk *em.Disk
	ix   *core.Index
	// guard holds the live positions and scores: the Index's one
	// duplicate guard, which every insert passes before it reaches ix.
	guard core.Guard
}

// New returns an empty Index. Every Config is valid, so the error is
// always nil.
func New(cfg Config) (*Index, error) {
	d := em.NewDisk(em.Config{B: cfg.BlockWords, M: cfg.MemoryWords})
	return &Index{disk: d, ix: core.New(d, coreOptions(cfg))}, nil
}

// Load returns an Index bulk-loaded with the given points. It rejects
// inputs violating the paper's standing assumptions — non-finite
// coordinates, duplicate positions or duplicate scores — with the
// corresponding sentinel error, naming the first offending point.
// The check fills the Index's guard.
func Load(cfg Config, pts []Result) (*Index, error) {
	var g core.Guard
	if err := g.Load(pts); err != nil {
		return nil, fmt.Errorf("topk: %w", err)
	}
	d := em.NewDisk(em.Config{B: cfg.BlockWords, M: cfg.MemoryWords})
	return &Index{disk: d, ix: core.Bulk(d, coreOptions(cfg), pts), guard: g}, nil
}

func coreOptions(cfg Config) core.Options {
	opt := core.Options{
		PolylogF:       cfg.PolylogF,
		PolylogLeafCap: cfg.PolylogLeafCap,
	}
	if cfg.ForcePolylog {
		opt.Regime = core.RegimePolylog
	}
	return opt
}

// Len returns the number of points currently stored.
func (x *Index) Len() int { return x.ix.Len() }

// Insert adds the point (pos, score). Positions and scores are
// distinct across the live set (the paper's standing assumption; see
// §1 footnote 1 for the standard reductions when they are not):
// violations return ErrDuplicatePosition / ErrDuplicateScore, and
// non-finite coordinates return ErrInvalidPoint. A failed insert
// mutates nothing.
func (x *Index) Insert(pos, score float64) error {
	p := point.P{X: pos, Score: score}
	if err := x.guard.Reserve(p); err != nil {
		return err
	}
	x.ix.Insert(p)
	return nil
}

// Delete removes the point (pos, score), reporting whether it was
// present.
func (x *Index) Delete(pos, score float64) bool {
	p := point.P{X: pos, Score: score}
	if !x.ix.Delete(p) {
		return false
	}
	x.guard.Release(p)
	return true
}

// ApplyBatch applies the operations in order (an Index is one
// sequential machine — there is nothing to parallelize) and returns
// one error per op under the Store contract: nil for applied ops,
// ErrNotFound for deletes of absent points, the Insert sentinels for
// rejected inserts. A rejected op mutates nothing; later ops still
// run.
func (x *Index) ApplyBatch(ops []BatchOp) []error {
	if len(ops) == 0 {
		return nil
	}
	res := make([]error, len(ops))
	for i, op := range ops {
		if op.Delete {
			if !x.Delete(op.X, op.Score) {
				res[i] = ErrNotFound
			}
		} else {
			res[i] = x.Insert(op.X, op.Score)
		}
	}
	return res
}

// TopK returns the k highest-scoring points with position in [x1, x2],
// in descending score order; if fewer than k qualify, all are returned.
// k ≤ 0, inverted or NaN bounds return nil.
func (x *Index) TopK(x1, x2 float64, k int) []Result {
	if math.IsNaN(x1) || math.IsNaN(x2) {
		return nil
	}
	return nilIfEmpty(x.ix.Query(x1, x2, k))
}

// nilIfEmpty maps an empty answer to nil, so every backend agrees
// byte-for-byte on no-hit queries.
func nilIfEmpty(res []Result) []Result {
	if len(res) == 0 {
		return nil
	}
	return res
}

// QueryBatch answers qs as a sequential loop of TopK calls, aligned
// positionally with qs — the Store contract's batched read on a
// single machine (Sharded amortizes real lock and fan-out costs;
// here the batch form exists so callers are backend-agnostic).
func (x *Index) QueryBatch(qs []Query) [][]Result {
	if len(qs) == 0 {
		return nil
	}
	out := make([][]Result, len(qs))
	for i, q := range qs {
		out[i] = x.TopK(q.X1, q.X2, q.K)
	}
	return out
}

// Count returns the number of stored points with position in [x1, x2].
func (x *Index) Count(x1, x2 float64) int { return x.ix.Count(x1, x2) }

// Stats is a snapshot of the simulated disk's I/O meter.
type Stats struct {
	// Reads and Writes count block transfers.
	Reads, Writes int64
	// BlocksLive is the current disk footprint in blocks.
	BlocksLive int64
	// BlocksPeak is the footprint high-water mark.
	BlocksPeak int64
}

// Stats returns the current I/O meter.
func (x *Index) Stats() Stats {
	s := x.disk.Stats()
	return Stats{Reads: s.Reads, Writes: s.Writes, BlocksLive: s.BlocksLive, BlocksPeak: s.BlocksPeak}
}

// ResetStats zeroes the read/write counters (space gauges are kept), so
// callers can meter individual phases.
func (x *Index) ResetStats() { x.disk.ResetMeter() }

// DropCache evicts the buffer pool so the next operations run cold —
// useful when measuring worst-case query I/Os.
func (x *Index) DropCache() { x.disk.DropCache() }

// BlockSize returns B in words.
func (x *Index) BlockSize() int { return x.disk.B() }

// KThreshold returns the k value at which queries switch from the
// small-k machinery (§3.3 / [14]) to the §2 priority search tree
// (B·lg n, per §1.2).
func (x *Index) KThreshold() int { return x.ix.KThreshold() }

// Regime describes which small-k component is active ("polylog(§3.3)"
// or "baseline[14]").
func (x *Index) Regime() string { return x.ix.CurrentRegime().String() }

// String summarizes the index.
func (x *Index) String() string {
	return fmt.Sprintf("topk.Index{n=%d, B=%d, %s}", x.Len(), x.BlockSize(), x.ix)
}
