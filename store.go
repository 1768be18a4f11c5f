package topk

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/point"
)

// This file is the v1 API surface shared by both backends: the Store
// interface, the batched-read Query type, and the sentinel errors of
// the error-returning update path. See DESIGN.md ("API v1") for the
// error-semantics table.

// Sentinel errors. Constructors report ErrConfig; Insert and the
// insert side of ApplyBatch report the point errors in a fixed check
// order: ErrInvalidPoint, then ErrDuplicatePosition, then
// ErrDuplicateScore. Match with errors.Is — returned errors may wrap
// these with context.
var (
	// ErrConfig reports an invalid Config/ShardedConfig.
	ErrConfig = errors.New("topk: invalid config")
	// ErrInvalidPoint rejects NaN or ±Inf coordinates.
	ErrInvalidPoint = core.ErrInvalidPoint
	// ErrDuplicatePosition rejects an insert at an occupied position
	// (the input is a set of reals — §1 footnote 1 of the paper gives
	// the standard reductions when positions are not naturally unique).
	ErrDuplicatePosition = core.ErrDuplicatePosition
	// ErrDuplicateScore rejects an insert whose score is already live
	// anywhere in the index — on Sharded this is checked fleet-wide,
	// not per shard.
	ErrDuplicateScore = core.ErrDuplicateScore
	// ErrNotFound reports a batched delete of an absent point.
	ErrNotFound = core.ErrNotFound
)

// Query is one read of a QueryBatch: the K highest-scoring points
// with position in [X1, X2].
type Query = point.Query

// Store is the serving interface implemented by both *Index (one
// sequential EM machine) and *Sharded (a concurrent fleet of them).
// Callers written against Store — cmd/topkd, internal/workload, the
// examples — run unchanged on either backend, and every future
// backend (merged shards, remote shards, a caching tier) drops in
// behind it.
//
// Semantics are identical across implementations: TopK and QueryBatch
// return byte-identical answers on the same point set, updates obey
// the same error contract, and no method panics on caller input. The
// difference is operational — *Index is not safe for concurrent use
// (even queries mutate the buffer pool's LRU state), *Sharded is.
//
// Backend-specific surface stays off the interface and is probed with
// type assertions where needed: *Sharded additionally offers shard
// introspection (NumShards, Boundaries, Epoch, Splits, Merges,
// CheckInvariants) and the lifecycle controls (Rebalance, Maintain,
// Close) — cmd/topkd does exactly this for /v1/stats and /v1/metrics.
type Store interface {
	// Len returns the number of live points.
	Len() int
	// Insert adds (pos, score); nil on success, else ErrInvalidPoint,
	// ErrDuplicatePosition or ErrDuplicateScore. A failed insert
	// mutates nothing.
	Insert(pos, score float64) error
	// Delete removes (pos, score), reporting whether it was present.
	Delete(pos, score float64) bool
	// ApplyBatch applies a mixed batch of inserts and deletes,
	// returning one error per op (nil = applied; ErrNotFound for a
	// delete of an absent point; the Insert errors for rejected
	// inserts).
	ApplyBatch(ops []BatchOp) []error
	// TopK returns the k highest-scoring points with position in
	// [x1, x2] in descending score order; fewer if fewer qualify, nil
	// for k ≤ 0, inverted or NaN bounds. An oversized k is clamped to
	// the live size before anything allocates, on both backends and
	// in QueryBatch — an absurd caller k costs nothing beyond the
	// points actually reported.
	TopK(x1, x2 float64, k int) []Result
	// QueryBatch answers many queries at once, positionally aligned
	// with qs and byte-identical to calling TopK per query. On
	// Sharded the whole batch runs over one pinned topology snapshot
	// with per-shard fan-out; on Index it is a sequential loop.
	QueryBatch(qs []Query) [][]Result
	// Count returns the number of live points with position in [x1, x2].
	Count(x1, x2 float64) int
	// Stats snapshots the simulated disk I/O meter(s).
	Stats() Stats
	// ResetStats zeroes the read/write counters (space gauges kept).
	ResetStats()
	// DropCache evicts the buffer pool(s) so the next operations run
	// cold.
	DropCache()
}

// Both backends implement Store; compile-time assertion.
var (
	_ Store = (*Index)(nil)
	_ Store = (*Sharded)(nil)
)

// BatchOp is one operation of an ApplyBatch call: an insert of
// (X, Score), or a delete when Delete is set.
type BatchOp = point.Op

// validatePoints checks a bulk-load input against the paper's
// standing assumptions: finite coordinates, distinct positions,
// distinct scores.
func validatePoints(pts []Result) error {
	seenX := make(map[float64]struct{}, len(pts))
	seenS := make(map[float64]struct{}, len(pts))
	for i, r := range pts {
		if !r.Finite() {
			return fmt.Errorf("topk: load point %d (%v, %v): %w", i, r.X, r.Score, ErrInvalidPoint)
		}
		if _, dup := seenX[r.X]; dup {
			return fmt.Errorf("topk: load point %d (x=%v): %w", i, r.X, ErrDuplicatePosition)
		}
		if _, dup := seenS[r.Score]; dup {
			return fmt.Errorf("topk: load point %d (score=%v): %w", i, r.Score, ErrDuplicateScore)
		}
		seenX[r.X] = struct{}{}
		seenS[r.Score] = struct{}{}
	}
	return nil
}
