package topk

import (
	"context"
	"fmt"
	"time"

	"repro/internal/ingest"
)

// This file is the public face of the write-path group-commit layer
// (internal/ingest): Batched wraps any Store and coalesces concurrent
// single-op Insert/Delete calls into grouped ApplyBatch flushes, so
// the per-op coordination cost — an HTTP round trip on the cluster
// tier, a topology RLock plus a shard mutex in process — amortizes
// across the group. See DESIGN.md ("Write path: group commit").

// BatchedConfig tunes the group-commit layer. The zero value gives
// serving defaults (256-op size trigger, 1ms window).
type BatchedConfig struct {
	// Window bounds how long an async op waits for company before the
	// background flusher commits its group. Sync callers (Insert,
	// Delete, Do-style) never wait it — they drive commits themselves.
	// 0 means the 1ms default; negative disables the background
	// flusher (sync-only operation, Submit* futures then resolve only
	// when a sync caller or Flush drives a commit).
	Window time.Duration
	// MaxBatch is the size trigger: a pending group this large commits
	// immediately instead of waiting out the window. 0 means 256.
	MaxBatch int
}

// BatcherStats snapshots the group-commit counters of a Batched store:
// groups committed, ops committed, the largest group and the ops
// pending. It is the batcher's own snapshot, so it is read without a
// copy.
type BatcherStats = ingest.Stats

// Future is the outcome handle of an asynchronous SubmitInsert or
// SubmitDelete: resolved when the op's group commits, carrying exactly
// the error the equivalent direct call would have returned (errors.Is
// compatible). It is the batcher's own future, so it reaches the
// caller without a wrapper.
type Future = *ingest.Future

// Batched wraps a Store with write-path group commit: concurrent
// Insert/Delete calls coalesce into grouped ApplyBatch flushes against
// the inner store. Batched touches writes only: reads, Len and Stats
// pass through untouched and never wait for a commit. Error semantics
// are exact — a batched Insert returns the same sentinel an unbatched
// one would have (ErrInvalidPoint, ErrDuplicatePosition,
// ErrDuplicateScore; ErrNotFound for deletes via SubmitDelete).
//
// Two write modes share one batcher. The synchronous mode (Insert,
// Delete — the Store interface) parks the caller on a per-op future
// until its group commits; groups are self-clocking, sized by how many
// writers overlapped one commit, and a lone writer degenerates to a
// direct call. The asynchronous mode (SubmitInsert, SubmitDelete)
// returns a Future immediately; the background flusher commits on a
// size-or-deadline trigger, and cmd/topkd surfaces this as HTTP 202
// plus a queryable outcome.
//
// Caveat (inherited from ApplyBatch on Sharded): a group mixing a
// delete of score s with an insert reusing score s may order them
// across shards either way. Synchronous callers who wait for the
// delete before inserting are unaffected — the commit of the delete's
// group happens before the insert is submitted.
type Batched struct {
	inner Store
	b     *ingest.Batcher
}

// NewBatched wraps st with the group-commit write path. st may be any
// Store, but an Index must be wrapped in a concurrency-safe guard first
// (e.g. serve.LockedIndex), since the batcher calls it concurrently.
func NewBatched(st Store, cfg BatchedConfig) (*Batched, error) {
	if st == nil {
		return nil, fmt.Errorf("%w: nil store", ErrConfig)
	}
	if cfg.MaxBatch < 0 {
		return nil, fmt.Errorf("%w: negative batcher bound", ErrConfig)
	}
	// Each group commits as one inner ApplyBatch over the batcher's own
	// group buffer: no store keeps the ops slice past the call.
	return &Batched{inner: st, b: ingest.New(ingest.Options{
		Flush:    st.ApplyBatch,
		MaxBatch: cfg.MaxBatch,
		Window:   cfg.Window,
	})}, nil
}

// Insert adds (pos, score) through the group-commit path, parking
// until the group commits. The error contract matches the inner
// store's Insert exactly.
func (bt *Batched) Insert(pos, score float64) error {
	return bt.b.Do(BatchOp{X: pos, Score: score})
}

// Delete removes (pos, score) through the group-commit path, parking
// until the group commits. It reports whether the point was present,
// matching the inner store's Delete contract.
func (bt *Batched) Delete(pos, score float64) bool {
	return bt.b.Do(BatchOp{Delete: true, X: pos, Score: score}) == nil
}

// SubmitInsert enqueues an insert and returns immediately; the Future
// resolves when the op's group commits.
func (bt *Batched) SubmitInsert(pos, score float64) Future {
	return bt.b.Submit(BatchOp{X: pos, Score: score})
}

// SubmitDelete enqueues a delete and returns immediately; the Future
// resolves to nil if the point was present, ErrNotFound otherwise.
func (bt *Batched) SubmitDelete(pos, score float64) Future {
	return bt.b.Submit(BatchOp{Delete: true, X: pos, Score: score})
}

// Flush drives one group commit now, draining every pending op. Useful
// before a read that must observe prior async submissions.
func (bt *Batched) Flush() { bt.b.Commit() }

// ApplyBatch passes through: the caller already grouped the ops. A
// pending group is flushed first so ops submitted before this call are
// not reordered after it.
func (bt *Batched) ApplyBatch(ops []BatchOp) []error {
	bt.b.Commit()
	return bt.inner.ApplyBatch(ops)
}

// Reads pass through to the inner store. They do NOT flush pending
// async ops — an op acknowledged with 202 is readable, and counted by
// Len, only once its group commits (bounded by Window); call Flush
// first for read-your-writes.

// Len passes through to the inner store.
func (bt *Batched) Len() int { return bt.inner.Len() }

// TopK passes through to the inner store.
func (bt *Batched) TopK(x1, x2 float64, k int) []Result { return bt.inner.TopK(x1, x2, k) }

// QueryBatch passes through to the inner store.
func (bt *Batched) QueryBatch(qs []Query) [][]Result { return bt.inner.QueryBatch(qs) }

// Count passes through to the inner store.
func (bt *Batched) Count(x1, x2 float64) int { return bt.inner.Count(x1, x2) }

// Stats passes through to the inner store.
func (bt *Batched) Stats() Stats { return bt.inner.Stats() }

// ResetStats passes through to the inner store.
func (bt *Batched) ResetStats() { bt.inner.ResetStats() }

// DropCache passes through to the inner store.
func (bt *Batched) DropCache() { bt.inner.DropCache() }

// BatcherStats snapshots the group-commit counters.
func (bt *Batched) BatcherStats() BatcherStats { return bt.b.Stats() }

// IngestTelemetry returns the batcher's write-path telemetry — group
// sizes, flush latency, flush-reason counters, backpressure waits;
// never nil. The serving layer probes this to export the
// topkd_ingest_* families.
func (bt *Batched) IngestTelemetry() *ingest.Telemetry { return bt.b.Telemetry() }

// Unwrap returns the inner store, so serving-layer probes for
// backend-specific surface (NumShards, Epoch, Nodes, ...) see through
// the batching wrapper.
func (bt *Batched) Unwrap() Store { return bt.inner }

// Close flushes every pending op, stops the background flusher, and
// closes the inner store if it has a Close. After Close the wrapper
// keeps working in pass-through mode (each write commits itself).
func (bt *Batched) Close() error {
	if err := bt.b.Close(); err != nil {
		return err
	}
	if c, ok := bt.inner.(interface{ Close() error }); ok {
		return c.Close()
	}
	return nil
}

// WithContext returns the store with its reads and explicit ApplyBatch
// bound to ctx, when the inner store can bind one (the cluster tier
// can): a *Batched over the inner store's WithContext view, sharing
// this one's batcher. Single-op writes keep flowing through that
// shared batcher, whose flushes are not per-caller and so cannot carry
// one caller's context. Over an inner store that cannot bind, it
// returns bt.
func (bt *Batched) WithContext(ctx context.Context) Store {
	in, ok := bt.inner.(interface{ WithContext(context.Context) Store })
	if !ok {
		return bt
	}
	return &Batched{inner: in.WithContext(ctx), b: bt.b}
}
