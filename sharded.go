package topk

import (
	"context"
	"time"

	"repro/internal/em"
	"repro/internal/point"
	"repro/internal/shard"
)

// ShardedConfig configures a Sharded index. The embedded Config
// applies to every shard's EM machine and Theorem 1 structure, with
// one deliberate difference: MemoryWords is the FLEET buffer-pool
// budget, divided evenly across shards whenever they are (re)built —
// at bulk load, split and rebalance time — so total fleet memory
// stays O(M) instead of growing with the shard count. Each machine
// keeps the model's floor of M ≥ 2B.
type ShardedConfig struct {
	Config
	// Shards caps the shard count (default 8). NewSharded starts from
	// one shard and splits as skew develops; LoadSharded pre-partitions
	// into this many quantile shards.
	Shards int
	// Skew is the split trigger: a shard splits when it holds more than
	// Skew times its fair share of the live set (default 2.0).
	Skew float64
	// MinSplit is the smallest shard eligible for splitting (default
	// 512), keeping small indexes on a single machine.
	MinSplit int
	// MinMerge is the merge trigger, the split's symmetric
	// counterpart: after a delete leaves a shard holding fewer than
	// MinMerge points — or less than 1/Skew of its fair share — the
	// shard is coalesced with its smaller adjacent neighbor, so a
	// delete-heavy workload cannot strand the fleet as many near-empty
	// shards each paying fixed per-shard overhead. Negative disables
	// merging. 0 selects auto mode: the floor starts at the default
	// MinSplit/2 and the maintenance loop re-derives it each pass from
	// observed per-shard space overhead (never below the default,
	// capped at MinSplit). Hysteresis is built in: a merge never
	// produces a shard the split policy would immediately cut back
	// apart.
	MinMerge int
	// MaintenanceInterval, when positive, starts a background
	// maintenance goroutine at construction: every interval it
	// refreshes the adaptive merge floor, coalesces underloaded
	// shards and splits overloaded ones, so a fleet left idle after
	// heavy deletes coalesces without waiting for the next update to
	// trip an inline lifecycle hook. Stop it with Close. 0 (the
	// default) disables the loop; Maintain still runs a pass on
	// demand.
	MaintenanceInterval time.Duration
}

func (cfg ShardedConfig) options() (shard.Options, error) {
	if err := cfg.Config.validate(); err != nil {
		return shard.Options{}, err
	}
	return shard.Options{
		Disk:                em.Config{B: cfg.BlockWords, M: cfg.MemoryWords},
		Core:                coreOptions(cfg.Config),
		MaxShards:           cfg.Shards,
		SkewFactor:          cfg.Skew,
		MinSplit:            cfg.MinSplit,
		MinMerge:            cfg.MinMerge,
		MaintenanceInterval: cfg.MaintenanceInterval,
	}, nil
}

// Sharded is a concurrent top-k index: a position-range-partitioned
// router over independent Index-equivalent shards, each a complete
// sequential EM machine with its own simulated disk. Unlike Index, a
// Sharded is safe for concurrent use — queries and updates on
// different shards proceed in parallel, and queries that straddle
// shard boundaries fan out and heap-merge, returning exactly what a
// single Index would. See internal/shard and DESIGN.md for the
// architecture.
type Sharded struct {
	r *shard.Router
}

// NewSharded returns an empty Sharded index with one shard (shards
// split automatically as data arrives), or ErrConfig on a
// contradictory config.
func NewSharded(cfg ShardedConfig) (*Sharded, error) {
	opt, err := cfg.options()
	if err != nil {
		return nil, err
	}
	return &Sharded{r: shard.New(opt)}, nil
}

// LoadSharded returns a Sharded index bulk-loaded with pts,
// pre-partitioned into cfg.Shards equal quantile shards. Like Load,
// it validates pts against the input contract and reports the
// violated sentinel error.
func LoadSharded(cfg ShardedConfig, pts []Result) (*Sharded, error) {
	opt, err := cfg.options()
	if err != nil {
		return nil, err
	}
	if err := validatePoints(pts); err != nil {
		return nil, err
	}
	return &Sharded{r: shard.Bulk(opt, pts, opt.MaxShards)}, nil
}

// Len returns the number of points currently stored.
func (s *Sharded) Len() int { return s.r.Len() }

// NumShards returns the current number of shards.
func (s *Sharded) NumShards() int { return s.r.NumShards() }

// Boundaries returns the current cut positions (len NumShards−1),
// ascending — introspection for operators and for tests that craft
// boundary-straddling queries. Like every read, it is served from the
// current topology snapshot and never contends with writers.
func (s *Sharded) Boundaries() []float64 { return s.r.Boundaries() }

// Insert adds the point (pos, score) under the same error contract as
// Index.Insert, with the duplicate-score check applied fleet-wide: an
// equal score on a different shard is rejected with ErrDuplicateScore
// instead of silently violating the distinct-score assumption. A
// failed insert mutates nothing, so the index stays consistent.
func (s *Sharded) Insert(pos, score float64) error {
	return s.r.Insert(point.P{X: pos, Score: score})
}

// Delete removes the point (pos, score), reporting whether it was
// present.
func (s *Sharded) Delete(pos, score float64) bool {
	return s.r.Delete(point.P{X: pos, Score: score})
}

// TopK returns the k highest-scoring points with position in [x1, x2]
// in descending score order — the same answer, in the same order, as
// Index.TopK on the same point set.
func (s *Sharded) TopK(x1, x2 float64, k int) []Result {
	return nilIfEmpty(s.r.TopK(x1, x2, k))
}

// QueryBatch answers qs as one batch over a single pinned topology
// snapshot (no topology lock is held — see DESIGN.md on snapshot
// reads): work is grouped per shard (each shard's mutex taken once
// for the whole batch) and distinct shards run in parallel,
// amortizing the per-shard lock acquisitions and goroutine setup a
// loop of TopK calls would pay per query. Answers align positionally
// with qs and are byte-identical to sequential TopK calls.
func (s *Sharded) QueryBatch(qs []Query) [][]Result { return s.r.QueryBatch(qs) }

// Count returns the number of stored points with position in [x1, x2].
func (s *Sharded) Count(x1, x2 float64) int { return s.r.Count(x1, x2) }

// ApplyBatch applies the operations as one concurrent batch: ops are
// grouped by target shard, each shard is locked once, and groups run
// in parallel. Within a shard, batch order is preserved; ops on
// different shards commute (disjoint position ranges), so the batch
// is equivalent to some sequential interleaving — but the
// interleaving is not chosen, so an insert reusing a score deleted on
// a different shard in the same batch may be rejected; issue such
// deletes in their own batch first. Returns one error per op under
// the Store contract (nil = applied, ErrNotFound for absent deletes,
// Insert sentinels for rejected inserts).
func (s *Sharded) ApplyBatch(ops []BatchOp) []error { return s.r.ApplyBatch(ops) }

// Rebalance re-partitions into up to target equal quantile shards,
// preserving contents exactly. Inserts rebalance automatically via
// splitting and deletes via merging; Rebalance remains the on-demand
// full re-partition (e.g. to restore exact quantile cuts).
func (s *Sharded) Rebalance(target int) { s.r.Rebalance(target) }

// Maintain runs one synchronous maintenance pass — exactly what the
// background loop runs every MaintenanceInterval: refresh the
// adaptive merge floor, coalesce underloaded shards, split overloaded
// ones. It is how an idle fleet stranded by past deletes is repaired
// on demand, and how tests drive the lifecycle deterministically.
func (s *Sharded) Maintain() { s.r.Maintain() }

// Close stops the background maintenance goroutine, if one was
// started, and waits for it to exit. Idempotent; the index keeps
// serving after Close — only the timer-driven lifecycle passes stop.
func (s *Sharded) Close() error { return s.r.Close() }

// Epoch returns the current topology epoch. It increments every time
// a new topology snapshot is published (splits, merges, rebalances,
// stats resets), so operators can watch lifecycle activity cheaply;
// cmd/topkd exports it under /v1/metrics and GET /v1/epoch.
func (s *Sharded) Epoch() int64 { return s.r.Epoch() }

// WatchEpoch returns a channel that delivers the topology epoch: the
// current value immediately, then the latest epoch after every
// snapshot publish. Deliveries are coalesced — a slow receiver
// observes the newest epoch rather than a backlog, and a subscriber
// can never stall a lifecycle pass. The channel closes when ctx is
// cancelled. It is the minimal change feed gateways and caching tiers
// poll-free detect member topology changes with; cmd/topkd serves the
// same number under GET /v1/epoch for remote watchers.
func (s *Sharded) WatchEpoch(ctx context.Context) <-chan uint64 { return s.r.WatchEpoch(ctx) }

// Splits returns the number of automatic shard splits since creation.
func (s *Sharded) Splits() int64 { return s.r.Splits() }

// Merges returns the number of automatic shard merges since creation
// — together with Splits, the operator-facing lifecycle counters
// cmd/topkd reports under /v1/stats.
func (s *Sharded) Merges() int64 { return s.r.Merges() }

// CheckInvariants validates the shard topology (contiguous cover,
// count within bounds), every shard's internal structures, and the
// fleet-wide live count and score set. It is an operator/test
// diagnostic: it takes the topology write lock and scans every shard,
// so it is expensive and never called on serving paths.
func (s *Sharded) CheckInvariants() error { return s.r.CheckInvariants() }

// Stats aggregates the I/O meters of every shard's disk (plus the
// transfer counters of disks retired by splits, merges and
// rebalances). BlocksLive is the fleet-wide live-block total;
// BlocksPeak is the high-water mark of that fleet total as observed
// at Stats calls and topology changes — a footprint some instant
// actually held, not a sum of per-shard peaks from different
// instants.
func (s *Sharded) Stats() Stats {
	st := s.r.Stats()
	return Stats{Reads: st.Reads, Writes: st.Writes, BlocksLive: st.BlocksLive, BlocksPeak: st.BlocksPeak}
}

// ResetStats zeroes the aggregated read/write counters.
func (s *Sharded) ResetStats() { s.r.ResetStats() }

// DropCache evicts every shard's buffer pool so the next operations
// run cold.
func (s *Sharded) DropCache() { s.r.DropCache() }

// String summarizes the router topology.
func (s *Sharded) String() string { return s.r.String() }
