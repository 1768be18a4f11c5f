// Package shard is the concurrent serving layer over the sequential
// Theorem 1 machine: a position-range-partitioned router that owns N
// independent core.Index instances, one simulated EM disk each.
//
// The paper's structure (and the EM model it is analysed in) is
// strictly sequential — core.Index and em.Disk document themselves as
// unsafe for concurrent use, because even a query mutates the buffer
// pool's LRU state. The classical remedy is range partitioning: the
// real line is cut into contiguous shards, each shard is a complete
// Theorem 1 structure over its sub-range with its own disk, buffer
// pool and I/O meter, and every shard is guarded by its own mutex. The
// per-structure bounds then hold per shard (a shard holding n_i points
// answers in O(log_B n_i + k/B) I/Os), while operations on different
// shards proceed in parallel.
//
// The router is organized in three layers, one file each:
//
//   - topology (topology.go): an immutable, epoch-versioned snapshot
//     of the fleet — shard slice, cut positions, retired-meter
//     history — swapped atomically on every split/merge/rebalance.
//     Readers pin a snapshot with one atomic load and never touch the
//     topology lock; observability (Boundaries, NumShards, Stats,
//     String) is served the same way, so it never contends with
//     writers.
//   - execution (execute.go): the parallel fan-out and k-way
//     heap-merge machinery answering TopK/Count/QueryBatch over one
//     pinned snapshot. Per-shard answers — already sorted by
//     descending score — are merged with internal/heap's best-first
//     selection, which preserves the exact descending-score semantics
//     of the unsharded structure (scores are distinct by the paper's
//     standing assumption, so the merged order is unique).
//   - lifecycle (lifecycle.go): the split/merge/rebalance policy, the
//     passes that execute it under the topology write lock, and the
//     background maintenance loop (Options.MaintenanceInterval /
//     Close) that sweeps the fleet on a timer so it keeps adapting —
//     coalescing after heavy deletes, re-deriving the adaptive merge
//     floor — even when no traffic arrives to trigger the inline
//     hooks.
//
// This file holds what the layers share: Options, the shard and
// Router types, the constructors, and the update paths (Insert,
// Delete, ApplyBatch) with their fleet-wide duplicate-score registry.
//
// Shards split when insertion skew concentrates too large a share of
// the live set in one of them (see Options.SkewFactor): the overloaded
// shard's points are scanned out with core.Live, cut at the median
// position, and rebuilt into two halves with core.Bulk — the cost is
// amortized against the insertions that caused the overload, the same
// argument as the paper's global rebuilding. Symmetrically, shards
// merge when deletions leave one underloaded (see Options.MinMerge),
// so a delete-heavy workload cannot degenerate the fleet into many
// near-empty shards each paying fixed per-shard overhead. Rebalance
// re-partitions the whole router into equal quantile shards on demand.
package shard

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/em"
	"repro/internal/merge"
	"repro/internal/point"
)

// Options configures a Router. The zero value serves from up to 8
// shards of paper-default EM machines.
type Options struct {
	// Disk configures the shard EM machines. Disk.M is the FLEET
	// buffer-pool budget, not a per-shard figure: it is divided evenly
	// across the shards that exist when a shard is (re)built — at bulk
	// load, split and rebalance time — so total fleet memory stays
	// O(M) instead of O(M·shards). Each machine keeps the model's
	// floor of M ≥ 2B (paper footnote 2; em clamps), so at extreme
	// shard counts the fleet total is min 2B·shards.
	Disk em.Config
	// Core configures each shard's Theorem 1 structure.
	Core core.Options
	// MaxShards caps the shard count (default 8). Splitting stops at the
	// cap; Bulk never creates more than this many shards.
	MaxShards int
	// SkewFactor triggers a split when one shard holds more than
	// SkewFactor times the fair share n/MaxShards of the live set
	// (default 2.0). Measuring against the target fleet size rather
	// than the current shard count lets a fresh single-shard router
	// split its way to a balanced fleet as data arrives.
	SkewFactor float64
	// MinSplit is the smallest shard size eligible for splitting
	// (default 512), so tiny indexes stay on one machine.
	MinSplit int
	// MinMerge is the shard size below which a shard is
	// unconditionally considered underloaded and eligible for merging
	// with a neighbor. Above the floor, a shard is underloaded only
	// when it holds less than 1/SkewFactor of the fair share
	// n/MaxShards — the mirror image of the split trigger. The
	// absolute floor matters after heavy deletes: the fair share
	// itself shrinks with n, so without it a fleet of near-empty
	// shards would never coalesce. Negative disables merging entirely
	// (splits still happen).
	//
	// 0 selects AUTO mode: the floor starts at the static default
	// MinSplit/2 and, when the maintenance loop runs, is re-derived
	// each tick from observed per-shard space overhead (never below
	// the default, capped at MinSplit) — see Router.MergeFloor and
	// updateMergeFloor in lifecycle.go.
	//
	// Hysteresis against split/merge flapping is structural: a merge
	// is skipped when the combined shard would itself satisfy the
	// split policy's size test, so no merge can create a shard that an
	// insert would immediately cut back apart; and the default floor
	// of MinSplit/2 keeps the halves produced by a split (each at
	// least MinSplit/2 points) at or above the static merge floor.
	MinMerge int
	// MaintenanceInterval, when positive, starts a background
	// goroutine at construction that runs Maintain every interval:
	// refreshing the adaptive merge floor, coalescing underloaded
	// shards, splitting overloaded ones. It is how a fleet left idle
	// after heavy deletes coalesces without waiting for the next
	// update to trip an inline hook. Stop it with Close. 0 (the
	// default) disables the loop; Maintain can still be called
	// manually.
	MaintenanceInterval time.Duration
}

func (o Options) withDefaults() Options {
	if o.MaxShards <= 0 {
		o.MaxShards = 8
	}
	if o.SkewFactor <= 1 {
		o.SkewFactor = 2.0
	}
	if o.MinSplit <= 0 {
		o.MinSplit = 512
	}
	if o.Disk.B <= 0 {
		o.Disk.B = em.DefaultB
	}
	if o.Disk.M <= 0 {
		o.Disk.M = em.DefaultM
	}
	return o
}

// diskFor returns the EM config for one shard of a count-shard fleet:
// the fleet memory budget divided evenly. Resizing happens only when a
// shard is (re)built — existing pools keep their size until the next
// split or rebalance touches them, so the O(M) fleet total is exact
// after a bulk load or rebalance and approximate between them.
func (o Options) diskFor(count int) em.Config {
	d := o.Disk
	if count > 1 {
		d.M /= count
	}
	return d
}

// shard is one partition: a complete sequential EM machine over the
// position range [lo, hi) plus the mutex that serializes access to it.
// lo/hi are immutable after construction (re-partitioning builds new
// shard values), so they may be read without the mutex.
type shard struct {
	mu sync.Mutex
	lo float64 // inclusive; −Inf for the first shard
	hi float64 // exclusive; +Inf for the last shard
	d  *em.Disk
	ix *core.Index
}

// newShard builds one shard over [lo, hi). disk carries the per-shard
// memory share computed by Options.diskFor for the fleet size at build
// time.
func newShard(opt Options, disk em.Config, lo, hi float64, pts []point.P) *shard {
	d := em.NewDisk(disk)
	s := &shard{lo: lo, hi: hi, d: d}
	if len(pts) == 0 {
		s.ix = core.New(d, opt.Core)
	} else {
		s.ix = core.Bulk(d, opt.Core, pts)
	}
	return s
}

// size, live and meter read a shard's machine under its mutex. The
// lifecycle layer uses them for content scans: even under the topology
// write lock, snapshot-pinned readers may be querying the shard (and
// mutating its LRU state and I/O meter) concurrently.
func (s *shard) size() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ix.Len()
}

func (s *shard) live() []point.P {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ix.Live()
}

func (s *shard) meter() em.Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.d.Stats()
}

// Router fans operations out over position-range shards. All methods
// are safe for concurrent use.
type Router struct {
	opt Options

	// mu serializes UPDATES against TOPOLOGY CHANGES. Insert, Delete
	// and ApplyBatch take it in read mode — an update must land on the
	// CURRENT topology, because an update applied to a shard that a
	// concurrent re-partition just retired would be silently lost when
	// the rebuilt replacement takes over. Lifecycle passes (split,
	// merge, rebalance, reset) take it in write mode. Reads do not
	// touch it at all: they pin the topology snapshot below.
	mu sync.RWMutex

	// topo is the current topology snapshot (see topology.go),
	// published under mu in write mode and pinned lock-free by every
	// reader.
	topo atomic.Pointer[topology]

	// n is the live point count, maintained atomically so Len never
	// takes a shard lock.
	n atomic.Int64

	// splits and merges count topology changes since creation —
	// operator-facing lifecycle counters surfaced by cmd/topkd.
	splits atomic.Int64
	merges atomic.Int64

	// statsMu serializes Stats against ResetStats, the one operation
	// that moves meters BACKWARD: readers share it, only ResetStats
	// takes it exclusively, so a report can never mix pre-reset retired
	// history with partially-reset meters. No update or lifecycle path
	// touches it — their counters only grow, and the snapshot keeps a
	// pinned report self-consistent — so observability still never
	// contends with serving traffic.
	statsMu sync.RWMutex

	// repReads/repWrites/repAllocs/repFrees are monotone floors on the
	// REPORTED transfer counters. A reader still pinned to an old
	// snapshot can charge I/Os to a disk after a re-partition captured
	// that disk's meter into the retired history; those trailing I/Os
	// appear in reports made from the old snapshot and vanish from
	// later ones, which would make the Prometheus counters exported by
	// topkd tick backward. Stats clamps each report to the highest
	// value already reported (counters only — BlocksLive/Peak are
	// gauges), trading an undercount bounded by the trailing I/Os for
	// strict monotonicity. Folded under statsMu read locks; ResetStats
	// zeroes the floors under the write lock.
	repReads  atomic.Int64
	repWrites atomic.Int64
	repAllocs atomic.Int64
	repFrees  atomic.Int64

	// peak is the high-water mark of the FLEET-wide live-block total,
	// sampled whenever the fleet total is observed: at Stats calls and
	// after every topology change. Unlike a sum of per-shard peaks
	// (an upper bound no instant ever reached), this is a total some
	// instant actually held.
	peak atomic.Int64

	// mergeFloor is the effective MinMerge floor consulted by the
	// merge policy: Options.MinMerge when positive, else the adaptive
	// floor the maintenance loop maintains (autoFloor set). Atomic so
	// the loop can refresh it while update paths evaluate policy.
	mergeFloor atomic.Int64
	autoFloor  bool

	// scores is the router-level duplicate-score guard: the set of all
	// live scores across the fleet, with its own mutex so parallel
	// batch workers on different shards can consult it. Per-shard
	// structures only see their own sub-range, so without this set an
	// equal score on a different shard would be accepted silently and
	// detonate when a later split or rebalance co-locates the pair.
	scoreMu sync.Mutex
	scores  map[float64]struct{}

	// subMu guards the WatchEpoch subscriber set (topology.go). It is a
	// leaf lock: publish notifies subscribers while holding mu in write
	// mode, and nothing is acquired under it.
	subMu sync.Mutex
	subs  map[chan uint64]struct{}

	// Background maintenance loop state (lifecycle.go).
	maintStop chan struct{}
	maintDone chan struct{}
	closeOnce sync.Once
}

// newRouter allocates a Router with defaulted options, an initialized
// score set and the effective merge floor resolved — everything except
// the initial topology, which each constructor publishes itself.
func newRouter(opt Options) *Router {
	opt = opt.withDefaults()
	r := &Router{opt: opt, scores: map[float64]struct{}{}}
	floor := opt.MinMerge
	if floor == 0 {
		r.autoFloor = true
		floor = r.defaultFloor()
	}
	r.mergeFloor.Store(int64(floor))
	return r
}

// reserveScore claims score for an in-flight insert, reporting false
// if it is already live. The claim must be released if the insert
// fails for another reason (occupied position).
func (r *Router) reserveScore(score float64) bool {
	r.scoreMu.Lock()
	defer r.scoreMu.Unlock()
	if _, dup := r.scores[score]; dup {
		return false
	}
	r.scores[score] = struct{}{}
	return true
}

func (r *Router) releaseScore(score float64) {
	r.scoreMu.Lock()
	delete(r.scores, score)
	r.scoreMu.Unlock()
}

// New returns an empty Router: one shard covering the whole line,
// which splits as skew develops. If Options.MaintenanceInterval is
// positive the background maintenance loop starts immediately; stop
// it with Close.
func New(opt Options) *Router {
	r := newRouter(opt)
	r.publish([]*shard{newShard(r.opt, r.opt.diskFor(1), math.Inf(-1), math.Inf(1), nil)}, em.Stats{})
	r.observeFleetPeak()
	r.startMaintenance()
	return r
}

// Bulk builds a Router over pts, pre-partitioned into min(shards,
// MaxShards) equal quantile ranges (at least one point per shard).
// shards < 1 means "use the (defaulted) MaxShards". pts must satisfy
// the input contract (finite coordinates, distinct positions and
// scores) — the public topk layer validates before calling.
func Bulk(opt Options, pts []point.P, shards int) *Router {
	r := newRouter(opt)
	if shards < 1 || shards > r.opt.MaxShards {
		shards = r.opt.MaxShards
	}
	sorted := append([]point.P(nil), pts...)
	point.SortByX(sorted)
	r.publish(partition(r.opt, sorted, shards), em.Stats{})
	for _, p := range pts {
		r.scores[p.Score] = struct{}{}
	}
	r.n.Store(int64(len(pts)))
	r.observeFleetPeak()
	r.startMaintenance()
	return r
}

// Len returns the number of live points.
func (r *Router) Len() int { return int(r.n.Load()) }

// Insert adds p. Safe for concurrent use. Contract violations return
// sentinel errors before anything is mutated, in the same fixed order
// as core.Index.Insert: core.ErrInvalidPoint, then
// core.ErrDuplicatePosition (checked inside the owning shard), then
// core.ErrDuplicateScore (checked against the router-level score set,
// so an equal score on a DIFFERENT shard is caught too).
//
// All router methods unlock with defer, so even an internal invariant
// panic cannot wedge a shard for future requests.
func (r *Router) Insert(p point.P) error {
	overloaded, err := r.insertLocked(p)
	if err != nil {
		return err
	}
	if overloaded {
		r.splitOverloaded()
	}
	return nil
}

// insertLocked performs the insert under the topology read lock and
// reports whether the target shard came out overloaded.
func (r *Router) insertLocked(p point.P) (bool, error) {
	if !p.Finite() {
		return false, core.ErrInvalidPoint
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	t := r.snapshot()
	s := t.shards[t.locate(p.X)]
	ln, err := func() (int, error) {
		s.mu.Lock()
		defer s.mu.Unlock()
		return r.insertShard(s, p)
	}()
	if err != nil {
		return false, err
	}
	return r.overloaded(t, ln, r.n.Add(1)), nil
}

// insertShard applies the duplicate checks and the insert to s. The
// caller holds the topology read lock and s.mu — the shard lock
// serializes the position check with the insert, and the score
// reservation is atomic on its own mutex, so concurrent duplicate
// inserts race to exactly one success.
func (r *Router) insertShard(s *shard, p point.P) (int, error) {
	if s.ix.Has(p.X) {
		return 0, core.ErrDuplicatePosition
	}
	if !r.reserveScore(p.Score) {
		return 0, core.ErrDuplicateScore
	}
	if err := s.ix.Insert(p); err != nil {
		// Unreachable given the checks above, but never leak the claim.
		r.releaseScore(p.Score)
		return 0, err
	}
	return s.ix.Len(), nil
}

// Delete removes p, reporting whether it was present. Deletions are
// the mirror image of insertions: where Insert re-checks for an
// overloaded shard and splits, Delete re-checks for an underloaded one
// and merges it away.
func (r *Router) Delete(p point.P) bool {
	found, under := r.deleteLocked(p)
	if under {
		r.mergeUnderloaded()
	}
	return found
}

// deleteLocked performs the delete under the topology read lock and
// reports whether the target shard came out mergeable.
func (r *Router) deleteLocked(p point.P) (found, under bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	t := r.snapshot()
	si := t.locate(p.X)
	s := t.shards[si]
	ln, ok := func() (int, bool) {
		s.mu.Lock()
		defer s.mu.Unlock()
		if !s.ix.Delete(p) {
			return 0, false
		}
		return s.ix.Len(), true
	}()
	if !ok {
		return false, false
	}
	r.releaseScore(p.Score)
	return true, r.mergeable(t, si, ln, r.n.Add(-1))
}

// ApplyBatch applies ops concurrently, grouping them by target shard
// so each shard is locked once and ops on different shards run in
// parallel goroutines. Per-shard order follows batch order, so a batch
// is equivalent to some sequential interleaving of its ops (any two
// ops on different shards commute: shards hold disjoint position
// ranges). Note the interleaving is not chosen: an insert that reuses
// a score deleted on a DIFFERENT shard in the same batch races the
// delete and may be rejected — issue the deletes in their own batch
// first when recycling scores.
//
// The result reports one error per op: nil for an applied insert or a
// delete that found its point; core.ErrNotFound for a delete of an
// absent point; core.ErrInvalidPoint / core.ErrDuplicatePosition /
// core.ErrDuplicateScore for rejected inserts. A rejected op never
// mutates anything.
func (r *Router) ApplyBatch(ops []point.Op) []error {
	if len(ops) == 0 {
		return nil
	}
	res := make([]error, len(ops))
	over, under := r.applyBatchLocked(ops, res)
	if over {
		r.splitOverloaded()
	}
	if under {
		r.mergeUnderloaded()
	}
	return res
}

// applyBatchLocked runs the batch under the topology read lock and
// reports whether any touched shard came out overloaded or
// underloaded (splits run before merges; hysteresis in the merge pass
// guarantees the two cannot undo each other). The live counter is
// maintained per op so it stays accurate even if a worker panics
// mid-batch (internal invariant violations only; contract violations
// are rejected per op).
func (r *Router) applyBatchLocked(ops []point.Op, res []error) (over, under bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	t := r.snapshot()
	groups := make(map[int][]int, len(t.shards))
	for i, op := range ops {
		if !op.Delete && !op.Point().Finite() {
			// Reject inserts up front: a non-finite score would poison
			// the score set. Non-finite deletes fall through instead —
			// locate clamps NaN/±Inf to a shard and the exact-match
			// delete reports ErrNotFound, matching Index.ApplyBatch.
			res[i] = core.ErrInvalidPoint
			continue
		}
		si := t.locate(op.X)
		groups[si] = append(groups[si], i)
	}
	lens := make([]int, len(groups)) // final sizes of touched shards
	sis := make([]int, len(groups))  // their topology indexes
	fns := make([]func(), 0, len(groups))
	nextSlot := 0
	for si, idxs := range groups {
		s, idxs, slot := t.shards[si], idxs, nextSlot
		sis[slot] = si
		nextSlot++
		fns = append(fns, func() {
			s.mu.Lock()
			defer s.mu.Unlock()
			for _, i := range idxs {
				p := ops[i].Point()
				if ops[i].Delete {
					if s.ix.Delete(p) {
						r.releaseScore(p.Score)
						r.n.Add(-1)
					} else {
						res[i] = core.ErrNotFound
					}
					continue
				}
				if _, err := r.insertShard(s, p); err != nil {
					res[i] = err
				} else {
					r.n.Add(1)
				}
			}
			lens[slot] = s.ix.Len()
		})
	}
	merge.Parallel(fns)
	total := r.n.Load()
	for slot, ln := range lens {
		if r.overloaded(t, ln, total) {
			over = true
		}
		// All workers are done, so no shard mutex is held and
		// mergeable may probe neighbor sizes.
		if !under && r.mergeable(t, sis[slot], ln, total) {
			under = true
		}
	}
	return over, under
}

// CheckInvariants validates the topology (a contiguous cover of the
// line by 1..MaxShards shards, as maintained by splits, merges and
// rebalances), every shard's structures, that each live point lies
// inside its shard's range, and that the atomic live count and the
// fleet-wide score set match the shards (test helper; takes the write
// lock).
func (r *Router) CheckInvariants() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.snapshot()
	if t == nil {
		return fmt.Errorf("nil topology snapshot")
	}
	if len(t.shards) < 1 || len(t.shards) > r.opt.MaxShards {
		return fmt.Errorf("shard count %d outside [1, MaxShards=%d]", len(t.shards), r.opt.MaxShards)
	}
	// The write lock excludes all update paths, so each shard's
	// contents need extracting only once: range membership and score
	// registration are both checked off the same Live() slice. The
	// score set is read under scoreMu taken AFTER the shard mutex is
	// released — never nested with it, so the serving paths' s.mu →
	// scoreMu order has no mirror here.
	total := 0
	prevHi := math.Inf(-1)
	for i, s := range t.shards {
		if i == 0 {
			if !math.IsInf(s.lo, -1) {
				return fmt.Errorf("shard 0 lo = %v, want -Inf", s.lo)
			}
		} else if s.lo != prevHi {
			return fmt.Errorf("shard %d lo = %v, want previous hi %v", i, s.lo, prevHi)
		}
		if i == len(t.shards)-1 && !math.IsInf(s.hi, 1) {
			return fmt.Errorf("last shard hi = %v, want +Inf", s.hi)
		}
		var live []point.P
		if err := func() error {
			s.mu.Lock()
			defer s.mu.Unlock()
			if err := s.ix.CheckInvariants(); err != nil {
				return fmt.Errorf("shard %d: %w", i, err)
			}
			live = s.ix.Live()
			total += s.ix.Len()
			return nil
		}(); err != nil {
			return err
		}
		for _, p := range live {
			if p.X < s.lo || p.X >= s.hi {
				return fmt.Errorf("shard %d [%v,%v): stray point x=%v", i, s.lo, s.hi, p.X)
			}
		}
		r.scoreMu.Lock()
		for _, p := range live {
			if _, ok := r.scores[p.Score]; !ok {
				r.scoreMu.Unlock()
				return fmt.Errorf("live score %v missing from router score set", p.Score)
			}
		}
		r.scoreMu.Unlock()
		prevHi = s.hi
	}
	if int64(total) != r.n.Load() {
		return fmt.Errorf("live count %d != atomic n %d", total, r.n.Load())
	}
	r.scoreMu.Lock()
	defer r.scoreMu.Unlock()
	if len(r.scores) != total {
		return fmt.Errorf("score set has %d entries, want %d", len(r.scores), total)
	}
	return nil
}
