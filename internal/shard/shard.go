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
//   - execution (execute.go): the parallel fan-out answering
//     TopK/Count/QueryBatch over one pinned snapshot. A read's shards
//     append their answers, unsorted, into a pooled frame; the router
//     selects the k highest of their union once (point.Select) and
//     sorts only those, which gives exactly the unsharded structure's
//     descending-score answer (scores are distinct by the paper's
//     standing assumption, so the order is unique).
//   - lifecycle (lifecycle.go): the split/merge/rebalance policy, the
//     passes that execute it under the topology write lock, and the
//     background maintenance loop (Options.MaintenanceInterval /
//     Close) that runs the same merge and split passes over the whole
//     fleet on a timer, so a fleet left idle after heavy deletes
//     coalesces even when no traffic arrives to trigger the inline
//     hooks.
//
// This file holds what the layers share: Options, the shard and
// Router types, the constructors, the fleet-wide duplicate guard, and
// the one write path. Insert and Delete are one-op batches held on the
// stack, and they and ApplyBatch all run through apply: it groups the
// ops by shard, applies a one-shard batch on the caller's goroutine
// under that shard's mutex, and fans a wider batch out in parallel.
//
// Shards split when insertion skew concentrates too large a share of
// the live set in one of them (see skew): the overloaded
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
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/em"
	"repro/internal/merge"
	"repro/internal/point"
)

// skew is the split trigger: a shard splits when it holds more than
// skew times the fair share n/MaxShards of the live set. Measuring
// against the target fleet size rather than the current shard count
// lets a fresh single-shard router split its way to a balanced fleet
// as data arrives.
const skew = 2.0

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
	// MinSplit is the smallest shard size eligible for splitting
	// (default 512, at least 2), so tiny indexes stay on one machine.
	MinSplit int
	// MinMerge is the merge floor: a shard holding fewer points is
	// unconditionally considered underloaded and eligible for merging
	// with a neighbor. Above the floor, a shard is underloaded only
	// when it holds less than 1/skew of the fair share
	// n/MaxShards — the mirror image of the split trigger. The
	// absolute floor matters after heavy deletes: the fair share
	// itself shrinks with n, so without it a fleet of near-empty
	// shards would never coalesce. 0 means MinSplit/2 (at least 1);
	// negative disables merging entirely (splits still happen).
	//
	// Hysteresis against split/merge flapping is structural: a merge
	// is skipped when the combined shard would itself satisfy the
	// split policy's size test, so no merge can create a shard that an
	// insert would immediately cut back apart; and the default floor
	// of MinSplit/2 keeps the halves produced by a split (each at
	// least MinSplit/2 points) at or above the merge floor.
	MinMerge int
	// MaintenanceInterval, when positive, starts a background
	// goroutine at construction that runs Maintain every interval:
	// the merge pass, then the split pass, over the whole fleet. It
	// is how a fleet left idle after heavy deletes coalesces without
	// waiting for the next update to trip an inline hook. Stop it
	// with Close. 0 (the default) disables the loop; Maintain can
	// still be called manually.
	MaintenanceInterval time.Duration
}

func (o Options) withDefaults() Options {
	if o.MaxShards <= 0 {
		o.MaxShards = 8
	}
	if o.MinSplit <= 0 {
		o.MinSplit = 512
	}
	o.MinSplit = max(o.MinSplit, 2) // a split needs two points
	if o.MinMerge == 0 {
		o.MinMerge = max(o.MinSplit/2, 1)
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

	// guard is the fleet's one duplicate guard: every live position and
	// score across all shards, under its own mutex so parallel batch
	// workers on different shards can consult it. A shard's core.Index
	// checks nothing, and a shard sees only its own sub-range, so the
	// distinct-score contract can only be kept fleet-wide: an equal
	// score on a different shard would otherwise be accepted silently
	// and detonate when a later split or rebalance co-locates the pair.
	// Splits, merges and rebalances move points between shards without
	// touching it.
	guardMu sync.Mutex
	guard   core.Guard

	// Background maintenance loop state (lifecycle.go).
	maintStop chan struct{}
	maintDone chan struct{}
	closeOnce sync.Once
}

// newRouter allocates a Router with defaulted options and an empty
// guard — everything except the initial topology, which each
// constructor publishes itself.
func newRouter(opt Options) *Router {
	return &Router{opt: opt.withDefaults()}
}

// reserve claims p's position and score in the fleet guard for an
// in-flight insert, or returns the sentinel that rejects p.
func (r *Router) reserve(p point.P) error {
	r.guardMu.Lock()
	defer r.guardMu.Unlock()
	return r.guard.Reserve(p)
}

// release gives up the claim of a deleted point.
func (r *Router) release(p point.P) {
	r.guardMu.Lock()
	r.guard.Release(p)
	r.guardMu.Unlock()
}

// New returns an empty Router: one shard covering the whole line,
// which splits as skew develops. If Options.MaintenanceInterval is
// positive the background maintenance loop starts immediately; stop
// it with Close.
func New(opt Options) *Router {
	r, _ := Bulk(opt, nil, 1)
	return r
}

// Bulk builds a Router over pts, pre-partitioned into min(shards,
// MaxShards) equal quantile ranges (at least one point per shard).
// shards < 1 means "use the (defaulted) MaxShards". It checks the
// input contract as it fills the fleet guard, which a second goroutine
// does while this one copies pts and sorts the copy by position; it
// waits for both before it builds any shard, and returns
// core.Guard.Load's error, which wraps the sentinel and names the
// first offending point of pts.
func Bulk(opt Options, pts []point.P, shards int) (*Router, error) {
	r := newRouter(opt)
	if shards < 1 || shards > r.opt.MaxShards {
		shards = r.opt.MaxShards
	}
	loaded := make(chan error, 1)
	go func() { loaded <- r.guard.Load(pts) }()
	sorted := slices.Clone(pts)
	point.SortByX(sorted)
	if err := <-loaded; err != nil {
		return nil, err
	}
	r.publish(partition(r.opt, math.Inf(-1), math.Inf(1), sorted, shards, 0), em.Stats{})
	r.n.Store(int64(len(pts)))
	r.observeFleetPeak()
	r.startMaintenance()
	return r, nil
}

// Len returns the number of live points.
func (r *Router) Len() int { return int(r.n.Load()) }

// Insert adds p. Safe for concurrent use. Contract violations return
// the fleet guard's sentinel errors before anything is mutated, in
// core.Guard's fixed order: core.ErrInvalidPoint, then
// core.ErrDuplicatePosition, then core.ErrDuplicateScore, which
// catches an equal score on a DIFFERENT shard too. An applied insert
// re-checks its shard for overload and splits it.
//
// All router methods unlock with defer, so even an internal invariant
// panic cannot wedge a shard for future requests.
func (r *Router) Insert(p point.P) error {
	ops := [1]point.Op{{X: p.X, Score: p.Score}}
	var res [1]error
	if over, _ := r.apply(ops[:], res[:]); res[0] == nil && over {
		r.splitOverloaded()
	}
	return res[0]
}

// Delete removes p, reporting whether it was present. Deletions are
// the mirror image of insertions: where Insert re-checks for an
// overloaded shard and splits, Delete re-checks for an underloaded one
// and merges it away.
func (r *Router) Delete(p point.P) bool {
	ops := [1]point.Op{{Delete: true, X: p.X, Score: p.Score}}
	var res [1]error
	if _, under := r.apply(ops[:], res[:]); res[0] == nil && under {
		r.mergeUnderloaded()
	}
	return res[0] == nil
}

// ApplyBatch applies ops concurrently, grouping them by target shard
// so each shard is locked once and ops on different shards run in
// parallel goroutines. Per-shard order follows batch order, so a batch
// is equivalent to some sequential interleaving of its ops (any two
// ops on different shards commute: shards hold disjoint position
// ranges). Note the interleaving is not chosen: an insert that reuses
// a score deleted on a DIFFERENT shard in the same batch races the
// delete and may be rejected — issue the deletes in their own batch
// first when recycling scores. Every shard the batch touched is
// re-checked for overload and for underload, and splits run before
// merges; hysteresis in the merge pass guarantees the two cannot undo
// each other.
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
	over, under := r.apply(ops, res)
	if over {
		r.splitOverloaded()
	}
	if under {
		r.mergeUnderloaded()
	}
	return res
}

// task is one op of a batch on its way to its shard.
type task struct {
	op    point.Op
	i     int   // the op's index in the batch
	shard int   // the topology index of its shard
	err   error // its outcome
	size  int   // on a shard's first task: the shard's size after its ops
}

// apply is the one write path: it applies ops, at least one, under the
// topology read lock, writes one outcome per op into res, and reports
// whether any shard it touched came out overloaded or mergeable. A
// batch on one shard, as every single-op write is, runs on the
// caller's goroutine from a small stack array; a wider batch is
// grouped by shard in batch order (byShard) and its shards run in
// parallel. The live counter is maintained per op, so it stays
// accurate even if a shard panics mid-batch (internal invariant
// violations only; contract violations are rejected per op).
func (r *Router) apply(ops []point.Op, res []error) (over, under bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	t := r.snapshot()
	// locate clamps NaN/±Inf to a shard, which rejects a non-finite
	// insert in the guard and reports a non-finite delete as
	// ErrNotFound, matching Index.ApplyBatch.
	one := t.locate(ops[0].X)
	for _, op := range ops[1:] {
		if t.locate(op.X) != one {
			one = -1
			break
		}
	}
	var done []task
	if one >= 0 {
		var buf [16]task
		tasks := buf[:0]
		if len(ops) > len(buf) {
			tasks = make([]task, 0, len(ops))
		}
		for i, op := range ops {
			tasks = append(tasks, task{op: op, i: i, shard: one})
		}
		r.applyShard(t.shards[tasks[0].shard], tasks)
		done = tasks
	} else {
		work := byShard(t, ops)
		var fns []func()
		for rest := work; len(rest) > 0; {
			run := rest[:runLen(rest)]
			fns = append(fns, func() { r.applyShard(t.shards[run[0].shard], run) })
			rest = rest[len(run):]
		}
		merge.Parallel(fns)
		done = work
	}
	total := r.n.Load()
	for rest := done; len(rest) > 0; rest = rest[runLen(rest):] {
		first := rest[0]
		over = over || r.overloaded(t, first.size, total)
		// No shard mutex is held now, so mergeable may probe the
		// neighbors' sizes.
		under = under || r.mergeable(t, first.shard, first.size, total)
	}
	for _, tk := range done {
		res[tk.i] = tk.err
	}
	return over, under
}

// byShard returns ops as tasks grouped by shard, the shards in
// topology order and each shard's ops in batch order: a counting sort
// over t's shards, linear in the batch, which writes each task once.
func byShard(t *topology, ops []point.Op) []task {
	next := make([]int, len(t.shards)+1)
	for _, op := range ops {
		next[t.locate(op.X)+1]++
	}
	for si := 1; si < len(t.shards); si++ {
		next[si] += next[si-1]
	}
	out := make([]task, len(ops))
	for i, op := range ops {
		si := t.locate(op.X)
		out[next[si]] = task{op: op, i: i, shard: si}
		next[si]++
	}
	return out
}

// runLen returns how many tasks at the head of tasks share its first
// task's shard.
func runLen(tasks []task) int {
	n := 1
	for n < len(tasks) && tasks[n].shard == tasks[0].shard {
		n++
	}
	return n
}

// applyShard applies run, the ops of one batch on shard s, in order
// under s's mutex, recording each op's outcome and, on run[0], the
// shard's size after them. The caller holds the topology read lock.
// An insert claims its position and score in the fleet guard before it
// touches s; the claim is atomic on the guard's mutex, so concurrent
// inserts of one position or one score race to exactly one success,
// whichever shards they land on. A delete releases its claim once s
// found the point.
func (r *Router) applyShard(s *shard, run []task) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for j := range run {
		tk := &run[j]
		p := tk.op.Point()
		switch {
		case !tk.op.Delete:
			if tk.err = r.reserve(p); tk.err == nil {
				s.ix.Insert(p)
				r.n.Add(1)
			}
		case s.ix.Delete(p):
			r.release(p)
			r.n.Add(-1)
		default:
			tk.err = core.ErrNotFound
		}
	}
	run[0].size = s.ix.Len()
}

// CheckInvariants validates the topology (a contiguous cover of the
// line by 1..MaxShards shards, as maintained by splits, merges and
// rebalances), every shard's structures, that each live point lies
// inside its shard's range, that the atomic live count matches the
// shards, and that the fleet guard holds exactly the live positions
// and scores (test helper; takes the write lock).
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
	// contents need extracting only once: range membership and the
	// guard are both checked off the same Live() slices. The guard is
	// read under guardMu taken AFTER every shard mutex is released —
	// never nested with one, so the serving paths' s.mu → guardMu
	// order has no mirror here.
	var all []point.P
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
			if len(live) != s.ix.Len() {
				return fmt.Errorf("shard %d: Live has %d points, Len %d", i, len(live), s.ix.Len())
			}
			return nil
		}(); err != nil {
			return err
		}
		for _, p := range live {
			if p.X < s.lo || p.X >= s.hi {
				return fmt.Errorf("shard %d [%v,%v): stray point x=%v", i, s.lo, s.hi, p.X)
			}
		}
		all = append(all, live...)
		prevHi = s.hi
	}
	if int64(len(all)) != r.n.Load() {
		return fmt.Errorf("live count %d != atomic n %d", len(all), r.n.Load())
	}
	r.guardMu.Lock()
	defer r.guardMu.Unlock()
	if err := r.guard.Check(all); err != nil {
		return fmt.Errorf("fleet guard: %w", err)
	}
	return nil
}
