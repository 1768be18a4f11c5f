package shard

// This file is the LIFECYCLE layer of the router: the split/merge/
// rebalance policy, the passes that execute it under the topology
// write lock, and the background maintenance loop that runs the same
// passes on a timer so the fleet keeps adapting while traffic is idle.
//
// Policy evaluation happens in two places. The update paths observe
// conditions opportunistically (an insert re-checks its shard for
// overload, a delete for underload) and trigger a pass; the
// maintenance loop runs the full pass unconditionally every tick.
// The loop matters because the inline hooks only re-examine the shard
// an update just touched: a tiny shard whose merge was vetoed while
// its neighbor was heavy stays stranded after later deletes lighten
// that neighbor — no delete ever re-examines the tiny shard — until
// either the next delete lands on it or a maintenance tick sweeps the
// whole fleet.
//
// Every pass re-checks its policy under the write lock before acting:
// between the observation (made under a read lock or no lock at all)
// and the write lock, another goroutine may already have acted.
// Content scans (Live/Len/meters) take each shard's mutex even under
// the topology write lock, because snapshot-pinned readers may be
// querying the same shard concurrently.

import (
	"slices"
	"sort"
	"time"

	"repro/internal/point"
)

// splitSize reports whether a shard of size ln trips the split
// policy's size thresholds (the shard-count cap is checked
// separately): at least MinSplit points and more than skew times the
// fair share n/MaxShards.
func (r *Router) splitSize(ln int, total int64) bool {
	if ln < r.opt.MinSplit {
		return false
	}
	fair := float64(total) / float64(r.opt.MaxShards)
	return float64(ln) > skew*fair
}

// overloaded applies the split policy to a shard of size ln with the
// given live total, against the shard count of topology t.
func (r *Router) overloaded(t *topology, ln int, total int64) bool {
	return len(t.shards) < r.opt.MaxShards && r.splitSize(ln, total)
}

// underloaded applies the merge policy to a shard of size ln with the
// given live total: below the merge floor MinMerge a shard always
// qualifies; above it, only when it holds less than 1/skew of the
// fair share — the mirror image of the split trigger.
func (r *Router) underloaded(t *topology, ln int, total int64) bool {
	if r.opt.MinMerge < 0 || len(t.shards) <= 1 {
		return false
	}
	if ln < r.opt.MinMerge {
		return true
	}
	fair := float64(total) / float64(r.opt.MaxShards)
	return float64(ln) < fair/skew
}

// mergeable reports whether the shard at index si (now holding ln
// points) qualifies for a merge that some pass could actually
// perform: underloaded AND coalescing with at least one adjacent
// neighbor would survive the hysteresis veto. Checking the veto here,
// on the observation path, keeps a wedged shard — one whose only
// neighbors are too heavy to absorb it — from sending every
// subsequent delete through an exclusive write lock for a guaranteed
// no-op pass. Caller holds mu in read mode and no shard mutex (the
// neighbors' mutexes are taken briefly to read their sizes).
func (r *Router) mergeable(t *topology, si, ln int, total int64) bool {
	if !r.underloaded(t, ln, total) {
		return false
	}
	for _, ni := range [2]int{si - 1, si + 1} {
		if ni < 0 || ni >= len(t.shards) {
			continue
		}
		if !r.splitSize(ln+t.shards[ni].size(), total) {
			return true
		}
	}
	return false
}

// splitOverloaded re-checks the split policy under the write lock and
// splits every qualifying shard at its median position, publishing a
// new snapshot per split. Re-checking is required: between the
// observation and this write lock, another goroutine may already have
// split.
func (r *Router) splitOverloaded() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		t := r.snapshot()
		total := r.n.Load()
		i := slices.IndexFunc(t.shards, func(s *shard) bool { return r.overloaded(t, s.size(), total) })
		if i < 0 {
			return
		}
		r.repartition(t, i, i, 2)
		r.splits.Add(1)
	}
}

// mergeUnderloaded re-checks the merge policy under the write lock and
// coalesces qualifying shards with their neighbors until none
// qualifies. Re-checking is required for the same reason as in
// splitOverloaded: between the observation and this write lock,
// another goroutine may already have merged (or refilled the shard).
func (r *Router) mergeUnderloaded() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for r.mergeOnce() {
	}
}

// mergeOnce coalesces the smallest underloaded shard with its smaller
// adjacent neighbor and reports whether a merge happened. Candidates
// are tried smallest-first; one is skipped when the combined shard
// would itself trip the split policy's size test (the hysteresis that
// prevents split/merge flapping — e.g. an emptied shard wedged between
// two heavy ones stays put rather than fattening a neighbor the next
// insert would cut apart). Caller holds mu in write mode.
func (r *Router) mergeOnce() bool {
	t := r.snapshot()
	total := r.n.Load()
	sizes := make([]int, len(t.shards))
	for i, s := range t.shards {
		sizes[i] = s.size()
	}
	var cand []int
	for i, ln := range sizes {
		if r.underloaded(t, ln, total) {
			cand = append(cand, i)
		}
	}
	sort.Slice(cand, func(a, b int) bool { return sizes[cand[a]] < sizes[cand[b]] })
	for _, i := range cand {
		j := i - 1
		if i == 0 || (i+1 < len(t.shards) && sizes[i+1] < sizes[i-1]) {
			j = i + 1
		}
		if r.splitSize(sizes[i]+sizes[j], total) {
			continue
		}
		if j < i {
			i, j = j, i
		}
		r.repartition(t, i, j, 1)
		r.merges.Add(1)
		return true
	}
	return false
}

// repartition replaces shards i..j of snapshot t with want
// equal-quantile shards over their union range, built from their live
// points on pools sized for the fleet it leaves, and publishes the new
// snapshot with the replaced disks' transfer counters retired. A split
// replaces one shard with two, a merge two with one, Rebalance all of
// them with want. The rebuild is paid for by the updates that
// unbalanced the fleet, the same amortization as the paper's global
// rebuilding. It builds before it publishes, so a build that panics
// leaves the old snapshot and meters in place. Caller holds mu in
// write mode; t is the current snapshot.
func (r *Router) repartition(t *topology, i, j, want int) {
	var pts []point.P
	retired := t.retired
	for _, s := range t.shards[i : j+1] {
		pts = append(pts, s.live()...)
		retired = addStats(retired, transfers(s.meter()))
	}
	point.SortByX(pts)
	built := partition(r.opt, t.shards[i].lo, t.shards[j].hi, pts, want, len(t.shards)-(j-i+1))
	r.publish(slices.Concat(t.shards[:i], built, t.shards[j+1:]), retired)
	r.observeFleetPeak()
}

// Splits returns the number of shard splits since creation.
func (r *Router) Splits() int64 { return r.splits.Load() }

// Merges returns the number of shard merges since creation.
func (r *Router) Merges() int64 { return r.merges.Load() }

// Rebalance re-partitions the router into up to target equal quantile
// shards (capped at MaxShards; target < 1 means MaxShards), preserving
// contents exactly.
func (r *Router) Rebalance(target int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if target < 1 || target > r.opt.MaxShards {
		target = r.opt.MaxShards
	}
	t := r.snapshot()
	r.repartition(t, 0, len(t.shards)-1, target)
}

// Maintain runs one synchronous maintenance pass over the whole fleet:
// the merge pass, then the split pass — the same two passes the
// inline hooks run. It is exactly what the background loop runs every
// MaintenanceInterval; exposing it lets operators and tests drive the
// lifecycle deterministically.
func (r *Router) Maintain() {
	r.mergeUnderloaded()
	r.splitOverloaded()
}

// startMaintenance launches the background maintenance goroutine when
// Options.MaintenanceInterval is positive. Called once from the
// constructors before the router is shared.
func (r *Router) startMaintenance() {
	if r.opt.MaintenanceInterval <= 0 {
		return
	}
	r.maintStop = make(chan struct{})
	r.maintDone = make(chan struct{})
	go func() {
		defer close(r.maintDone)
		tick := time.NewTicker(r.opt.MaintenanceInterval)
		defer tick.Stop()
		for {
			select {
			case <-r.maintStop:
				return
			case <-tick.C:
				r.Maintain()
			}
		}
	}()
}

// Close stops the background maintenance goroutine and waits for it to
// exit. It is idempotent and safe to call on a router that never had a
// maintenance loop; the router keeps serving after Close — only the
// timer-driven passes stop.
func (r *Router) Close() error {
	r.closeOnce.Do(func() {
		if r.maintStop != nil {
			close(r.maintStop)
			<-r.maintDone
		}
	})
	return nil
}
