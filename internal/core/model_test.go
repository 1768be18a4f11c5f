package core

import (
	"testing"

	"repro/internal/em"
	"repro/internal/workload"
)

// pinnedWorkload is TestIOCountsPinned's workload: §2 queries (k at or
// above the threshold), §3.3 small-k queries and a short insert/delete
// stream, run in one sequence on a pool far smaller than the data, so
// every phase starts from the pool state the previous one left. Each
// phase carries the reads and writes it is pinned to and the blocks
// live after it.
func pinnedWorkload(t *testing.T) (*em.Disk, []pinnedPhase) {
	d := em.NewDisk(em.Config{B: 16, M: 8 * 16})
	gen := workload.NewGen(5)
	ix := Bulk(d, testOpts(), gen.Uniform(4000, 1e6))
	d.DropCache()
	if k := ix.KThreshold(); k != 208 {
		t.Fatalf("KThreshold = %d; the §2 queries below assume 208", k)
	}
	query := func(x1, x2 float64, k int) func() {
		return func() { ix.Query(x1, x2, k) }
	}
	ops := gen.Mix(300, 40, 0.5, 1e6)
	updates := func() {
		for _, op := range ops {
			if op.Delete {
				if !ix.Delete(op.Point()) {
					t.Fatalf("delete of %+v found nothing", op.Point())
				}
			} else {
				ix.Insert(op.Point())
			}
		}
		d.DropCache() // charge the write-back of everything dirty
	}
	const built, updated = 4547, 5387 // blocks live after the build and after the updates
	return d, []pinnedPhase{
		{"build", func() {}, 0, 0, built},
		{"§2 wide", query(1e5, 6e5, 300), 422, 0, built},
		{"§2 whole line", query(0, 1e6, 1000), 1339, 0, built},
		{"§2 narrow", query(2e5, 2.6e5, 250), 308, 0, built},
		{"small k=1", query(1e5, 6e5, 1), 47, 0, built},
		{"small k=10", query(3e5, 3.4e5, 10), 76, 0, built},
		{"small k=60 whole line", query(0, 1e6, 60), 555, 0, built},
		{"updates", updates, 25433, 19206, updated},
		{"§2 after updates", query(1e5, 9e5, 400), 602, 0, updated},
		{"small k after updates", query(1e5, 9e5, 20), 103, 0, updated},
	}
}

type pinnedPhase struct {
	name          string
	run           func()
	reads, writes int64
	live          int64
}

// TestIOCountsPinned pins the cost model: the exact block reads and
// writes of pinnedWorkload's phases, and the blocks live after each. A
// change to how the engine or the pool is implemented must leave every
// number here as it is; a change that means to move the model updates
// them and says why.
func TestIOCountsPinned(t *testing.T) {
	d, phases := pinnedWorkload(t)
	for _, ph := range phases {
		before := d.Stats()
		ph.run()
		got := d.Stats().Sub(before)
		t.Logf("%s: reads=%d writes=%d live=%d", ph.name, got.Reads, got.Writes, got.BlocksLive)
		if got.Reads != ph.reads || got.Writes != ph.writes || got.BlocksLive != ph.live {
			t.Errorf("%s: reads=%d writes=%d live=%d, want reads=%d writes=%d live=%d",
				ph.name, got.Reads, got.Writes, got.BlocksLive, ph.reads, ph.writes, ph.live)
		}
	}
}

// TestPerStoreCountsSumToStats: over pinnedWorkload, the per-store
// meter accounts for every read, write and live block of the disk's.
func TestPerStoreCountsSumToStats(t *testing.T) {
	d, phases := pinnedWorkload(t)
	for _, ph := range phases {
		ph.run()
		var sum em.StoreStats
		for _, st := range d.PerStore() {
			sum.Reads += st.Reads
			sum.Writes += st.Writes
			sum.BlocksLive += st.BlocksLive
		}
		all := d.Stats()
		if sum.Reads != all.Reads || sum.Writes != all.Writes || sum.BlocksLive != all.BlocksLive {
			t.Fatalf("after %s: stores sum to reads=%d writes=%d live=%d, disk has reads=%d writes=%d live=%d",
				ph.name, sum.Reads, sum.Writes, sum.BlocksLive, all.Reads, all.Writes, all.BlocksLive)
		}
	}
}

// TestWarmQueryAllocatesOnlyItsAnswer: once the structures' query
// scratch has grown, a query allocates exactly one slice, the answer it
// returns. It holds in both regimes, whether the small-k selection goes
// through multi-slabs (AURS and its fallbacks) or boundary leaves only,
// and when fewer than k points qualify.
func TestWarmQueryAllocatesOnlyItsAnswer(t *testing.T) {
	d := em.NewDisk(em.Config{B: 16, M: 8 * 16})
	ix := Bulk(d, testOpts(), workload.NewGen(6).Uniform(4000, 1e6))
	for _, q := range []struct {
		name   string
		x1, x2 float64
		k      int
	}{
		{"§2", 1e5, 6e5, 300},
		{"§2 whole line", 0, 1e6, 1000},
		{"small k over many leaves", 0, 1e6, 60},
		{"small k in one leaf", 3e5, 3.02e5, 2},
		{"fewer than k in range", 5e5, 5.005e5, 100},
	} {
		if len(ix.Query(q.x1, q.x2, q.k)) == 0 {
			t.Fatalf("%s: empty answer", q.name)
		}
		if allocs := testing.AllocsPerRun(20, func() { ix.Query(q.x1, q.x2, q.k) }); allocs != 1 {
			t.Errorf("%s: warm Query allocates %.1f/op, want 1 (the answer)", q.name, allocs)
		}
	}
}
