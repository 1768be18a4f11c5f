package core

import (
	"testing"

	"repro/internal/em"
	"repro/internal/workload"
)

// TestIOCountsPinned pins the cost model: the exact block reads and
// writes of a fixed workload on a pool far smaller than the data. It
// runs §2 queries (k at or above the threshold), §3.3 small-k queries
// and a short insert/delete stream in one sequence, so every phase
// starts from the pool state the previous one left. A change to how
// the engine or the pool is implemented must leave every number here
// as it is; a change that means to move the model updates them and
// says why.
func TestIOCountsPinned(t *testing.T) {
	d := em.NewDisk(em.Config{B: 16, M: 8 * 16})
	gen := workload.NewGen(5)
	ix := Bulk(d, testOpts(), gen.Uniform(4000, 1e6))
	d.DropCache()
	if k := ix.KThreshold(); k != 208 {
		t.Fatalf("KThreshold = %d; the §2 queries below assume 208", k)
	}

	type phase struct {
		name          string
		run           func()
		reads, writes int64
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
			} else if err := ix.Insert(op.Point()); err != nil {
				t.Fatal(err)
			}
		}
		d.DropCache() // charge the write-back of everything dirty
	}
	phases := []phase{
		{"§2 wide", query(1e5, 6e5, 300), 3705, 0},
		{"§2 whole line", query(0, 1e6, 1000), 7565, 0},
		{"§2 narrow", query(2e5, 2.6e5, 250), 406, 0},
		{"small k=1", query(1e5, 6e5, 1), 90, 0},
		{"small k=10", query(3e5, 3.4e5, 10), 109, 0},
		{"small k=60 whole line", query(0, 1e6, 60), 697, 0},
		{"updates", updates, 32877, 23966},
		{"§2 after updates", query(1e5, 9e5, 400), 6168, 0},
		{"small k after updates", query(1e5, 9e5, 20), 159, 0},
	}
	for _, ph := range phases {
		before := d.Stats()
		ph.run()
		got := d.Stats().Sub(before)
		t.Logf("%s: reads=%d writes=%d", ph.name, got.Reads, got.Writes)
		if got.Reads != ph.reads || got.Writes != ph.writes {
			t.Errorf("%s: reads=%d writes=%d, want reads=%d writes=%d",
				ph.name, got.Reads, got.Writes, ph.reads, ph.writes)
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
