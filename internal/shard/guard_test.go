package shard

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/point"
	"repro/internal/workload"
)

// TestFleetGuardThroughLifecycle: the fleet guard holds exactly the
// live positions and scores after a load, inserts, deletes, a split, a
// merge and a rebalance, although no lifecycle pass touches it; and
// CheckInvariants fails when the guard differs from the live set in
// its positions alone or in its scores alone.
func TestFleetGuardThroughLifecycle(t *testing.T) {
	gen := workload.NewGen(51)
	pts := gen.Uniform(1000, 1e6)
	r := mustBulk(t, testOptions(4), pts, 2)
	live := append([]point.P(nil), pts...)
	check := func(phase string) {
		t.Helper()
		if err := r.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", phase, err)
		}
	}
	check("load")

	// Inserts crowd one narrow range until its shard splits.
	for _, p := range gen.Uniform(1200, 1e3) {
		if err := r.Insert(p); err != nil {
			t.Fatalf("Insert(%v): %v", p, err)
		}
		live = append(live, p)
	}
	if r.Splits() == 0 {
		t.Fatalf("no split after skewed inserts: %s", r)
	}
	check("inserts and a split")

	// Deleting all but a few points underloads shards until they merge.
	for _, p := range live[40:] {
		if !r.Delete(p) {
			t.Fatalf("Delete(%v) found nothing", p)
		}
	}
	live = live[:40]
	if r.Merges() == 0 {
		t.Fatalf("no merge after deletes: %s", r)
	}
	check("deletes and a merge")

	r.Rebalance(4)
	check("rebalance")

	// A freed position and score are free fleet-wide.
	if err := r.Insert(point.P{X: pts[900].X, Score: pts[900].Score}); err != nil {
		t.Fatalf("reinserting a deleted point: %v", err)
	}
	live = append(live, pts[900])
	check("reinsert")

	// The guard out of step with the shards, in its positions alone
	// (live[0]'s position dropped with a score no point has) or in its
	// scores alone (the reverse), fails the check. Each undo releases
	// the half of the restoring Reserve that no live point holds.
	for _, c := range []struct{ drop, undo point.P }{
		{point.P{X: live[0].X, Score: -1}, point.P{X: -2, Score: -1}},
		{point.P{X: -1, Score: live[0].Score}, point.P{X: -1, Score: -2}},
	} {
		r.guard.Release(c.drop)
		err := r.CheckInvariants()
		if err == nil || !strings.Contains(err.Error(), "fleet guard") {
			t.Fatalf("guard without %v: CheckInvariants = %v", c.drop, err)
		}
		if err := r.guard.Reserve(c.drop); err != nil {
			t.Fatal(err)
		}
		r.guard.Release(c.undo)
		check(fmt.Sprintf("guard restored after dropping %v", c.drop))
	}
}

// TestGuardRace: concurrent inserts of one position (one shard) and of
// one score (different shards), through Insert and ApplyBatch alike,
// race on the fleet guard's mutex to exactly one success each round;
// every loser gets the sentinel of the coordinate it lost on, and Len
// counts the winners. Run it under -race.
func TestGuardRace(t *testing.T) {
	const rounds, racers = 30, 8
	pts := workload.NewGen(53).Uniform(2000, 1e6)
	r := mustBulk(t, testOptions(4), pts, 4)
	cuts := r.Boundaries()
	for round := range rounds {
		// The loaded scores lie in [0, 1), so every racer's score is
		// free, and no loaded point of this seed sits at a racer's
		// position.
		x := 500 + float64(round) + 0.25 // one shard: below the first cut
		s := 10 + float64(round)
		pos := make([]point.P, racers)
		sc := make([]point.P, racers)
		for i := range racers {
			pos[i] = point.P{X: x, Score: 100 + float64(round*racers+i)}
			// Spread the score racers over every shard: one at the left
			// of each cut, one beyond the data.
			sx := 2e6 + float64(round*racers+i)
			if c := i % (len(cuts) + 1); c < len(cuts) {
				sx = cuts[c] - 1 - float64(round*racers+i)/1e3
			}
			sc[i] = point.P{X: sx, Score: s}
		}
		errs := make([]error, 2*racers)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i, p := range append(pos, sc...) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if i%2 == 0 {
					errs[i] = r.Insert(p)
				} else {
					errs[i] = r.ApplyBatch([]point.Op{{X: p.X, Score: p.Score}})[0]
				}
			}()
		}
		close(start)
		wg.Wait()
		for half, race := range []struct {
			name string
			want error
		}{{"position", core.ErrDuplicatePosition}, {"score", core.ErrDuplicateScore}} {
			wins := 0
			for _, err := range errs[half*racers : (half+1)*racers] {
				switch {
				case err == nil:
					wins++
				case !errors.Is(err, race.want):
					t.Fatalf("round %d: %s racer error %v, want nil or %v", round, race.name, err, race.want)
				}
			}
			if wins != 1 {
				t.Fatalf("round %d: %d inserts won the %s race, want 1", round, wins, race.name)
			}
		}
		if got, want := r.Len(), len(pts)+2*(round+1); got != want {
			t.Fatalf("round %d: Len = %d, want %d", round, got, want)
		}
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := r.Count(math.Inf(-1), math.Inf(1)); got != r.Len() {
		t.Fatalf("Count = %d, Len = %d", got, r.Len())
	}
}
