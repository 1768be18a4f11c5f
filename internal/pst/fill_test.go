package pst

import (
	"fmt"
	"testing"

	"repro/internal/em"
	"repro/internal/point"
)

// TestFillPinsEveryPilot checks the top-down pilot fill after a bulk
// build and after forced subtree rebuilds. A fill creates no tokens, so
// with TrackTokens on, CheckInvariants' Lemma 3 checks require every
// internal pilot to hold exactly B points unless its subtree below is
// empty, and its layering check requires them to be the highest ones
// below: together they pin every pilot's points. checkFillOrder pins
// their order inside each record: descending score in internal
// pilots, x order at T leaves.
func TestFillPinsEveryPilot(t *testing.T) {
	// {PilotB: 4} asks for PilotB below Branch/2 (Branch = B = 16): a T
	// leaf may hold more than 2·PilotB points, which once made the
	// inserts below push down out of a leaf.
	for _, o := range []Options{{}, {PilotB: 4, Branch: 8}, {Branch: 4}, {PilotB: 8, Branch: 4}, {PilotB: 4}} {
		o.TrackTokens = true
		for _, n := range []int{1, 7, 64, 500, 3000} {
			name := fmt.Sprintf("%+v/n=%d", o, n)
			pts := genPoints(n+40, int64(n))
			p := Bulk(newDisk(16), o, pts[:n])
			if err := p.CheckInvariants(); err != nil {
				t.Fatalf("%s: after Bulk: %v", name, err)
			}
			if err := checkFillOrder(p, p.root); err != nil {
				t.Fatalf("%s: after Bulk: %v", name, err)
			}
			// Churn first, so the rebuilt subtree holds stale
			// x-coordinates and the pilots around it carry tokens.
			live := append([]point.P(nil), pts[:n]...)
			for i, q := range pts[n:] {
				p.Insert(q)
				live = append(live, q)
				if i%3 == 0 {
					if !p.Delete(live[0]) {
						t.Fatalf("%s: delete of %v failed", name, live[0])
					}
					live = live[1:]
				}
			}
			for _, h := range rebuildTargets(p) {
				nd := p.tstore.Peek(h)
				level, parent, childIdx := nd.level, nd.parent, nd.childIdx
				p.rebuildSubtree(h)
				if err := p.CheckInvariants(); err != nil {
					t.Fatalf("%s: after rebuilding a level-%d subtree: %v", name, level, err)
				}
				fresh := p.root
				if parent != em.NilHandle {
					fresh = p.tstore.Peek(parent).kids[childIdx]
				}
				if err := checkFillOrder(p, fresh); err != nil {
					t.Fatalf("%s: after rebuilding a level-%d subtree: %v", name, level, err)
				}
			}
			if !sameSet(p.Live(), live) {
				t.Fatalf("%s: rebuilds changed the point set", name)
			}
		}
	}
}

// rebuildTargets returns the root and its first child (when the root is
// internal), so both rebuildSubtree paths run: the one that replaces
// the root and the one that splices under a parent.
func rebuildTargets(p *PST) []em.Handle {
	nd := p.tstore.Peek(p.root)
	if nd.level == 0 {
		return []em.Handle{p.root}
	}
	return []em.Handle{nd.kids[0], p.root}
}

// checkFillOrder reports the first pilot record under h whose points
// are out of the fill's order: descending score in an internal T̂
// node's pilot, ascending x in a T leaf's.
func checkFillOrder(p *PST, h em.Handle) error {
	nd := p.tstore.Peek(h)
	for i, m := range nd.vs {
		if m.pilot == em.NilHandle {
			continue
		}
		ps := p.pstore.Peek(m.pilot)
		for j := 1; j < len(ps); j++ {
			if nd.level == 0 && ps[j-1].X >= ps[j].X {
				return fmt.Errorf("T leaf pilot not in x order at %d: %v then %v", j, ps[j-1], ps[j])
			}
			if nd.level > 0 && ps[j-1].Score <= ps[j].Score {
				return fmt.Errorf("level-%d pilot %d not in descending score at %d: %v then %v", nd.level, i, j, ps[j-1], ps[j])
			}
		}
	}
	for _, kid := range nd.kids {
		if err := checkFillOrder(p, kid); err != nil {
			return err
		}
	}
	return nil
}
