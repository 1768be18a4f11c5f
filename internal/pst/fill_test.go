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
// below: together they pin every pilot.
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
				level := p.tstore.Peek(h).level
				p.rebuildSubtree(h)
				if err := p.CheckInvariants(); err != nil {
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
