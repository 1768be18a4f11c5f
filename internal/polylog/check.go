package polylog

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/em"
	"repro/internal/point"
)

// CheckInvariants validates the §3.3 structure against first principles
// (test helper):
//
//   - base-tree shape: slab partition, parent links, weights;
//   - every leaf's [14] structure holds exactly the leaf's points;
//   - every non-root node's G set, its set in its parent's flgroup, is
//     exactly the top min(c2·l, weight) scores of its subtree
//     (delegating the flgroups' own checks to flgroup.CheckInvariants);
//   - exactly the internal nodes have a flgroup.
func (t *Tree) CheckInvariants() error {
	internals := 0
	var rec func(h em.Handle, lo, hi float64) ([]float64, error)
	rec = func(h em.Handle, lo, hi float64) ([]float64, error) {
		nd := t.store.Peek(h)
		if nd.lo != lo || nd.hi != hi {
			return nil, fmt.Errorf("node %d slab [%v,%v) want [%v,%v)", h, nd.lo, nd.hi, lo, hi)
		}
		var scores []float64
		if nd.leaf {
			pts := t.leafAll(h)
			sorted := append([]point.P(nil), pts...)
			point.SortByX(sorted)
			for i := range pts {
				if pts[i] != sorted[i] {
					return nil, fmt.Errorf("leaf %d chunks out of x order", h)
				}
			}
			if len(pts) != nd.weight {
				return nil, fmt.Errorf("leaf %d weight %d, holds %d", h, nd.weight, len(pts))
			}
			for _, p := range pts {
				if p.X < lo || p.X >= hi {
					return nil, fmt.Errorf("leaf %d point %v outside slab", h, p)
				}
				scores = append(scores, p.Score)
			}
		} else {
			fl, ok := t.fl[h]
			if !ok {
				return nil, fmt.Errorf("internal %d missing flgroup", h)
			}
			if err := fl.CheckInvariants(); err != nil {
				return nil, fmt.Errorf("internal %d flgroup: %w", h, err)
			}
			if fl.F() != len(nd.kids) {
				return nil, fmt.Errorf("internal %d: flgroup of %d sets for %d children", h, fl.F(), len(nd.kids))
			}
			internals++
			w := 0
			for j, kid := range nd.kids {
				clo := nd.kidLo[j]
				chi := hi
				if j+1 < len(nd.kids) {
					chi = nd.kidLo[j+1]
				}
				cn := t.store.Peek(kid)
				if cn.parent != h || cn.childIdx != j {
					return nil, fmt.Errorf("node %d kid %d bad link", h, j)
				}
				sub, err := rec(kid, clo, chi)
				if err != nil {
					return nil, err
				}
				w += cn.weight
				scores = append(scores, sub...)
				// Set j+1 is the child's G set: the top min(c2·l,
				// weight) scores of its subtree.
				want := t.topOf(slices.Sorted(slices.Values(sub)))
				if got := fl.KeysOf(j + 1); !slices.Equal(got, want) {
					return nil, fmt.Errorf("node %d set %d (child %d's G set) holds %d scores, want the top %d of its subtree",
						h, j+1, kid, len(got), len(want))
				}
			}
			if nd.weight != w {
				return nil, fmt.Errorf("node %d weight %d, children sum %d", h, nd.weight, w)
			}
		}
		return scores, nil
	}
	scores, err := rec(t.root, math.Inf(-1), math.Inf(1))
	if err != nil {
		return err
	}
	if len(scores) != t.n {
		return fmt.Errorf("n=%d, counted %d", t.n, len(scores))
	}
	if len(t.fl) != internals {
		return fmt.Errorf("%d flgroups for %d internal nodes", len(t.fl), internals)
	}
	return nil
}

// Live returns all live points (test helper; full scan).
func (t *Tree) Live() []point.P {
	var out []point.P
	var rec func(h em.Handle)
	rec = func(h em.Handle) {
		nd := t.store.Peek(h)
		if nd.leaf {
			out = append(out, t.leafAll(h)...)
			return
		}
		for _, kid := range nd.kids {
			rec(kid)
		}
	}
	rec(t.root)
	return out
}
