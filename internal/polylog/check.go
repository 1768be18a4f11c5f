package polylog

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/em"
	"repro/internal/point"
)

// CheckInvariants validates the §3.3 structure against first principles
// (meter-free test helper):
//
//   - base-tree shape: slab partition, parent links, weights;
//   - every leaf's [14] structure holds exactly the leaf's points;
//   - G_u is exactly the top min(c2·l, weight) scores of u's subtree;
//   - each internal node's flgroup mirrors its children's G sets
//     (delegating deep checks to flgroup.CheckInvariants).
func (t *Tree) CheckInvariants() error {
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
				// flgroup set j+1 must equal the child's G set.
				kg := t.gu[kid].Keys()
				if fl.SizeOf(j+1) != len(kg) {
					return nil, fmt.Errorf("node %d set %d size %d, child G %d",
						h, j+1, fl.SizeOf(j+1), len(kg))
				}
				for _, s := range kg {
					if !fl.Contains(j+1, s) {
						return nil, fmt.Errorf("node %d set %d missing score %v", h, j+1, s)
					}
				}
			}
			if nd.weight != w {
				return nil, fmt.Errorf("node %d weight %d, children sum %d", h, nd.weight, w)
			}
		}
		// G_u = top min(c2·l, |subtree|) scores of the subtree.
		sorted := append([]float64(nil), scores...)
		sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
		want := t.guCap()
		if len(sorted) < want {
			want = len(sorted)
		}
		gk := t.gu[h].Keys()
		if len(gk) != want {
			return nil, fmt.Errorf("node %d |G_u|=%d want %d", h, len(gk), want)
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(gk)))
		for i := 0; i < want; i++ {
			if gk[i] != sorted[i] {
				return nil, fmt.Errorf("node %d G_u entry %d: %v want %v", h, i, gk[i], sorted[i])
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
