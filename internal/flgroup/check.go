package flgroup

import (
	"fmt"
	"math"

	"repro/internal/sketch"
)

// CheckInvariants verifies the compressed state against the B-trees,
// meter-free (test helper):
//
//   - sketch sizes match |G_i|; pivot counts match NumPivots;
//   - every pivot's stored global and local ranks are exact, and the
//     local rank lies in its window [base^(j−1), base^j);
//   - the prefix block holds exactly the global ranks of the top
//     min(prefLen, |G_i|) elements of each G_i, in order;
//   - the maxima block matches each G_i's maximum;
//   - |G| equals Σ|G_i|.
func (g *Group) CheckInvariants() error {
	s := emptySketches(g.f)
	g.decodeSketches(&s, g.blocks.Peek(g.skb))
	pref := make([][]int, g.f)
	g.decodePrefix(pref, g.blocks.Peek(g.pfb))
	mx := g.blocks.Peek(g.mxb)

	total := 0
	for i := 0; i < g.f; i++ {
		n := g.gis[i].Len()
		total += n
		if s.sizes[i] != n {
			return fmt.Errorf("set %d: sketch size %d, B-tree %d", i+1, s.sizes[i], n)
		}
		if want := sketch.NumPivots(n, g.base); len(s.piv[i]) != want {
			return fmt.Errorf("set %d: %d pivots, want %d", i+1, len(s.piv[i]), want)
		}
		for j, p := range s.piv[i] {
			v, ok := g.g.SelectDesc(p.G)
			if !ok {
				return fmt.Errorf("set %d pivot %d: global rank %d out of range", i+1, j+1, p.G)
			}
			if !g.gis[i].Contains(v) {
				return fmt.Errorf("set %d pivot %d: element %v not in G_%d", i+1, j+1, v, i+1)
			}
			if lr := g.gis[i].RankDesc(v); lr != p.L {
				return fmt.Errorf("set %d pivot %d: local rank %d, true %d", i+1, j+1, p.L, lr)
			}
			lo := sketch.WindowLo(j+1, g.base)
			if p.L < lo || p.L >= lo*g.base {
				return fmt.Errorf("set %d pivot %d: local rank %d outside [%d,%d)", i+1, j+1, p.L, lo, lo*g.base)
			}
		}
		wantPref := g.prefLen
		if n < wantPref {
			wantPref = n
		}
		if len(pref[i]) != wantPref {
			return fmt.Errorf("set %d: prefix len %d, want %d", i+1, len(pref[i]), wantPref)
		}
		for r, gr := range pref[i] {
			v, ok := g.gis[i].SelectDesc(r + 1)
			if !ok {
				return fmt.Errorf("set %d prefix %d: local select failed", i+1, r+1)
			}
			if got := g.g.RankDesc(v); got != gr {
				return fmt.Errorf("set %d prefix %d: stored global %d, true %d", i+1, r+1, gr, got)
			}
		}
		if n > 0 {
			m, _ := g.gis[i].Max()
			if math.Float64frombits(mx[i]) != m {
				return fmt.Errorf("set %d: maxima block %v, true %v", i+1, math.Float64frombits(mx[i]), m)
			}
		}
	}
	if total != g.g.Len() {
		return fmt.Errorf("|G|=%d, Σ|G_i|=%d", g.g.Len(), total)
	}
	return nil
}
