package polylog

import (
	"fmt"
	"sort"

	"repro/internal/em"
	"repro/internal/point"
)

// Leaf storage: a leaf node's points live in x-sorted chunks of at most
// chunkCap points (one block each), addressed through the leaf node's
// kids/kidLo arrays. An update touches one chunk (O(1) I/Os); a
// boundary-range read touches only the overlapping chunks.
//
// The paper places a full structure of [14] at every leaf because its
// leaves hold b = f·l·B points and need in-leaf approximate range
// k-selection in O(log_B b) I/Os. Our leaf selection reads the
// overlapping chunks and selects exactly in memory, costing
// O(|leaf ∩ q|/B + log) I/Os — identical for boundary leaves, whose
// qualifying portion a reporting query pays for anyway, and strictly
// better on updates (the toplists reconstruction of our [14] substitute
// would cost O(K/B) per update; see DESIGN.md substitution 3).

// chunkCap returns the points per chunk (one block).
func (t *Tree) chunkCap() int {
	c := (t.d.B() - 1) / point.WordSize
	if c < 4 {
		c = 4
	}
	return c
}

// leafInsert adds p to leaf h, splitting its chunk if needed.
func (t *Tree) leafInsert(h em.Handle, p point.P) {
	nd := t.store.Read(h)
	if len(nd.kids) == 0 {
		ch := t.chunks.Alloc([]point.P{p})
		nd.kids = []em.Handle{ch}
		nd.kidLo = []float64{nd.lo}
		t.store.Write(h, nd)
		return
	}
	j := routeKid(nd, p.X)
	ps := t.chunks.Read(nd.kids[j])
	i := sort.Search(len(ps), func(i int) bool { return ps[i].X >= p.X })
	if i < len(ps) && ps[i].X == p.X {
		panic(fmt.Sprintf("polylog: duplicate x %v", p.X))
	}
	ps = append(ps, point.P{})
	copy(ps[i+1:], ps[i:])
	ps[i] = p
	if len(ps) <= t.chunkCap() {
		t.chunks.Write(nd.kids[j], ps)
		return
	}
	mid := len(ps) / 2
	right := append([]point.P(nil), ps[mid:]...)
	t.chunks.Write(nd.kids[j], append([]point.P(nil), ps[:mid]...))
	rh := t.chunks.Alloc(right)
	nd.kids = append(nd.kids, em.NilHandle)
	nd.kidLo = append(nd.kidLo, 0)
	copy(nd.kids[j+2:], nd.kids[j+1:])
	copy(nd.kidLo[j+2:], nd.kidLo[j+1:])
	nd.kids[j+1] = rh
	nd.kidLo[j+1] = right[0].X
	t.store.Write(h, nd)
}

// leafDelete removes p from leaf h, reporting presence. Emptied chunks
// are retired.
func (t *Tree) leafDelete(h em.Handle, p point.P) bool {
	nd := t.store.Read(h)
	if len(nd.kids) == 0 {
		return false
	}
	j := routeKid(nd, p.X)
	ps := t.chunks.Read(nd.kids[j])
	for i, q := range ps {
		if q.X == p.X && q.Score == p.Score {
			ps = append(ps[:i], ps[i+1:]...)
			if len(ps) == 0 && len(nd.kids) > 1 {
				t.chunks.Free(nd.kids[j])
				nd.kids = append(nd.kids[:j], nd.kids[j+1:]...)
				nd.kidLo = append(nd.kidLo[:j], nd.kidLo[j+1:]...)
				nd.kidLo[0] = nd.lo
				t.store.Write(h, nd)
			} else {
				t.chunks.Write(nd.kids[j], ps)
			}
			return true
		}
	}
	return false
}

// leafInRange appends to dst the leaf's points with x ∈ [x1, x2],
// reading only overlapping chunks.
func (t *Tree) leafInRange(dst []point.P, h em.Handle, x1, x2 float64) []point.P {
	nd := t.store.Read(h)
	for j, ch := range nd.kids {
		if clo, chi := kidSlab(nd, j); chi <= x1 || clo > x2 {
			continue
		}
		for _, p := range t.chunks.Read(ch) {
			if p.In(x1, x2) {
				dst = append(dst, p)
			}
		}
	}
	return dst
}

// leafAll returns every point of the leaf.
func (t *Tree) leafAll(h em.Handle) []point.P {
	nd := t.store.Read(h)
	var out []point.P
	for _, ch := range nd.kids {
		out = append(out, t.chunks.Read(ch)...)
	}
	return out
}

// leafCount counts the leaf's points in [x1, x2], reading the chunks
// leafInRange reads.
func (t *Tree) leafCount(h em.Handle, x1, x2 float64) int {
	nd := t.store.Read(h)
	n := 0
	for j, ch := range nd.kids {
		if clo, chi := kidSlab(nd, j); chi <= x1 || clo > x2 {
			continue
		}
		for _, p := range t.chunks.Read(ch) {
			if p.In(x1, x2) {
				n++
			}
		}
	}
	return n
}

// leafSelect returns the point of exact score-rank k among the leaf's
// points in [x1, x2].
func (t *Tree) leafSelect(h em.Handle, x1, x2 float64, k int) (point.P, bool) {
	t.qs.in = t.leafInRange(t.qs.in[:0], h, x1, x2)
	in := t.qs.in
	if len(in) < k || k < 1 {
		return point.P{}, false
	}
	point.SortByScoreDesc(in)
	return in[k-1], true
}

// leafLen returns the number of points stored at the leaf.
func (t *Tree) leafLen(h em.Handle) int {
	nd := t.store.Read(h)
	n := 0
	for _, ch := range nd.kids {
		n += len(t.chunks.Read(ch))
	}
	return n
}

// setLeafPoints bulk-loads pts (sorted by x) into half-full chunks of a
// fresh leaf.
func (t *Tree) setLeafPoints(h em.Handle, pts []point.P) {
	nd := t.store.Read(h)
	per := t.chunkCap() / 2
	if per < 1 {
		per = 1
	}
	for i := 0; i < len(pts); i += per {
		end := i + per
		if end > len(pts) {
			end = len(pts)
		}
		ch := t.chunks.Alloc(append([]point.P(nil), pts[i:end]...))
		lo := nd.lo
		if i > 0 {
			lo = pts[i].X
		}
		nd.kids = append(nd.kids, ch)
		nd.kidLo = append(nd.kidLo, lo)
	}
	t.store.Write(h, nd)
}

// freeLeafChunks releases the leaf's chunk records.
func (t *Tree) freeLeafChunks(h em.Handle) {
	nd := t.store.Read(h)
	for _, ch := range nd.kids {
		t.chunks.Free(ch)
	}
}
