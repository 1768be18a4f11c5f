package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"time"

	topk "repro"
	"repro/internal/aurs"
	"repro/internal/core"
	"repro/internal/em"
	"repro/internal/flgroup"
	"repro/internal/heap"
	"repro/internal/obs"
	"repro/internal/point"
	"repro/internal/pst"
	"repro/internal/ram"
	"repro/internal/shengtao"
	"repro/internal/sketch"
	"repro/internal/workload"
	"repro/internal/workload/driver"
)

func logB(n, b int) float64 {
	v := math.Log(float64(n)) / math.Log(float64(b))
	if v < 1 {
		return 1
	}
	return v
}

func lg2(n int) float64 {
	v := math.Log2(float64(n))
	if v < 1 {
		return 1
	}
	return v
}

// newDisk allocates a bench machine: the pool holds 256 blocks, a
// realistic M/B ratio that lets O(1)-block node records be re-read from
// memory within one operation while still forcing disk traffic across
// operations.
func newDisk(b int) *em.Disk { return em.NewDisk(em.Config{B: b, M: 256 * b}) }

func coreOpts() core.Options {
	return core.Options{Regime: core.RegimePolylog, PolylogF: 8, PolylogLeafCap: 2048}
}

// coldQuery measures mean cold-cache read I/Os of fn over reps runs.
func coldQuery(d *em.Disk, reps int, fn func(i int)) float64 {
	d.DropCache()
	base := d.Stats()
	for i := 0; i < reps; i++ {
		fn(i)
		d.DropCache()
	}
	return float64(d.Stats().Sub(base).Reads) / float64(reps)
}

// storeCols name the per-store columns of the engine tables: the §2
// PST's T-node and pilot stores, then the §3.3 tree's node and leaf
// chunk stores and its (f,l)-groups' stores, which hold every G set
// once (a node's set lives in its parent's group; the root has none).
var storeCols = []string{"pst.t", "pst.pilot", "pl.node", "pl.chunk", "flg"}

// storeCol returns the column of the store named name. It panics on a
// store outside storeCols, so a table cannot drop a store's share.
func storeCol(name string) int {
	if strings.HasPrefix(name, "flg.") {
		name = "flg"
	}
	if c := slices.Index(storeCols, name); c >= 0 {
		return c
	}
	panic(fmt.Sprintf("store %q has no column in the engine tables", name))
}

// storeSplit sums one field of d's per-store meter into storeCols.
func storeSplit(d *em.Disk, field func(em.StoreStats) int64) []int64 {
	out := make([]int64, len(storeCols))
	for _, st := range d.PerStore() {
		out[storeCol(st.Name)] += field(st)
	}
	return out
}

func readsOf(st em.StoreStats) int64  { return st.Reads }
func iosOf(st em.StoreStats) int64    { return st.Reads + st.Writes }
func blocksOf(st em.StoreStats) int64 { return st.BlocksLive }

// coldQuerySplit is coldQuery that also returns the mean reads charged
// to each of storeCols.
func coldQuerySplit(d *em.Disk, reps int, fn func(i int)) (float64, []float64) {
	before := storeSplit(d, readsOf)
	reads := coldQuery(d, reps, fn)
	split := make([]float64, len(storeCols))
	for c, r := range storeSplit(d, readsOf) {
		split[c] = float64(r-before[c]) / float64(reps)
	}
	return reads, split
}

// ---------------------------------------------------------------- E1

func e1(quick bool) {
	ns := []int{1 << 13, 1 << 15, 1 << 17}
	ks := []int{1, 16, 256, 2048, 8192}
	if quick {
		ns = ns[:2]
		ks = []int{1, 256, 4096}
	}
	const B = 64
	fmt.Printf("%10s %8s %12s %14s %10s", "n", "k", "read I/Os", "logB n + k/B", "component")
	for _, c := range storeCols {
		fmt.Printf(" %9s", c)
	}
	fmt.Println()
	for _, n := range ns {
		d := newDisk(B)
		gen := workload.NewGen(int64(n))
		pts := gen.Uniform(n, 1e6)
		ix := core.Bulk(d, coreOpts(), pts)
		for _, k := range ks {
			rng := rand.New(rand.NewSource(int64(k)))
			reads, split := coldQuerySplit(d, 5, func(int) {
				x1 := rng.Float64() * 4e5
				ix.Query(x1, x1+5e5, k)
			})
			comp := "§3.3"
			if k >= ix.KThreshold() {
				comp = "§2"
			}
			fmt.Printf("%10d %8d %12.1f %14.1f %10s", n, k, reads, logB(n, B)+float64(k)/B, comp)
			for _, r := range split {
				fmt.Printf(" %9.1f", r)
			}
			fmt.Println()
		}
	}
	fmt.Println("shape check: within a column, cost grows ~additively in k/B; down a column, ~log_B n.")
	fmt.Println("the last columns split each row's reads by store.")
}

// ---------------------------------------------------------------- E2

func e2(quick bool) {
	ns := []int{1 << 12, 1 << 14, 1 << 16}
	if quick {
		ns = ns[:2]
	}
	const B = 64
	fmt.Printf("%10s %14s %16s %12s %12s", "n", "ours I/Os/op", "baseline I/Os/op", "logB n", "log²B n")
	for _, c := range storeCols {
		fmt.Printf(" %9s", c)
	}
	fmt.Println()
	var first, last [4]float64
	for i, n := range ns {
		gen := workload.NewGen(int64(n))
		pts := gen.Uniform(n+2000, 1e6)

		d1 := newDisk(B)
		ix := core.Bulk(d1, coreOpts(), pts[:n])
		d1.DropCache()
		b1, split := d1.Stats(), storeSplit(d1, iosOf)
		for _, p := range pts[n : n+2000] {
			ix.Insert(p)
		}
		d1.DropCache() // count write-backs still sitting in the pool
		ours := float64(d1.Stats().Sub(b1).IOs()) / 2000
		for c, ios := range storeSplit(d1, iosOf) {
			split[c] = ios - split[c]
		}

		d2 := newDisk(B)
		base := shengtao.Bulk(d2, shengtao.Options{K: B * int(lg2(n))}, pts[:n])
		d2.DropCache()
		b2 := d2.Stats()
		for _, p := range pts[n : n+2000] {
			base.Insert(p)
		}
		d2.DropCache()
		theirs := float64(d2.Stats().Sub(b2).IOs()) / 2000

		lb := logB(n, B)
		fmt.Printf("%10d %14.1f %16.1f %12.2f %12.2f", n, ours, theirs, lb, lb*lb)
		for _, ios := range split {
			fmt.Printf(" %9.1f", float64(ios)/2000)
		}
		fmt.Println()
		last = [4]float64{ours, theirs, lb, lb * lb}
		if i == 0 {
			first = last
		}
	}
	fmt.Printf("growth from n=%d to n=%d: ours ×%.2f, baseline ×%.2f, log_B n ×%.2f, log²_B n ×%.2f\n",
		ns[0], ns[len(ns)-1], last[0]/first[0], last[1]/first[1], last[2]/first[2], last[3]/first[3])
	fmt.Println("the last columns split ours' I/Os per insert (reads plus writes) by store.")
}

// ---------------------------------------------------------------- E3

func e3(quick bool) {
	const B, n = 16, 1 << 16
	d := newDisk(B)
	gen := workload.NewGen(3)
	pts := gen.Uniform(n, 1e6)
	p := pst.Bulk(d, pst.Options{}, pts)
	ks := []int{1, 16, 128, 1024, 4096, 16384}
	if quick {
		ks = []int{1, 128, 4096}
	}
	thr := B * int(lg2(n))
	fmt.Printf("B=%d, n=%d, B·lg n = %d\n", B, n, thr)
	fmt.Printf("%8s %12s %9s %9s %14s %10s\n", "k", "read I/Os", storeCols[0], storeCols[1], "lg n + k/B", "regime")
	for _, k := range ks {
		rng := rand.New(rand.NewSource(int64(k)))
		reads, split := coldQuerySplit(d, 5, func(int) {
			x1 := rng.Float64() * 2e5
			p.Query(x1, x1+7e5, k)
		})
		reg := "k < B·lg n (served by §3.3 in the composition)"
		if k >= thr {
			reg = "k ≥ B·lg n (the §2 regime: O(k/B) dominates)"
		}
		fmt.Printf("%8d %12.1f %9.1f %9.1f %14.1f   %s\n", k, reads, split[0], split[1], lg2(n)+float64(k)/B, reg)
	}
}

// ---------------------------------------------------------------- E4

func e4(quick bool) {
	const B, n = 8, 4000
	gen := workload.NewGen(4)
	pts := gen.Adversarial(n, 1e5)
	trials := 300
	if quick {
		trials = 100
	}
	fmt.Printf("%6s %10s %12s\n", "φ", "queries", "exact top-k")
	for _, phi := range []int{1, 2, 4, 8, 16} {
		d := newDisk(B)
		p := pst.Bulk(d, pst.Options{Phi: phi, PaperSelection: true}, pts)
		okCnt := 0
		rng := rand.New(rand.NewSource(int64(phi)))
		for i := 0; i < trials; i++ {
			x1 := rng.Float64() * 9e4
			x2 := x1 + rng.Float64()*3e4
			k := rng.Intn(200) + 1
			if slices.Equal(p.Query(x1, x2, k), point.TopK(pts, x1, x2, k)) {
				okCnt++
			}
		}
		fmt.Printf("%6d %10d %12s\n", phi, trials,
			fmt.Sprintf("%d/%d", okCnt, trials))
	}
	fmt.Println("Lemma 2 proves φ=16 suffices; failures, when present, appear only below it.")
}

// ---------------------------------------------------------------- E5

func e5(quick bool) {
	ops := 6000
	if quick {
		ops = 2000
	}
	d := newDisk(16)
	p := pst.New(d, pst.Options{TrackTokens: true})
	gen := workload.NewGen(5)
	violations, checks := 0, 0
	var live []point.P
	for i, u := range gen.Mix(ops, 400, 0.45, 1e6) {
		pt := u.Point()
		if !u.Delete {
			p.Insert(pt)
			live = append(live, pt)
		} else {
			p.Delete(pt)
			for j := range live {
				if live[j] == pt {
					live = append(live[:j], live[j+1:]...)
					break
				}
			}
		}
		if i%97 == 0 {
			checks++
			if err := p.CheckInvariants(); err != nil {
				violations++
				fmt.Printf("  op %d: %v\n", i, err)
			}
		}
	}
	if err := p.CheckInvariants(); err != nil {
		violations++
	}
	checks++
	fmt.Printf("updates=%d, invariant checks=%d, violations=%d (Lemma 3 holds)\n",
		ops, checks, violations)
}

// ---------------------------------------------------------------- E6

type countedSet struct {
	vals  []float64
	rank  *int
	maxc  *int
	slopR *rand.Rand
}

func (s countedSet) Len() int { return len(s.vals) }
func (s countedSet) Max() float64 {
	*s.maxc++
	return s.vals[0]
}
func (s countedSet) Rank(rho float64) float64 {
	*s.rank++
	lo := int(math.Ceil(rho))
	hi := 2*lo - 1
	r := lo + s.slopR.Intn(hi-lo+1)
	if r > len(s.vals) {
		r = len(s.vals)
	}
	return s.vals[r-1]
}

func e6(quick bool) {
	ms := []int{4, 16, 64, 256}
	if quick {
		ms = ms[:3]
	}
	fmt.Printf("%6s %8s %12s %12s %14s\n", "m", "k", "Rank calls", "Max calls", "rank/k ratio")
	for _, m := range ms {
		rng := rand.New(rand.NewSource(int64(m)))
		var sets []aurs.Set
		var all []float64
		rankCalls, maxCalls := 0, 0
		for i := 0; i < m; i++ {
			n := 8*m + rng.Intn(4*m)
			vals := make([]float64, n)
			for j := range vals {
				vals[j] = rng.Float64()
				all = append(all, vals[j])
			}
			sort.Sort(sort.Reverse(sort.Float64Slice(vals)))
			sets = append(sets, countedSet{vals: vals, rank: &rankCalls, maxc: &maxCalls, slopR: rng})
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(all)))
		for _, k := range []int{m / 2, 2 * m} {
			if k < 1 {
				k = 1
			}
			rankCalls, maxCalls = 0, 0
			v := aurs.Select(sets, 2, k)
			r := sort.Search(len(all), func(i int) bool { return all[i] < v })
			fmt.Printf("%6d %8d %12d %12d %14.2f\n", m, k, rankCalls, maxCalls, float64(r)/float64(k))
		}
	}
	fmt.Printf("bound: rank/k ≤ c' = %d; Rank calls ≤ 2m (geometric rounds)\n", aurs.Bound(2))
}

// ---------------------------------------------------------------- E7

func e7(quick bool) {
	confs := []struct{ f, l int }{{4, 64}, {8, 256}, {16, 1024}}
	if quick {
		confs = confs[:2]
	}
	const B = 64
	fmt.Printf("%6s %6s %8s %14s %14s %12s\n", "f", "l", "f·l", "query I/Os", "update I/Os", "logB(fl)")
	for _, c := range confs {
		d := newDisk(B)
		g := flgroup.New(d, c.f, c.l)
		rng := rand.New(rand.NewSource(int64(c.f)))
		for i := 1; i <= c.f; i++ {
			for j := 0; j < c.l*3/4; j++ {
				g.Insert(i, rng.Float64()+float64(i*c.l+j))
			}
		}
		q := coldQuery(d, 20, func(i int) {
			g.Select(1, c.f, i%(c.l/2)+1)
		})
		d.DropCache()
		base := d.Stats()
		const ops = 400
		for i := 0; i < ops; i++ {
			si := i%c.f + 1
			v := rng.Float64() + float64(1e7+i)
			g.Insert(si, v)
			g.Delete(si, v)
			if i%8 == 7 {
				d.DropCache() // flush write-backs so updates hit disk
			}
		}
		d.DropCache()
		u := float64(d.Stats().Sub(base).IOs()) / (2 * ops)
		fmt.Printf("%6d %6d %8d %14.1f %14.1f %12.2f\n",
			c.f, c.l, c.f*c.l, q, u, logB(c.f*c.l, B))
	}
}

// ---------------------------------------------------------------- E8

func e8(quick bool) {
	trials := 400
	if quick {
		trials = 150
	}
	fmt.Printf("%6s %10s %12s %12s %10s\n", "base", "trials", "worst ratio", "mean ratio", "bound c3")
	for _, base := range []int{2, 4} {
		rng := rand.New(rand.NewSource(int64(base)))
		worst, sum := 0.0, 0.0
		for t := 0; t < trials; t++ {
			m := rng.Intn(10) + 1
			var sketches []sketch.Sketch
			var all []float64
			for i := 0; i < m; i++ {
				n := rng.Intn(400) + 1
				vals := make([]float64, n)
				for j := range vals {
					vals[j] = rng.Float64()
					all = append(all, vals[j])
				}
				sort.Sort(sort.Reverse(sort.Float64Slice(vals)))
				sketches = append(sketches, sketch.Build(vals, base))
			}
			sort.Sort(sort.Reverse(sort.Float64Slice(all)))
			k := rng.Intn(len(all)) + 1
			x := sketch.Merge(sketches, k)
			r := len(all)
			if !math.IsInf(x, -1) {
				r = sort.Search(len(all), func(i int) bool { return all[i] < x })
			}
			ratio := float64(r) / float64(k)
			sum += ratio
			if ratio > worst {
				worst = ratio
			}
		}
		fmt.Printf("%6d %10d %12.2f %12.2f %10d\n",
			base, trials, worst, sum/float64(trials), sketch.MergeBound(base))
	}
}

// ---------------------------------------------------------------- E9

func e9(quick bool) {
	confs := []struct{ B, f, l int }{{256, 8, 100}, {1024, 32, 400}, {4096, 64, 1200}}
	if quick {
		confs = confs[:2]
	}
	fmt.Printf("%8s %6s %6s %14s %14s %12s %10s\n",
		"B", "f", "l", "sketch bits", "prefix bits", "block bits", "fits")
	for _, c := range confs {
		d := em.NewDisk(em.Config{B: c.B, M: 32 * c.B})
		g := flgroup.New(d, c.f, c.l)
		rng := rand.New(rand.NewSource(int64(c.B)))
		for i := 1; i <= c.f; i++ {
			for j := 0; j < c.l; j++ {
				g.Insert(i, rng.Float64()+float64(i*c.l+j))
			}
		}
		sb, pb := g.SketchBits()
		blk := 64 * c.B
		fits := sb <= blk && pb <= blk
		fmt.Printf("%8d %6d %6d %14d %14d %12d %10v\n", c.B, c.f, c.l, sb, pb, blk, fits)

		// Lemma 8's point: a batch of prefix-rank conversions costs one
		// block read. Measure a Select (reads sketch block once).
		d.DropCache()
		before := d.Stats().Reads
		g.Select(1, c.f, 5)
		fmt.Printf("         one Select read the compressed block(s) + B-tree: %d reads\n",
			d.Stats().Reads-before)
	}
}

// ---------------------------------------------------------------- E10

func e10(quick bool) {
	ns := []int{1 << 13, 1 << 15, 1 << 17}
	if quick {
		ns = ns[:2]
	}
	const B = 64
	fmt.Printf("%10s %8s %14s %14s %14s %10s", "n", "n/B", "PST blocks", "§3.3 blocks", "core blocks", "core/(n/B)")
	for _, c := range storeCols {
		fmt.Printf(" %9s", c)
	}
	fmt.Println()
	for _, n := range ns {
		gen := workload.NewGen(int64(n))
		pts := gen.Uniform(n, 1e6)
		d := newDisk(B)
		core.Bulk(d, coreOpts(), pts)
		split := storeSplit(d, blocksOf)
		pstBlocks := split[0] + split[1]
		coreBlocks := d.Stats().BlocksLive
		fmt.Printf("%10d %8d %14d %14d %14d %10.1f", n, n/B, pstBlocks, coreBlocks-pstBlocks, coreBlocks,
			float64(coreBlocks)/float64(n/B))
		for _, b := range split {
			fmt.Printf(" %9d", b)
		}
		fmt.Println()
	}
	fmt.Println("shape check: the ratio column is flat — space is O(n/B). The last columns split the core's blocks by store.")
}

// ---------------------------------------------------------------- E11

func e11(quick bool) {
	const B, n = 64, 1 << 15
	d := newDisk(B)
	gen := workload.NewGen(11)
	pts := gen.Uniform(n, 1e6)
	ix := core.Bulk(d, coreOpts(), pts)
	fmt.Printf("n=%d, B=%d → k-threshold B·lg n = %d, small-k regime %s\n\n",
		n, B, ix.KThreshold(), ix.CurrentRegime())
	fmt.Printf("%8s %18s\n", "k", "serving component")
	for _, k := range []int{1, 64, 512, ix.KThreshold() - 1, ix.KThreshold(), 4 * ix.KThreshold()} {
		comp := "§3.3 selection + 3-sided reduction"
		if k >= ix.KThreshold() {
			comp = "§2 priority search tree"
		}
		fmt.Printf("%8d %18s\n", k, comp)
	}
	fmt.Println("\nauto-regime table (which small-k structure §1.2 picks):")
	fmt.Printf("%8s %10s %14s %s\n", "B", "lg N", "lg⁶N vs B", "component")
	for _, b := range []int{8, 64, 1024, 1 << 20} {
		l := lg2(2 * n)
		six := math.Pow(l, 6)
		comp := "§3.3 (B < lg⁶N)"
		if float64(b) >= six {
			comp = "[14] (B ≥ lg⁶N: its lg²_B n is already logarithmic)"
		}
		fmt.Printf("%8d %10.0f %14.3g %s\n", b, l, six/float64(b), comp)
	}
}

// ---------------------------------------------------------------- E12

func e12(quick bool) {
	// Figure 2: heaps rooted at Π nodes concatenated by a binary heap
	// over their roots; selection sees one combined heap.
	d := newDisk(16)
	mk := func(keys ...float64) heap.Source {
		entries := make([]heap.Entry, len(keys))
		for i, k := range keys {
			entries[i] = heap.Entry{Ref: int64(i), Key: k}
		}
		return heap.NewExternal(d, "fig2", entries)
	}
	// The paper's Figure 2 keys.
	h1 := mk(10, 5, 8, 1)
	h2 := mk(15, 2)
	h3 := mk(10, 5)
	cat := heap.Concat(d, "fig2cat", []heap.Source{h1, h2, h3})
	top := heap.TopKeys(cat, 8)
	fmt.Printf("figure 2 reproduction: concatenated heap drains as %v\n", top)
	want := []float64{15, 10, 10, 8, 5, 5, 2, 1}
	ok := len(top) == len(want)
	for i := range want {
		if ok && top[i] != want[i] {
			ok = false
		}
	}
	fmt.Printf("matches the multiset of Figure 2's keys: %v\n\n", ok)

	// Figure 1: T̂ concatenation — verified structurally by the pst
	// package's invariant checker on a small instance.
	gen := workload.NewGen(12)
	p := pst.Bulk(newDisk(8), pst.Options{Branch: 4}, gen.Uniform(64, 1e3))
	err := p.CheckInvariants()
	fmt.Printf("figure 1 (T̂ = base tree ⧺ secondary binary trees): invariants on a 64-point instance: %v\n",
		errString(err))
}

func errString(err error) string {
	if err == nil {
		return "hold"
	}
	return err.Error()
}

// ---------------------------------------------------------------- E14

func e14(quick bool) {
	const B, n = 32, 1 << 15
	gen := workload.NewGen(14)
	pts := gen.Uniform(n, 1e6)
	reps := 10
	if quick {
		reps = 4
	}

	fmt.Println("(a) buffer-pool size M/B: cold query cost sensitivity (PST, k=1024)")
	fmt.Printf("%10s %12s\n", "M/B frames", "read I/Os")
	for _, frames := range []int{8, 64, 256, 1024} {
		d := em.NewDisk(em.Config{B: B, M: frames * B})
		p := pst.Bulk(d, pst.Options{}, pts)
		rng := rand.New(rand.NewSource(int64(frames)))
		reads := coldQuery(d, reps, func(int) {
			x1 := rng.Float64() * 2e5
			p.Query(x1, x1+7e5, 1024)
		})
		fmt.Printf("%10d %12.1f\n", frames, reads)
	}

	fmt.Println("\n(b) φ: query cost vs the Lemma 2 constant, paper-mode selection (correctness shown in E4)")
	fmt.Printf("%6s %12s\n", "φ", "read I/Os")
	for _, phi := range []int{2, 4, 8, 16} {
		d := newDisk(B)
		p := pst.Bulk(d, pst.Options{Phi: phi, PaperSelection: true}, pts)
		rng := rand.New(rand.NewSource(int64(phi)))
		reads := coldQuery(d, reps, func(int) {
			x1 := rng.Float64() * 2e5
			p.Query(x1, x1+7e5, 1024)
		})
		fmt.Printf("%6d %12.1f\n", phi, reads)
	}

	fmt.Println("\n(c) selection: the paper's φ·(lg n + k/B) nodes vs the default early termination (beyond the paper)")
	fmt.Printf("%10s %12s\n", "mode", "read I/Os")
	rng := rand.New(rand.NewSource(99))
	x1s := make([]float64, reps)
	for i := range x1s {
		x1s[i] = rng.Float64() * 2e5
	}
	var answers [2][][]point.P
	var reads [2]float64
	for m, mode := range []string{"paper", "early"} {
		d := newDisk(B)
		p := pst.Bulk(d, pst.Options{PaperSelection: mode == "paper"}, pts)
		reads[m] = coldQuery(d, reps, func(i int) {
			answers[m] = append(answers[m], p.Query(x1s[i], x1s[i]+7e5, 1024))
		})
		fmt.Printf("%10s %12.1f\n", mode, reads[m])
	}
	for i, x1 := range x1s {
		if !slices.Equal(answers[0][i], answers[1][i]) {
			panic(fmt.Sprintf("e14: early-terminating selection answered [%v, %v] k=1024 unlike paper mode", x1, x1+7e5))
		}
	}
	if reads[1] > reads[0] {
		panic(fmt.Sprintf("e14: early-terminating selection read %.1f blocks a query, paper mode %.1f", reads[1], reads[0]))
	}

	fmt.Println("\n(d) sketch base: pivots per sketch vs merge approximation (see E8 for ratios)")
	fmt.Printf("%6s %14s %12s\n", "base", "pivots(l=1024)", "bound c3")
	for _, base := range []int{2, 3, 4} {
		fmt.Printf("%6d %14d %12d\n", base, sketch.NumPivots(1024, base), sketch.MergeBound(base))
	}
}

// ---------------------------------------------------------------- E13

func e13(quick bool) {
	ns := []int{1 << 14, 1 << 17}
	if !quick {
		ns = append(ns, 1<<19)
	}
	fmt.Printf("%10s %8s %16s %12s\n", "n", "k", "comparisons", "lg n + k")
	for _, n := range ns {
		gen := workload.NewGen(int64(n))
		tr := ram.Bulk(gen.Uniform(n, 1e6))
		for _, k := range []int{1, 64, 1024} {
			rng := rand.New(rand.NewSource(int64(k)))
			tr.Comparisons = 0
			const reps = 30
			for i := 0; i < reps; i++ {
				x1 := rng.Float64() * 4e5
				tr.Query(x1, x1+4e5, k)
			}
			fmt.Printf("%10d %8d %16d %12.0f\n",
				n, k, tr.Comparisons/reps, lg2(n)+float64(k))
		}
	}
}

// ---------------------------------------------------------------- E15

// e15 measures the serving layer through the public topk.Store
// interface (API v1): query throughput of per-call TopK vs the
// batched QueryBatch fan-out, per backend and goroutine count. The
// batch path amortizes the topology lock and goroutine setup, which
// is where its advantage over a loop of TopK calls comes from.
func e15(quick bool) {
	n := 1 << 15
	ops := 20000
	if quick {
		n = 1 << 13
		ops = 4000
	}
	gen := workload.NewGen(51)
	pts := gen.Uniform(n, 1e6)
	cfg := topk.Config{BlockWords: 64, ForcePolylog: true, PolylogF: 8, PolylogLeafCap: 2048}
	sharded, err := topk.LoadSharded(topk.ShardedConfig{Config: cfg, Shards: 8}, pts)
	if err != nil {
		panic(err)
	}
	queries := gen.Queries(256, 1e6, 0.0005, 0.02, 64)
	fmt.Printf("%22s %6s %12s\n", "mode", "g", "qps")
	for _, g := range []int{1, 4, 16} {
		var st topk.Store = sharded
		perCall := benchRun("e15", fmt.Sprintf("sharded TopK g=%d", g), func() workload.Throughput {
			return workload.RunConcurrent(g, ops, queries, func(q topk.Query) {
				st.TopK(q.X1, q.X2, q.K)
			})
		})
		fmt.Printf("%22s %6d %12.0f\n", "sharded TopK", g, perCall.QPS())
		batched := benchRun("e15", fmt.Sprintf("sharded QueryBatch/16 g=%d", g), func() workload.Throughput {
			return driver.RunBatched(st, g, ops, 16, queries)
		})
		fmt.Printf("%22s %6d %12.0f\n", "sharded QueryBatch/16", g, batched.QPS())
	}
	// The sequential backend as the single-machine baseline (one
	// goroutine: an Index is not concurrency-safe).
	single, err := topk.Load(cfg, pts)
	if err != nil {
		panic(err)
	}
	res := benchRun("e15", "index QueryBatch/16 g=1", func() workload.Throughput {
		return driver.RunBatched(single, 1, ops, 16, queries)
	})
	fmt.Printf("%22s %6d %12.0f\n", "index QueryBatch/16", 1, res.QPS())

	// Instrumentation overhead: the same g=16 TopK run with the obs
	// recording the serving middleware adds per request — one endpoint
	// histogram observation plus the op timer serve runs around each
	// Store call, on an untraced request — versus bare Store calls.
	// The histograms are striped atomics with no locks or allocation, so
	// the budget is ≤5% of qps; the ratio below is the check.
	tel := obs.New(obs.Options{})
	ctx := context.Background()
	var st topk.Store = sharded
	g := 16
	off := benchRun("e15", "obs-off TopK g=16", func() workload.Throughput {
		return workload.RunConcurrent(g, ops, queries, func(q topk.Query) {
			st.TopK(q.X1, q.X2, q.K)
		})
	})
	on := benchRun("e15", "obs-on TopK g=16", func() workload.Throughput {
		return workload.RunConcurrent(g, ops, queries, func(q topk.Query) {
			op := tel.TimeOpCtx(ctx, "topk")
			st.TopK(q.X1, q.X2, q.K)
			op.End()
			tel.HTTP.Observe("topk", time.Microsecond)
		})
	})
	overhead := 100 * (off.QPS() - on.QPS()) / off.QPS()
	fmt.Printf("obs overhead at g=16: off %.0f qps, on %.0f qps (%.1f%% — budget 5%%)\n",
		off.QPS(), on.QPS(), overhead)

	// The write path topkd mounts — topk.Batched over a sharded store,
	// write-path telemetry always on — driven by 16 concurrent writers
	// inserting fresh points outside the preload's key range.
	backend, err := topk.LoadSharded(topk.ShardedConfig{Config: cfg, Shards: 8}, pts)
	if err != nil {
		panic(err)
	}
	bt, err := topk.NewBatched(backend, topk.BatchedConfig{})
	if err != nil {
		panic(err)
	}
	defer bt.Close()
	var seq atomic.Int64
	const base = 8e6
	ins := benchRun("e15", "batched insert g=16", func() workload.Throughput {
		return workload.RunConcurrent(g, ops, queries, func(topk.Query) {
			i := float64(seq.Add(1))
			if err := bt.Insert(base+i, base+i); err != nil {
				panic(err)
			}
		})
	})
	fmt.Printf("batched insert at g=16: %.0f qps\n", ins.QPS())
}

// ---------------------------------------------------------------- E16

// e16 measures the shard lifecycle under delete-heavy churn: bulk
// load a full 8-shard fleet, delete 95% of the points, then measure
// query throughput — with the delete-triggered merge policy enabled
// vs disabled (MinMerge < 0). Without merges the fleet stays stranded
// at 8 near-empty shards, each still paying its fixed overhead
// (buffer-pool floor of 2B words, fan-out goroutines, lock
// acquisitions); with merges the survivors coalesce and per-query
// cost tracks the live set again. The run panics unless it shows
// exactly that: the enabled fleet ends with fewer shards than the
// disabled one and at least one merge, and the disabled fleet never
// merged.
func e16(quick bool) {
	// Sizing: survivors per shard must land below the merge triggers
	// (MinMerge floor = MinSplit/2 = 128 here) or the experiment
	// demonstrates nothing — n/20/8 = 102 at full size, 25 at -quick.
	n := 1 << 14
	ops := 12000
	if quick {
		n = 1 << 12
		ops = 3000
	}
	gen := workload.NewGen(61)
	pts := gen.Uniform(n, 1e6)
	cfg := topk.Config{BlockWords: 64, ForcePolylog: true, PolylogF: 8, PolylogLeafCap: 2048}
	queries := gen.Queries(256, 1e6, 0.0005, 0.02, 64)

	fmt.Printf("%10s %8s %8s %8s %12s\n", "merges", "shards", "n live", "#merged", "qps (g=8)")
	var shards [2]int // final shard count, merges disabled then enabled
	for i, enabled := range []bool{false, true} {
		scfg := topk.ShardedConfig{Config: cfg, Shards: 8, MinSplit: 256}
		if !enabled {
			scfg.MinMerge = -1
		}
		st, err := topk.LoadSharded(scfg, pts)
		if err != nil {
			panic(err)
		}
		// Delete 95% in batches, the serving-path shape that triggers
		// the merge hook on the batch unlock path.
		del := make([]topk.BatchOp, 0, n-n/20)
		for i, p := range pts {
			if i%20 != 0 {
				del = append(del, topk.BatchOp{Delete: true, X: p.X, Score: p.Score})
			}
		}
		for len(del) > 0 {
			chunk := del
			if len(chunk) > 512 {
				chunk = del[:512]
			}
			for i, err := range st.ApplyBatch(chunk) {
				if err != nil {
					panic(fmt.Sprintf("delete %d: %v", i, err))
				}
			}
			del = del[len(chunk):]
		}
		if err := st.CheckInvariants(); err != nil {
			panic(err)
		}
		res := workload.RunConcurrent(8, ops, queries, func(q topk.Query) {
			st.TopK(q.X1, q.X2, q.K)
		})
		mode := "enabled"
		if !enabled {
			mode = "disabled"
		}
		fmt.Printf("%10s %8d %8d %8d %12.0f\n", mode, st.NumShards(), st.Len(), st.Merges(), res.QPS())
		if merged := st.Merges() > 0; merged != enabled {
			panic(fmt.Sprintf("e16: merges %s but the fleet merged %d times", mode, st.Merges()))
		}
		shards[i] = st.NumShards()
	}
	if shards[1] >= shards[0] {
		panic(fmt.Sprintf("e16: merges enabled left %d shards, not fewer than the %d without merges", shards[1], shards[0]))
	}
	fmt.Println("shape check: with merges enabled the shard count collapses toward the shrunken live set.")
}

// ---------------------------------------------------------------- E17

// e17 measures the snapshot read path under churn: query throughput
// while concurrent writers churn the fleet hard enough to keep
// triggering splits, merges and rebalances. TopK pins an immutable
// topology snapshot and holds no topology lock during fan-out, so the
// acceptance bar is that read qps holds as writers rise.
func e17(quick bool) {
	n := 1 << 15
	readOps := 20000
	if quick {
		n = 1 << 13
		readOps = 4000
	}
	gen := workload.NewGen(71)
	pts := gen.Uniform(n, 1e6)
	cfg := topk.ShardedConfig{
		Config:   topk.Config{BlockWords: 64, ForcePolylog: true, PolylogF: 8, PolylogLeafCap: 2048},
		Shards:   8,
		MinSplit: 256,
	}
	queries := gen.Queries(256, 1e6, 0.0005, 0.02, 64)

	fmt.Printf("%8s %12s %8s\n", "writers", "qps (g=8)", "epoch")
	for _, writers := range []int{0, 2, 8} {
		st, err := topk.LoadSharded(cfg, pts)
		if err != nil {
			panic(err)
		}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				// Disjoint position/score bands per writer, outside the
				// preload domain, so churn never collides with reads'
				// data or other writers.
				wgen := workload.NewGen(int64(100 + w))
				lo := 2e6 + float64(w)*1e6
				round := 0
				for {
					select {
					case <-stop:
						return
					default:
					}
					ins := make([]topk.BatchOp, 0, 64)
					del := make([]topk.BatchOp, 0, 64)
					for _, p := range wgen.Uniform(64, 1e6) {
						ins = append(ins, topk.BatchOp{X: lo + p.X, Score: 2 + float64(w) + p.Score/2})
						del = append(del, topk.BatchOp{Delete: true, X: lo + p.X, Score: 2 + float64(w) + p.Score/2})
					}
					st.ApplyBatch(ins)
					st.ApplyBatch(del)
					if round++; round%8 == 0 {
						st.Rebalance(8) // a full re-partition under the readers
					}
				}
			}(w)
		}
		read := func() workload.Throughput {
			return workload.RunConcurrent(8, readOps, queries, func(q topk.Query) {
				st.TopK(q.X1, q.X2, q.K)
			})
		}
		res := read()
		close(stop)
		wg.Wait()
		// qps comes from the run under churn. allocs/op comes from a
		// reader-only pass over the same queries on the final
		// topology: a Mallocs delta taken while the writers run would
		// also count their rebalances, whose share depends on how
		// many CPUs the writers get.
		_, allocs := measureAllocs(read)
		benchRecord("e17", fmt.Sprintf("snapshot w=%d", writers), res, allocs)
		// Epoch counts the topology snapshots the run published — the
		// rebalances the readers raced.
		fmt.Printf("%8d %12.0f %8d\n", writers, res.QPS(), st.Epoch())
	}
	fmt.Println("shape check: snapshot qps holds as writers rise.")
}
