package topk

// One testing.B benchmark per experiment E1–E13 of the experiments
// table in cmd/topkbench/main.go.
// Each bench reports ios/op — block transfers on the simulated disk, the
// unit of every bound in the paper — alongside Go's ns/op. The richer
// parameter sweeps (tables with multiple n, k, B rows) live in
// cmd/topkbench; these benches pin one representative configuration per
// experiment so `go test -bench=.` regenerates the headline numbers.

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/aurs"
	"repro/internal/core"
	"repro/internal/em"
	"repro/internal/flgroup"
	"repro/internal/heap"
	"repro/internal/point"
	"repro/internal/pst"
	"repro/internal/ram"
	"repro/internal/shengtao"
	"repro/internal/sketch"
	"repro/internal/workload"
)

const benchB = 64

func benchDisk() *em.Disk { return em.NewDisk(em.Config{B: benchB, M: 256 * benchB}) }

func reportIOs(b *testing.B, d *em.Disk, base em.Stats) {
	b.ReportMetric(float64(d.Stats().Sub(base).IOs())/float64(b.N), "ios/op")
}

// BenchmarkE1Theorem1Query: composed query at k below the threshold.
func BenchmarkE1Theorem1Query(b *testing.B) {
	d := benchDisk()
	pts := workload.NewGen(1).Uniform(1<<15, 1e6)
	ix := core.Bulk(d, core.Options{Regime: core.RegimePolylog, PolylogF: 8, PolylogLeafCap: 2048}, pts)
	rng := rand.New(rand.NewSource(2))
	d.DropCache()
	base := d.Stats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x1 := rng.Float64() * 4e5
		ix.Query(x1, x1+5e5, 16)
		d.DropCache()
	}
	b.StopTimer()
	reportIOs(b, d, base)
}

// BenchmarkE1Theorem1QueryLargeK: same index, k above the threshold
// (served by the §2 structure).
func BenchmarkE1Theorem1QueryLargeK(b *testing.B) {
	d := benchDisk()
	pts := workload.NewGen(1).Uniform(1<<15, 1e6)
	ix := core.Bulk(d, core.Options{Regime: core.RegimePolylog, PolylogF: 8, PolylogLeafCap: 2048}, pts)
	k := 2 * ix.KThreshold()
	rng := rand.New(rand.NewSource(3))
	d.DropCache()
	base := d.Stats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x1 := rng.Float64() * 2e5
		ix.Query(x1, x1+7e5, k)
		d.DropCache()
	}
	b.StopTimer()
	reportIOs(b, d, base)
}

// BenchmarkE2Theorem1Update vs BenchmarkE2BaselineUpdate: the paper's
// headline improvement.
func BenchmarkE2Theorem1Update(b *testing.B) {
	d := benchDisk()
	gen := workload.NewGen(4)
	ix := core.Bulk(d, core.Options{Regime: core.RegimePolylog, PolylogF: 8, PolylogLeafCap: 2048},
		gen.Uniform(1<<14, 1e6))
	extra := gen.Uniform(1<<16, 1e6)
	d.DropCache()
	base := d.Stats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Insert(extra[i%len(extra)])
		if i%len(extra) == len(extra)-1 {
			b.Fatalf("bench exhausted distinct points")
		}
	}
	b.StopTimer()
	reportIOs(b, d, base)
}

func BenchmarkE2BaselineUpdate(b *testing.B) {
	d := benchDisk()
	gen := workload.NewGen(4)
	n := 1 << 14
	tr := shengtao.Bulk(d, shengtao.Options{K: benchB * 14}, gen.Uniform(n, 1e6))
	extra := gen.Uniform(1<<16, 1e6)
	d.DropCache()
	base := d.Stats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Insert(extra[i%len(extra)])
	}
	b.StopTimer()
	reportIOs(b, d, base)
}

// BenchmarkE3PSTQuery: the §2 structure alone, k in its regime.
func BenchmarkE3PSTQuery(b *testing.B) {
	d := benchDisk()
	p := pst.Bulk(d, pst.Options{}, workload.NewGen(5).Uniform(1<<15, 1e6))
	rng := rand.New(rand.NewSource(6))
	d.DropCache()
	base := d.Stats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x1 := rng.Float64() * 2e5
		p.Query(x1, x1+7e5, 2048)
		d.DropCache()
	}
	b.StopTimer()
	reportIOs(b, d, base)
}

// BenchmarkE4PhiAblation: φ=4 instead of the proven 16 (answers checked
// in cmd/topkbench; here only the cost side).
func BenchmarkE4PhiAblation(b *testing.B) {
	d := benchDisk()
	p := pst.Bulk(d, pst.Options{Phi: 4, PaperSelection: true}, workload.NewGen(7).Uniform(1<<15, 1e6))
	rng := rand.New(rand.NewSource(8))
	d.DropCache()
	base := d.Stats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x1 := rng.Float64() * 2e5
		p.Query(x1, x1+7e5, 2048)
		d.DropCache()
	}
	b.StopTimer()
	reportIOs(b, d, base)
}

// BenchmarkE4AdaptiveSelection: the early-terminating selection, the
// default (compare BenchmarkE4PhiAblation's paper-mode selection).
func BenchmarkE4AdaptiveSelection(b *testing.B) {
	d := benchDisk()
	p := pst.Bulk(d, pst.Options{}, workload.NewGen(7).Uniform(1<<15, 1e6))
	rng := rand.New(rand.NewSource(8))
	d.DropCache()
	base := d.Stats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x1 := rng.Float64() * 2e5
		p.Query(x1, x1+7e5, 2048)
		d.DropCache()
	}
	b.StopTimer()
	reportIOs(b, d, base)
}

// BenchmarkE5PSTChurnWithTokens: update cost with the Lemma 3
// instrumentation on (tokens are CPU-only; ios/op must match E2's ours).
func BenchmarkE5PSTChurnWithTokens(b *testing.B) {
	d := benchDisk()
	p := pst.Bulk(d, pst.Options{TrackTokens: true}, workload.NewGen(9).Uniform(1<<13, 1e6))
	extra := workload.NewGen(10).Uniform(1<<16, 2e6)
	d.DropCache()
	base := d.Stats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Insert(extra[i%len(extra)])
	}
	b.StopTimer()
	reportIOs(b, d, base)
}

// BenchmarkE6AURS: union-rank selection over 64 sets.
func BenchmarkE6AURS(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	var sets []aurs.Set
	for i := 0; i < 64; i++ {
		vals := make([]float64, 600)
		for j := range vals {
			vals[j] = rng.Float64()
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(vals)))
		sets = append(sets, benchSet{vals, rng})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		aurs.Select(sets, 2, i%128+1)
	}
}

type benchSet struct {
	vals []float64
	rng  *rand.Rand
}

func (s benchSet) Len() int     { return len(s.vals) }
func (s benchSet) Max() float64 { return s.vals[0] }
func (s benchSet) Rank(rho float64) float64 {
	lo := int(math.Ceil(rho))
	hi := 2*lo - 1
	r := lo + s.rng.Intn(hi-lo+1)
	if r > len(s.vals) {
		r = len(s.vals)
	}
	return s.vals[r-1]
}

// BenchmarkE7FLGroupSelect / Update: the Lemma 6 structure.
func BenchmarkE7FLGroupSelect(b *testing.B) {
	d := benchDisk()
	g := flgroup.New(d, 16, 512)
	rng := rand.New(rand.NewSource(12))
	for i := 1; i <= 16; i++ {
		for j := 0; j < 400; j++ {
			g.Insert(i, rng.Float64()+float64(i*512+j))
		}
	}
	d.DropCache()
	base := d.Stats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Select(1, 16, i%512+1)
		d.DropCache()
	}
	b.StopTimer()
	reportIOs(b, d, base)
}

func BenchmarkE7FLGroupUpdate(b *testing.B) {
	d := benchDisk()
	g := flgroup.New(d, 16, 512)
	rng := rand.New(rand.NewSource(13))
	for i := 1; i <= 16; i++ {
		for j := 0; j < 400; j++ {
			g.Insert(i, rng.Float64()+float64(i*512+j))
		}
	}
	d.DropCache()
	base := d.Stats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		si := i%16 + 1
		v := rng.Float64() + float64(1e7+i)
		g.Insert(si, v)
		g.Delete(si, v)
		if i%8 == 7 {
			d.DropCache()
		}
	}
	b.StopTimer()
	d.DropCache()
	reportIOs(b, d, base)
}

// BenchmarkE8SketchMerge: the Lemma 7 merge over 16 sketches (CPU-only;
// the one block read it needs is charged by callers).
func BenchmarkE8SketchMerge(b *testing.B) {
	rng := rand.New(rand.NewSource(14))
	var sketches []sketch.Sketch
	for i := 0; i < 16; i++ {
		vals := make([]float64, 512)
		for j := range vals {
			vals[j] = rng.Float64()
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(vals)))
		sketches = append(sketches, sketch.Build(vals, 2))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sketch.Merge(sketches, i%4096+1)
	}
}

// BenchmarkE9PrefixBatchRank: Lemma 8 — a Select whose pivot repairs hit
// the compressed prefix block.
func BenchmarkE9PrefixBatchRank(b *testing.B) {
	d := em.NewDisk(em.Config{B: 1024, M: 64 * 1024})
	g := flgroup.New(d, 32, 400)
	rng := rand.New(rand.NewSource(15))
	for i := 1; i <= 32; i++ {
		for j := 0; j < 300; j++ {
			g.Insert(i, rng.Float64()+float64(i*400+j))
		}
	}
	d.DropCache()
	base := d.Stats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Select(1, 32, i%200+1)
		d.DropCache()
	}
	b.StopTimer()
	reportIOs(b, d, base)
}

// BenchmarkE10Space: build cost per point; blocks/point reported.
func BenchmarkE10Space(b *testing.B) {
	gen := workload.NewGen(16)
	pts := gen.Uniform(1<<14, 1e6)
	b.ResetTimer()
	var blocksPerPoint float64
	for i := 0; i < b.N; i++ {
		d := benchDisk()
		core.Bulk(d, core.Options{Regime: core.RegimePolylog, PolylogF: 8, PolylogLeafCap: 2048}, pts)
		blocksPerPoint = float64(d.Stats().BlocksLive) / float64(len(pts))
	}
	b.ReportMetric(blocksPerPoint*benchB, "blocks/(n/B)")
}

// BenchmarkE11RegimeDispatch: query cost exactly at the two sides of the
// k = B·lg n crossover.
func BenchmarkE11RegimeDispatch(b *testing.B) {
	d := benchDisk()
	ix := core.Bulk(d, core.Options{Regime: core.RegimePolylog, PolylogF: 8, PolylogLeafCap: 2048},
		workload.NewGen(17).Uniform(1<<15, 1e6))
	thr := ix.KThreshold()
	rng := rand.New(rand.NewSource(18))
	d.DropCache()
	base := d.Stats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x1 := rng.Float64() * 2e5
		k := thr - 1
		if i%2 == 1 {
			k = thr
		}
		ix.Query(x1, x1+6e5, k)
		d.DropCache()
	}
	b.StopTimer()
	reportIOs(b, d, base)
}

// BenchmarkE12HeapConcat: Figure 2 — concatenation plus selection.
func BenchmarkE12HeapConcat(b *testing.B) {
	d := benchDisk()
	rng := rand.New(rand.NewSource(19))
	var sources []heap.Source
	for i := 0; i < 8; i++ {
		entries := make([]heap.Entry, 512)
		for j := range entries {
			entries[j] = heap.Entry{Ref: int64(j), Key: rng.Float64()}
		}
		sources = append(sources, heap.NewExternal(d, "bench", entries))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cat := heap.Concat(d, "cat", sources)
		heap.SelectTop(cat, 64)
		cat.Free()
	}
}

// BenchmarkE13RAMQuery: the pointer-machine baseline.
func BenchmarkE13RAMQuery(b *testing.B) {
	tr := ram.Bulk(workload.NewGen(20).Uniform(1<<17, 1e6))
	rng := rand.New(rand.NewSource(21))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x1 := rng.Float64() * 4e5
		tr.Query(x1, x1+4e5, 64)
	}
	b.StopTimer()
	b.ReportMetric(float64(tr.Comparisons)/float64(b.N), "cmps/op")
}

// BenchmarkShardedTopK: throughput of the shard/serve layer — one
// query stream against varying shard counts and client goroutine
// counts. With one shard every query serializes on that shard's
// mutex; with more shards, queries on disjoint ranges proceed in
// parallel, which is the serving-layer speedup this bench tracks
// (qps alongside ns/op).
func BenchmarkShardedTopK(b *testing.B) {
	gen := workload.NewGen(22)
	pts := gen.Uniform(1<<14, 1e6)
	// Narrow, serving-shaped queries: most land on one shard, so
	// throughput can scale with goroutines instead of every query
	// fanning out to (and briefly locking) the whole fleet.
	queries := gen.Queries(256, 1e6, 0.0005, 0.02, 64)
	for _, shards := range []int{1, 4, 8} {
		idx := mustLoadSharded(b, ShardedConfig{
			Config: Config{BlockWords: benchB, ForcePolylog: true, PolylogF: 8, PolylogLeafCap: 2048},
			Shards: shards,
		}, pts)
		for _, g := range []int{1, 4, 16, 64} {
			b.Run(fmt.Sprintf("shards=%d/goroutines=%d", shards, g), func(b *testing.B) {
				res := workload.RunConcurrent(g, b.N, queries, func(q Query) {
					idx.TopK(q.X1, q.X2, q.K)
				})
				b.ReportMetric(res.QPS(), "qps")
			})
		}
	}
}

// benchStores builds both Store backends over the same load for the
// batch-path benchmarks.
func benchStores(b *testing.B, n int) map[string]Store {
	pts := workload.NewGen(23).Uniform(n, 1e6)
	return map[string]Store{
		"index": mustLoad(b, Config{BlockWords: benchB, ForcePolylog: true, PolylogF: 8, PolylogLeafCap: 2048}, pts),
		"sharded": mustLoadSharded(b, ShardedConfig{
			Config: Config{BlockWords: benchB, ForcePolylog: true, PolylogF: 8, PolylogLeafCap: 2048},
			Shards: 8,
		}, pts),
	}
}

// BenchmarkQueryBatch: the batched read path on both backends — one
// op is a 16-query batch; qps counts individual queries. On Sharded
// this is the single-topology-lock fan-out the v1 API added; compare
// with BenchmarkShardedTopK's per-query numbers. CI runs this with
// -benchtime=1x as a smoke test so the batch path cannot silently
// rot.
func BenchmarkQueryBatch(b *testing.B) {
	const batch = 16
	gen := workload.NewGen(24)
	qs := gen.Queries(256, 1e6, 0.0005, 0.02, 64)
	for name, st := range benchStores(b, 1<<14) {
		b.Run(name, func(b *testing.B) {
			start := time.Now()
			for i := 0; i < b.N; i++ {
				lo := (i * batch) % (len(qs) - batch)
				st.QueryBatch(qs[lo : lo+batch])
			}
			b.ReportMetric(float64(b.N*batch)/time.Since(start).Seconds(), "qps")
		})
	}
}

// BenchmarkApplyBatch: the batched write path on both backends — one
// op is a 64-op mixed insert/delete batch (each batch deletes what it
// inserted, keeping the index at steady state).
func BenchmarkApplyBatch(b *testing.B) {
	const batch = 64
	for name, st := range benchStores(b, 1<<13) {
		b.Run(name, func(b *testing.B) {
			gen := workload.NewGen(25)
			ins := make([]BatchOp, batch)
			del := make([]BatchOp, batch)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Fresh points per round, far outside the preload domain
				// so they never collide with it.
				for j, p := range gen.Uniform(batch, 1e6) {
					ins[j] = BatchOp{X: 2e6 + p.X, Score: 2 + p.Score}
					del[j] = BatchOp{Delete: true, X: 2e6 + p.X, Score: 2 + p.Score}
				}
				for _, errs := range [][]error{st.ApplyBatch(ins), st.ApplyBatch(del)} {
					for _, err := range errs {
						if err != nil {
							b.Fatal(err)
						}
					}
				}
			}
		})
	}
}

var _ = point.P{} // keep the import for helper extensions

// BenchmarkLoadSharded: the boot of the benchmark module's three
// members (bench/stack.go). Each member bulk-loads a quantile score
// band of the points with LoadSharded into 8 shards of B = 64 with the
// §3.3 tree at f = 8 and leaves of 2,048. One op loads all three
// bands, so ns/op and allocs/op are one boot's load. heap-B/pt is the
// Go heap the last boot's members keep live, per point: what a GC
// frees when they are dropped.
func BenchmarkLoadSharded(b *testing.B) {
	const members = 3
	cfg := ShardedConfig{
		Config: Config{BlockWords: benchB, ForcePolylog: true, PolylogF: 8, PolylogLeafCap: 2048},
		Shards: 8,
	}
	for _, n := range []int{1 << 16, 1 << 15} {
		pts := workload.NewGen(27).Uniform(n, 1e6)
		sort.Slice(pts, func(i, j int) bool { return pts[i].Score < pts[j].Score })
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			var boot [members]*Sharded
			for i := 0; i < b.N; i++ {
				for m := range members {
					boot[m] = mustLoadSharded(b, cfg, pts[m*n/members:(m+1)*n/members])
				}
			}
			b.StopTimer()
			held := liveHeap()
			runtime.KeepAlive(boot)
			b.ReportMetric(float64(held-liveHeap())/float64(n), "heap-B/pt")
		})
	}
}

// liveHeap returns the bytes of live heap objects after a full GC.
func liveHeap() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// BenchmarkChurnLifecycle: the full shard lifecycle — bulk load a
// full fleet, batch-delete 90% (driving merges), then query the
// shrunken survivor set — with the merge policy on vs off. Reports
// the post-churn shard count; CI runs this with -benchtime=1x as a
// smoke test so the delete/merge path cannot silently rot.
func BenchmarkChurnLifecycle(b *testing.B) {
	gen := workload.NewGen(26)
	pts := gen.Uniform(1<<12, 1e6)
	specs := gen.Queries(64, 1e6, 0.0005, 0.02, 32)
	for _, mode := range []struct {
		name     string
		minMerge int
	}{{"merge=on", 0}, {"merge=off", -1}} {
		b.Run(mode.name, func(b *testing.B) {
			var shards float64
			for i := 0; i < b.N; i++ {
				cfg := testShardedConfig(8)
				cfg.MinMerge = mode.minMerge
				st := mustLoadSharded(b, cfg, pts)
				del := make([]BatchOp, 0, len(pts)*9/10)
				for j, p := range pts {
					if j%10 != 0 {
						del = append(del, BatchOp{Delete: true, X: p.X, Score: p.Score})
					}
				}
				for _, err := range st.ApplyBatch(del) {
					if err != nil {
						b.Fatal(err)
					}
				}
				if err := st.CheckInvariants(); err != nil {
					b.Fatal(err)
				}
				for _, q := range specs {
					st.TopK(q.X1, q.X2, q.K)
				}
				shards += float64(st.NumShards())
			}
			b.ReportMetric(shards/float64(b.N), "shards")
		})
	}
}
