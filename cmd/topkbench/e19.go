package main

// E19: the write path. Heavy user write traffic is single-op Inserts,
// and on the cluster tier each one pays a full HTTP round trip to its
// member before the next can go out. The group-commit layer
// (topk.Batched over internal/ingest) coalesces concurrent single-op
// writes into grouped ApplyBatch flushes — one member RPC carries a
// whole group — so the per-op request overhead amortizes across
// however many writers overlapped one commit.
//
// The experiment boots a 3-member httptest cluster (the e18 rig) and
// measures single-op insert throughput at rising writer counts in
// three modes:
//
//   - direct:        every writer calls Cluster.Insert — one HTTP
//     round trip per op, the batcher-off baseline.
//   - batched-sync:  writers call Batched.Insert and park until their
//     group commits. Group size self-clocks with writer overlap, so
//     the speedup grows with concurrency.
//   - batched-async: writers pipeline SubmitInsert with a bounded
//     window of outstanding futures (the 202-accepted serving shape).
//     Groups no longer need a full overlap of parked writers to grow,
//     so this is the deep end of the amortization curve.
//
// Insert scores are spread across the full preload score range so the
// write stream exercises every member band, like real traffic would.
// In-process members share one CPU, so these numbers isolate per-op
// coordination overhead — the quantity group commit attacks — not
// member-side hardware scaling.

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	topk "repro"
	"repro/internal/workload"
)

// runWrites drives total calls of do from g goroutines through a
// shared atomic cursor and reports the measured throughput — the
// write-path twin of workload.RunConcurrent, which deals in queries.
func runWrites(g, total int, do func(j int)) workload.Throughput {
	if g < 1 {
		g = 1
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < g; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j := int(next.Add(1)) - 1
				if j >= total {
					return
				}
				do(j)
			}
		}()
	}
	wg.Wait()
	return workload.Throughput{Goroutines: g, Ops: total, Elapsed: time.Since(start)}
}

func e19(quick bool) {
	// The preload is deliberately small and the per-level write volume
	// modest: member apply cost grows with structure size (sketch
	// decode along the insert path), and once member apply dominates
	// both modes equally, the per-op coordination overhead this
	// experiment isolates disappears into it — structure-size scaling
	// is e15–e18's subject; here the member must stay cheap so the HTTP
	// round trip is the measured quantity.
	n := 1 << 11
	ops := 800
	levels := workload.DefaultLevels // 1..64
	if quick {
		levels = []int{1, 8, 32}
	}
	const nodes = 3
	// LeafCap 512 (vs the read experiments' 2048): every tail insert
	// re-decodes its leaf prefix, so giant leaves make member CPU — not
	// per-op coordination, the thing this experiment measures — the
	// write bottleneck.
	cfg := topk.Config{BlockWords: 64, ForcePolylog: true, PolylogF: 8, PolylogLeafCap: 512}
	gen := workload.NewGen(91)
	pts := gen.Uniform(n, 1e6)
	minS, maxS := 1.0, 0.0
	for _, p := range pts {
		minS = min(minS, p.Score)
		maxS = max(maxS, p.Score)
	}

	// Fresh coordinates per row. Scores spread across the full preload
	// score range so every member band takes its share of the writes
	// (the cluster routes updates by score); positions spread across
	// (1e6, 2e6) — disjoint from the preload's [0, 1e6] so nothing can
	// collide with it, and scattered rather than sequential so inserts
	// land all over the leaf level instead of hammering one tail leaf.
	// Two Weyl sequences (golden ratio for score, √2−1 for position)
	// keep both coordinates spread AND distinct for any number of
	// writes — no modulo cycle to outgrow.
	const (
		golden = 0.61803398874989485
		sqrt2m = 0.41421356237309515
	)
	var stamp atomic.Int64
	coords := func() (x, score float64) {
		j := stamp.Add(1)
		fs := float64(j) * golden
		fs -= math.Floor(fs)
		fx := float64(j) * sqrt2m
		fx -= math.Floor(fx)
		return 1e6 * (1.000001 + fx), minS + (0.001+0.998*fs)*(maxS-minS)
	}

	// warm is the per-mode untimed lead-in: enough writes to establish
	// the HTTP connection pool to every member and seed the write
	// region's leaves before any clock starts.
	warm := ops / 10

	var failed atomic.Int64
	mustNil := func(err error) {
		if err != nil {
			failed.Add(1)
		}
	}

	// pipeWrites is the async-ack client shape: each of g writers
	// pipelines up to credits outstanding submissions (the window an
	// async HTTP client gets from its connection pool), waiting out the
	// oldest future when the window fills and draining its tail before
	// the clock stops — every op's commit lands inside the measure.
	const credits = 256
	pipeWrites := func(bt *topk.Batched, g, total int) workload.Throughput {
		var next atomic.Int64
		var wg sync.WaitGroup
		start := time.Now()
		for w := 0; w < g; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var futs []topk.Future
				for {
					j := int(next.Add(1)) - 1
					if j >= total {
						break
					}
					x, s := coords()
					futs = append(futs, bt.SubmitInsert(x, s))
					if len(futs) >= credits {
						mustNil(futs[0].Wait())
						futs = futs[:copy(futs, futs[1:])]
					}
				}
				for _, f := range futs {
					mustNil(f.Wait())
				}
			}()
		}
		wg.Wait()
		return workload.Throughput{Goroutines: g, Ops: total, Elapsed: time.Since(start)}
	}

	// The fleet shares cores with the writers and with whatever else the
	// host is doing, so single-shot rows are noisy — and worse, each
	// mode would sample a different noise window, making the ratios
	// noisy too. Per level, every mode gets its own fresh fleet (no
	// mode inherits another's points or warmed batcher), and the
	// measured attempts interleave across modes so all three sample the
	// same noise windows; each mode keeps its best attempt's qps.
	// allocs/op is the Mallocs delta summed over all attempts, divided
	// by their ops: a member's shard rebuilds are lumps of allocations
	// that land in whichever attempt crosses their trigger, so any one
	// attempt's count (the fastest's, or the median's) swings from run
	// to run, while the sum counts each lump once.
	const attempts = 3
	type modeRun struct {
		name    string
		run     func(total int) workload.Throughput
		cleanup func()
	}
	fmt.Printf("%4s %12s %14s %15s %11s %12s\n", "g", "direct qps", "batched-sync", "batched-async", "sync gain", "async gain")
	for _, g := range levels {
		mk := func(name string, setup func(cl *topk.Cluster) (func(total int) workload.Throughput, func())) *modeRun {
			cl, servers, err := bootCluster(cfg, pts, nodes)
			if err != nil {
				panic(err)
			}
			run, closeFn := setup(cl)
			return &modeRun{name: name, run: run, cleanup: func() {
				if closeFn != nil {
					closeFn()
				}
				_ = cl.Close()
				for _, s := range servers {
					s.Close()
				}
			}}
		}
		const nmodes = 3
		var best [nmodes]workload.Throughput
		var mallocs [nmodes]uint64
		names := [nmodes]string{"direct", "batched-sync", "batched-async"}
		modes := []*modeRun{
			mk("direct", func(cl *topk.Cluster) (func(int) workload.Throughput, func()) {
				return func(total int) workload.Throughput {
					return runWrites(g, total, func(int) {
						x, s := coords()
						mustNil(cl.Insert(x, s))
					})
				}, nil
			}),
			mk("batched-sync", func(cl *topk.Cluster) (func(int) workload.Throughput, func()) {
				bt, err := topk.NewBatched(cl, topk.BatchedConfig{Window: time.Millisecond, MaxBatch: 256})
				if err != nil {
					panic(err)
				}
				return func(total int) workload.Throughput {
					return runWrites(g, total, func(int) {
						x, s := coords()
						mustNil(bt.Insert(x, s))
					})
				}, func() { _ = bt.Close() }
			}),
			mk("batched-async", func(cl *topk.Cluster) (func(int) workload.Throughput, func()) {
				// Async mode runs a deeper group (1024 vs the sync
				// rows' 256): pipelined submitters keep that many ops
				// pending without any extra writer parked, and the
				// bigger group amortizes the member round trip further.
				bt, err := topk.NewBatched(cl, topk.BatchedConfig{Window: time.Millisecond, MaxBatch: 1024})
				if err != nil {
					panic(err)
				}
				return func(total int) workload.Throughput {
					return pipeWrites(bt, g, total)
				}, func() { _ = bt.Close() }
			}),
		}
		for _, m := range modes {
			m.run(warm)
		}
		for i := 0; i < attempts; i++ {
			for k, m := range modes {
				var m0, m1 runtime.MemStats
				runtime.ReadMemStats(&m0)
				r := m.run(ops)
				runtime.ReadMemStats(&m1)
				if best[k].Elapsed == 0 || r.QPS() > best[k].QPS() {
					best[k] = r
				}
				mallocs[k] += m1.Mallocs - m0.Mallocs
			}
		}
		for _, m := range modes {
			m.cleanup()
		}
		for k, name := range names {
			benchRecord("e19", fmt.Sprintf("%s g=%d", name, g), best[k], float64(mallocs[k])/float64(attempts*ops))
		}
		direct, syncRow, asyncRow := best[0], best[1], best[2]
		fmt.Printf("%4d %12.0f %14.0f %15.0f %10.1fx %11.1fx\n",
			g, direct.QPS(), syncRow.QPS(), asyncRow.QPS(),
			syncRow.QPS()/direct.QPS(), asyncRow.QPS()/direct.QPS())
	}
	if f := failed.Load(); f > 0 {
		panic(fmt.Sprintf("e19: %d writes rejected (coordinate scheme must make every insert valid)", f))
	}
	fmt.Println("shape check: direct pays one HTTP round trip per insert; group commit amortizes it across the")
	fmt.Println("group, so the gain tracks writer overlap — sync gains need parked writers, async pipelining")
	fmt.Println("forms large groups even at low writer counts. Acceptance floor: batcher-on ≥ 5x direct at g≥32.")
}
