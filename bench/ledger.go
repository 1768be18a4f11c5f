package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	topk "repro"
)

// selfLayers maps each span layer to the per-layer metric that reports
// its mean self time. Along a read: the client's span covers the
// gateway handler, which covers the Store call into Batched, which
// covers the call into Cluster, which covers one RPC per member, each
// covering that member's handler, which covers its Sharded call.
var selfLayers = []struct{ layer, metric string }{
	{"client", "http.client_hop_us"},
	{"serve.gateway", "serve.gateway_self_us"},
	{"ingest", "ingest.self_us"},
	{"cluster", "cluster.self_us"},
	{"http.member", "http.member_hop_us"},
	{"serve.member", "serve.member_self_us"},
	{"shard", "shard.call_us"},
}

// ledger is what the spans of a traced segment add up to.
type ledger struct {
	selfUs   map[string]float64 // mean self time per span, by layer
	spans    map[string]int     // span count, by layer
	coverage float64            // read critical-path self time ÷ read latency, in %
	opUs     float64            // mean single-op write span at the ingest layer
	flushUs  float64            // mean flush span
	applyUs  float64            // member ApplyBatch time per op applied
}

// analyze computes the ledger from the spans of the timed window's
// requests, and of the flushes that started inside the window.
func analyze(spans []span, samples []sample, from, to int64) ledger {
	timed := make(map[uint64]sample, len(samples))
	for _, s := range samples {
		timed[s.trace] = s
	}
	flushOf := map[wop]int{}
	inFlush := map[uint64]bool{}
	for i, sp := range spans {
		if sp.Trace&flushTrace != 0 && sp.Parent == 0 {
			for _, w := range sp.Writes {
				flushOf[w] = i
			}
			inFlush[sp.Trace] = sp.Start >= from && sp.Start < to
		}
	}
	var in []int
	kids := map[uint64][]int{} // span ID → children
	for i, sp := range spans {
		if _, ok := timed[sp.Trace]; !ok && !inFlush[sp.Trace] {
			continue
		}
		in = append(in, i)
		if sp.Parent != 0 {
			kids[sp.Parent] = append(kids[sp.Parent], i)
		}
	}
	// A single-op write's child is the flush that committed it: its
	// self time at the ingest layer is the wait for that commit.
	child := func(i int) []int {
		sp := spans[i]
		if sp.Layer == "ingest" && len(sp.Writes) == 1 {
			if f, ok := flushOf[sp.Writes[0]]; ok {
				return append(slices.Clip(kids[sp.ID]), f)
			}
		}
		return kids[sp.ID]
	}
	self := func(i int) int64 {
		var iv [][2]int64
		for _, c := range child(i) {
			iv = append(iv, [2]int64{spans[c].Start, spans[c].End})
		}
		return selfTime(spans[i].Start, spans[i].End, iv)
	}

	l := ledger{selfUs: map[string]float64{}, spans: map[string]int{}}
	var ops, flushes, applyOps int
	for _, i := range in {
		sp := spans[i]
		l.selfUs[sp.Layer] += float64(self(i)) / 1e3
		l.spans[sp.Layer]++
		switch {
		case sp.Layer == "ingest" && len(sp.Writes) == 1:
			l.opUs += float64(sp.End-sp.Start) / 1e3
			ops++
		case sp.Layer == "cluster" && sp.Parent == 0:
			l.flushUs += float64(sp.End-sp.Start) / 1e3
			flushes++
		case sp.Layer == "shard" && sp.Op == "apply_batch":
			l.applyUs += float64(sp.End-sp.Start) / 1e3
			applyOps += len(sp.Writes)
		}
	}
	for layer, n := range l.spans {
		l.selfUs[layer] /= float64(n)
	}
	l.opUs /= float64(max(ops, 1))
	l.flushUs /= float64(max(flushes, 1))
	l.applyUs /= float64(max(applyOps, 1))

	// Follow each read from the client down the critical path — at a
	// fan-out, the child that ended last — and compare the self times
	// met on the way, plus the generator's lateness, with the latency.
	var chain, lat int64
	for i, sp := range spans {
		s, ok := timed[sp.Trace]
		if !ok || s.kind != opRead || sp.Layer != "client" {
			continue
		}
		sum := s.late
		for cur := i; ; {
			sum += time.Duration(self(cur))
			next := -1
			for _, c := range child(cur) {
				if next < 0 || spans[c].End > spans[next].End {
					next = c
				}
			}
			if next < 0 {
				break
			}
			cur = next
		}
		chain += int64(sum)
		lat += int64(s.lat)
	}
	if lat > 0 {
		l.coverage = 100 * float64(chain) / float64(lat)
	}
	return l
}

// replayed is the direct-engine row: the workload's queries and an
// update stream, replayed one at a time against a standalone Index.
type replayed struct {
	queryUs, queryAllocs, queryReads float64
	updateUs, updateIOs              float64
	updates                          int
}

// replay loads a standalone Index with the members' configuration over
// the same points, replays the first pool queries once to warm the
// pool and once measured, then applies the update stream: inserts of
// fresh points, each followed, replayLag inserts later, by its delete.
func replay(w workload, in *inputs) (replayed, error) {
	var r replayed
	idx, err := topk.Load(memberConfig(w).Config, in.points)
	if err != nil {
		return r, err
	}
	qs := in.queries[:min(w.replayQueries, len(in.queries))]
	for _, q := range qs {
		idx.TopK(q.x1, q.x2, q.k)
	}
	idx.ResetStats()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for _, q := range qs {
		idx.TopK(q.x1, q.x2, q.k)
	}
	el := time.Since(t0)
	runtime.ReadMemStats(&m1)
	nq := float64(len(qs))
	r.queryUs = float64(el) / 1e3 / nq
	r.queryAllocs = float64(m1.Mallocs-m0.Mallocs) / nq
	r.queryReads = float64(idx.Stats().Reads) / nq

	idx.ResetStats()
	t0 = time.Now()
	for j, p := range in.churn {
		if err := idx.Insert(p.X, p.Score); err != nil {
			return r, err
		}
		r.updates++
		if j >= replayLag {
			old := in.churn[j-replayLag]
			if !idx.Delete(old.X, old.Score) {
				return r, fmt.Errorf("replay: delete of live point %v not found", old)
			}
			r.updates++
		}
	}
	el = time.Since(t0)
	st := idx.Stats()
	r.updateUs = float64(el) / 1e3 / float64(r.updates)
	r.updateIOs = float64(st.Reads+st.Writes) / float64(r.updates)
	return r, nil
}
