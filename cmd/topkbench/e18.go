package main

// E18: the cluster tier. An in-process multi-node cluster is booted
// over httptest — each member owns a quantile score band of the same
// point set, serving internal/serve's /v1 surface over a local Sharded
// store, and a topk.Cluster gateway reads them top score band first —
// then read throughput is measured through the gateway at 1/2/4/8
// nodes and compared against the direct-local baseline (the same data
// in one in-process Sharded, no network).
//
// What the table shows: the absolute gateway-vs-local gap is the cost
// of HTTP/JSON per query (loopback here; a real deployment pays real
// network instead but gains real machines), and the trend across node
// counts is the cost of the band walk — narrower bands hold fewer of a
// range's points, so a read reaches more of them before it holds k.
// In-process members share one CPU budget, so this measures
// coordination overhead growth, not linear capacity growth (that
// requires actual hardware per node).

import (
	"fmt"
	"math"
	"net/http/httptest"
	"sort"
	"time"

	topk "repro"
	"repro/internal/serve"
	"repro/internal/workload"
	"repro/internal/workload/driver"
)

// bootCluster cuts pts into `nodes` quantile score bands, boots one
// httptest member per band (a Sharded store behind internal/serve,
// declaring its band) and returns a gateway Cluster over the fleet.
func bootCluster(cfg topk.Config, pts []topk.Result, nodes int) (*topk.Cluster, []*httptest.Server, error) {
	byScore := append([]topk.Result(nil), pts...)
	sort.Slice(byScore, func(i, j int) bool { return byScore[i].Score < byScore[j].Score })
	servers := make([]*httptest.Server, 0, nodes)
	addrs := make([]string, 0, nodes)
	for i := 0; i < nodes; i++ {
		start, end := i*len(byScore)/nodes, (i+1)*len(byScore)/nodes
		lo, hi := math.Inf(-1), math.Inf(1)
		if i > 0 {
			lo = byScore[start].Score
		}
		if i < nodes-1 {
			hi = byScore[end].Score
		}
		st, err := topk.LoadSharded(topk.ShardedConfig{Config: cfg, Shards: 8}, byScore[start:end])
		if err != nil {
			return nil, servers, err
		}
		srv := httptest.NewServer(serve.New(st, serve.Options{Lo: lo, Hi: hi}))
		servers = append(servers, srv)
		addrs = append(addrs, srv.URL)
	}
	cl, err := topk.NewCluster(topk.ClusterConfig{Members: addrs, Timeout: 30 * time.Second})
	return cl, servers, err
}

func e18(quick bool) {
	n := 1 << 14
	ops := 6000
	if quick {
		n = 1 << 12
		ops = 1200
	}
	gen := workload.NewGen(81)
	pts := gen.Uniform(n, 1e6)
	cfg := topk.Config{BlockWords: 64, ForcePolylog: true, PolylogF: 8, PolylogLeafCap: 2048}
	queries := gen.Queries(256, 1e6, 0.0005, 0.02, 64)

	fmt.Printf("%16s %6s %14s %18s\n", "mode", "nodes", "TopK qps(g=8)", "QueryBatch/16 qps")
	local, err := topk.LoadSharded(topk.ShardedConfig{Config: cfg, Shards: 8}, pts)
	if err != nil {
		panic(err)
	}
	lt := benchRun("e18", "direct-local TopK", func() workload.Throughput {
		return driver.RunTopK(local, 8, ops, queries)
	})
	lb := benchRun("e18", "direct-local QueryBatch/16", func() workload.Throughput {
		return driver.RunBatched(local, 8, ops, 16, queries)
	})
	fmt.Printf("%16s %6s %14.0f %18.0f\n", "direct-local", "-", lt.QPS(), lb.QPS())

	for _, nodes := range []int{1, 2, 4, 8} {
		cl, servers, err := bootCluster(cfg, pts, nodes)
		if err != nil {
			panic(err)
		}
		if cl.Len() != n {
			panic(fmt.Sprintf("gateway sees n=%d, want %d", cl.Len(), n))
		}
		gt := benchRun("e18", fmt.Sprintf("gateway TopK nodes=%d", nodes), func() workload.Throughput {
			return driver.RunTopK(cl, 8, ops, queries)
		})
		gb := benchRun("e18", fmt.Sprintf("gateway QueryBatch/16 nodes=%d", nodes), func() workload.Throughput {
			return driver.RunBatched(cl, 8, ops, 16, queries)
		})
		fmt.Printf("%16s %6d %14.0f %18.0f\n", "gateway", nodes, gt.QPS(), gb.QPS())
		_ = cl.Close()
		for _, s := range servers {
			s.Close()
		}
	}
	fmt.Println("shape check: gateway qps pays per-request HTTP/JSON cost vs direct-local; batched reads amortize")
	fmt.Println("it 16x per round trip. In-process nodes share one CPU, so rising node counts show coordination")
	fmt.Println("overhead, not hardware scaling; capacity scaling needs one machine per member.")
}
