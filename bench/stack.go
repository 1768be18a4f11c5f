package main

import (
	"cmp"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"time"

	topk "repro"
	"repro/internal/serve"
)

// members is the number of score-band members behind the gateway.
const members = 3

// stack is the deployed composition, booted in one process on loopback
// listeners: three `topkd -range` members, each serving a Sharded band
// of the points, and the gateway `topkd -gateway m1,m2,m3 -batch-window
// 1ms`, a Batched over a Cluster of the members.
type stack struct {
	shards  []*topk.Sharded
	servers []*httptest.Server // the members'
	cluster *topk.Cluster
	batched *topk.Batched
	gateway *httptest.Server
	rpc     *http.Transport // the member transport of a traced stack
}

// memberConfig is topkd's member configuration: 8 shards of B = 64,
// the §3.3 structure with f = 8 and leaves of 2048, and the workload's
// buffer pool.
func memberConfig(w workload) topk.ShardedConfig {
	return topk.ShardedConfig{
		Config: topk.Config{
			BlockWords:     blockWords,
			MemoryWords:    w.memWords,
			ForcePolylog:   true,
			PolylogF:       8,
			PolylogLeafCap: 2048,
		},
		Shards: 8,
	}
}

// boot loads the members with quantile score bands of pts and starts
// the gateway over them. A non-nil tracer installs its wrappers at every
// layer boundary.
func boot(w workload, pts []topk.Result, tr *tracer) (s *stack, err error) {
	s = &stack{}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	byScore := slices.Clone(pts)
	slices.SortFunc(byScore, func(a, b topk.Result) int { return cmp.Compare(a.Score, b.Score) })
	addrs := make([]string, members)
	for i := range members {
		lo, hi := math.Inf(-1), math.Inf(1)
		from, to := i*len(byScore)/members, (i+1)*len(byScore)/members
		if i > 0 {
			lo = byScore[from].Score
		}
		if i < members-1 {
			hi = byScore[to].Score
		}
		sh, err := topk.LoadSharded(memberConfig(w), byScore[from:to])
		if err != nil {
			return s, fmt.Errorf("load member %d: %w", i, err)
		}
		s.shards = append(s.shards, sh)
		var st topk.Store = sh
		if tr != nil {
			st = tr.store("shard", st)
		}
		h := serve.New(st, serve.Options{Lo: lo, Hi: hi})
		if tr != nil {
			h = tr.handler("serve.member", h)
		}
		srv := httptest.NewServer(h)
		s.servers = append(s.servers, srv)
		addrs[i] = srv.URL
	}

	cfg := topk.ClusterConfig{Members: addrs, Timeout: 5 * time.Second, HealthInterval: 2 * time.Second}
	if tr != nil {
		// The pool settings of the transport the cluster builds for
		// itself when none is given.
		s.rpc = &http.Transport{MaxIdleConns: 64, MaxIdleConnsPerHost: 16, IdleConnTimeout: 90 * time.Second}
		cfg.Transport = tr.transport(s.rpc)
	}
	if s.cluster, err = topk.NewCluster(cfg); err != nil {
		return s, fmt.Errorf("gateway: %w", err)
	}
	var inner topk.Store = s.cluster
	if tr != nil {
		inner = tr.store("cluster", inner)
	}
	if s.batched, err = topk.NewBatched(inner, topk.BatchedConfig{Window: time.Millisecond}); err != nil {
		return s, fmt.Errorf("gateway: %w", err)
	}
	var outer topk.Store = s.batched
	if tr != nil {
		outer = tr.store("ingest", outer)
	}
	h := serve.New(outer, serve.Options{})
	if tr != nil {
		h = tr.handler("serve.gateway", h)
	}
	s.gateway = httptest.NewServer(h)
	return s, nil
}

// close stops the gateway, then the members, waiting for in-flight
// requests at each.
func (s *stack) close() {
	if s.gateway != nil {
		s.gateway.Close()
	}
	if s.batched != nil {
		_ = s.batched.Close() // flushes nothing: every write was synchronous
	}
	if s.cluster != nil {
		_ = s.cluster.Close() // stops the health prober, drops idle connections
	}
	for _, srv := range s.servers {
		srv.Close()
	}
	if s.rpc != nil {
		s.rpc.CloseIdleConnections()
	}
}

// meters sums the members' simulated-disk meters and live counts.
func (s *stack) meters() (st topk.Stats, live int) {
	for _, sh := range s.shards {
		m := sh.Stats()
		st.Reads += m.Reads
		st.Writes += m.Writes
		st.BlocksLive += m.BlocksLive
		live += sh.Len()
	}
	return st, live
}

// lifecycle sums the members' automatic shard splits and merges.
func (s *stack) lifecycle() (splits, merges int64) {
	for _, sh := range s.shards {
		splits += sh.Splits()
		merges += sh.Merges()
	}
	return splits, merges
}
