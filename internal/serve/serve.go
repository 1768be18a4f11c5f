// Package serve is the HTTP/JSON face of the serving stack, factored
// out of cmd/topkd so every process shape can mount it: topkd serving
// a local Store, topkd in -gateway mode serving a topk.Cluster, the
// in-process member fleets topkbench -exp e18 and the cluster tests
// boot over httptest.
//
// Handlers are written purely against the topk.Store interface, so the
// backend is the caller's choice; backend-specific introspection
// (shard counts, lifecycle counters, topology epoch) is probed through
// optional interfaces. Every route lives under /v1; any other path is
// a 404.
//
// Errors are structured: {"error":{"code":"duplicate_position",
// "message":"..."}} with the code derived from the topk sentinel
// errors (duplicate_position and duplicate_score map to 409,
// invalid_point and malformed requests to 400, out-of-band member
// inserts to 400 out_of_range).
//
// Every body is JSON but the two a gateway speaks to its members, both
// internal/wire's fixed-width binary: GET /v1/topk with Accept:
// application/x-topk-points answers a points body, and POST /v1/batch
// with Content-Type: application/x-topk-batch takes an ops body and
// answers an items body.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"log/slog"
	"math"
	"math/rand/v2"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"

	topk "repro"
	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/wire"
)

// Options configures the handler tree beyond the Store itself.
type Options struct {
	// Lo and Hi, when not both zero, declare the score band this
	// process owns as a cluster member: [Lo, Hi), with ±Inf open ends.
	// The band is served under GET /v1/range for gateway discovery, and
	// inserts whose score falls outside it are rejected with a
	// structured 400 (code out_of_range) — a misrouted write must fail
	// loudly rather than silently violate the cluster's partitioning.
	// The zero value means "unbounded": no /v1/range band, no
	// enforcement (the band (-Inf, +Inf) behaves identically).
	Lo, Hi float64

	// Obs is the telemetry state the handler tree records into —
	// latency histograms, traces, request logs. Nil gets a default
	// Telemetry (discard logger, header-only tracing), so telemetry is
	// always on; cmd/topkd supplies one built from its flags.
	Obs *obs.Telemetry

	// AsyncAck switches /v1/insert and /v1/delete to asynchronous
	// acknowledgement: the write is enqueued into the store's batcher
	// and answered immediately with 202 Accepted plus an outcome ID the
	// client can poll at GET /v1/outcome/{id}. Requires the Store to
	// expose the submit surface (topk.Batched does); ignored otherwise,
	// so a misconfigured process degrades to correct sync serving
	// rather than failing writes.
	AsyncAck bool
}

// outcomeCap bounds the async outcome ring: the newest outcomeCap
// submissions stay queryable, older ones are evicted (a poll for an
// evicted ID is a 404, like an evicted trace).
const outcomeCap = 4096

// banded reports whether a member band was configured.
func (o Options) banded() bool { return o.Lo != 0 || o.Hi != 0 }

// inBand reports whether score falls inside the member band.
func (o Options) inBand(score float64) bool {
	if !o.banded() {
		return true
	}
	return o.Lo <= score && score < o.Hi
}

// asyncWriter is the submit surface of a group-commit store
// (topk.Batched): enqueue a write, get a pollable outcome future.
type asyncWriter interface {
	SubmitInsert(pos, score float64) topk.Future
	SubmitDelete(pos, score float64) topk.Future
}

// New returns the handler tree over st. Handlers use only the
// topk.Store interface; Sharded- or Cluster-specific introspection is
// probed through optional interfaces (seen through batching wrappers
// via their Unwrap — see probe).
func New(st topk.Store, opt Options) http.Handler {
	t := opt.Obs
	if t == nil {
		t = obs.New(obs.Options{})
	}
	// Async-ack needs somewhere to enqueue: the store's own submit
	// surface, probed on the outer store (the batcher is the wrapper
	// itself, never an inner layer).
	aw, _ := st.(asyncWriter)
	asyncAck := opt.AsyncAck && aw != nil
	outcomes := obs.NewRing[topk.Future](outcomeCap)
	// addOutcome registers f under a fresh outcome ID and returns it.
	addOutcome := func(f topk.Future) string {
		id := fmt.Sprintf("%016x", rand.Uint64())
		outcomes.Put(id, f)
		return id
	}
	mux := http.NewServeMux()

	// writeJSON logs encode failures (a client gone mid-response,
	// usually) through the structured logger instead of dropping them.
	writeJSON := func(w http.ResponseWriter, v any) { writeJSONLog(w, v, t.Log) }

	// handle registers h under /v1/pattern.
	handle := func(method, pattern string, h http.HandlerFunc) {
		mux.HandleFunc(method+" /v1"+pattern, h)
	}

	handle("POST", "/insert", func(w http.ResponseWriter, r *http.Request) {
		req, err := decodePoint(r.Body)
		if err != nil {
			httpError(w, http.StatusBadRequest, "bad_request", "bad json: %v", err)
			return
		}
		if !opt.inBand(req.Score) {
			httpError(w, http.StatusBadRequest, "out_of_range",
				"score %v outside this member's band [%v, %v)", req.Score, opt.Lo, opt.Hi)
			return
		}
		if asyncAck {
			// Async-ack mode: enqueue into the batcher and answer 202
			// with a pollable outcome ID. The band check above already
			// ran — a misrouted write still fails loudly and
			// synchronously; only in-band writes are deferred.
			f := func() topk.Future {
				defer t.TimeOpCtx(r.Context(), "insert").End()
				return aw.SubmitInsert(req.X, req.Score)
			}()
			writeJSONStatus(w, http.StatusAccepted,
				map[string]any{"accepted": true, "outcome": addOutcome(f)}, t.Log)
			return
		}
		// Insert is atomic check-and-insert under the shard lock, so
		// concurrent duplicates race to one 200 and one 409 — and a
		// duplicate score anywhere in the fleet is a 409 too.
		st := bindStore(st, r)
		err = func() error { defer t.TimeOpCtx(r.Context(), "insert").End(); return st.Insert(req.X, req.Score) }()
		if err != nil {
			writeErr(w, err)
			return
		}
		bp := pagePool.Get().(*[]byte)
		writePooled(w, jsonContentType, bp, appendInsertAck((*bp)[:0], st.Len()), t.Log)
	})

	handle("POST", "/delete", func(w http.ResponseWriter, r *http.Request) {
		req, err := decodePoint(r.Body)
		if err != nil {
			httpError(w, http.StatusBadRequest, "bad_request", "bad json: %v", err)
			return
		}
		if asyncAck {
			f := func() topk.Future {
				defer t.TimeOpCtx(r.Context(), "delete").End()
				return aw.SubmitDelete(req.X, req.Score)
			}()
			writeJSONStatus(w, http.StatusAccepted,
				map[string]any{"accepted": true, "outcome": addOutcome(f)}, t.Log)
			return
		}
		st := bindStore(st, r)
		found := func() bool { defer t.TimeOpCtx(r.Context(), "delete").End(); return st.Delete(req.X, req.Score) }()
		bp := pagePool.Get().(*[]byte)
		writePooled(w, jsonContentType, bp, appendDeleteAck((*bp)[:0], found, st.Len()), t.Log)
	})

	handle("POST", "/batch", func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("Content-Type") == wire.BatchType {
			serveBinaryBatch(w, r, bindStore(st, r), opt, t)
			return
		}
		var req struct {
			Ops []wire.Op `json:"ops"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			httpError(w, http.StatusBadRequest, "bad_request", "bad json: %v", err)
			return
		}
		items, err := runBatch(r.Context(), bindStore(st, r), opt, t, req.Ops)
		if err != nil {
			httpError(w, http.StatusBadRequest, "bad_request", "%v", err)
			return
		}
		writeJSON(w, map[string]any{"results": items, "n": st.Len()})
	})

	handle("GET", "/topk", func(w http.ResponseWriter, r *http.Request) {
		q := readRangeQuery(r.URL.RawQuery)
		x1, err1 := strconv.ParseFloat(q.x1, 64)
		x2, err2 := strconv.ParseFloat(q.x2, 64)
		k, err3 := strconv.Atoi(q.k)
		if err1 != nil || err2 != nil || err3 != nil {
			httpError(w, http.StatusBadRequest, "bad_request", "need float x1, x2 and int k")
			return
		}
		// Pagination for large k: ?offset=N skips the N highest-scoring
		// qualifying points, so a client can walk a huge answer in
		// pages of k without the server ever allocating beyond the live
		// size (the clamp below caps offset+k at n first).
		off := 0
		if q.offset != "" {
			var err error
			if off, err = strconv.Atoi(q.offset); err != nil || off < 0 {
				httpError(w, http.StatusBadRequest, "bad_request", "offset must be a non-negative int")
				return
			}
		}
		st := bindStore(st, r)
		res := func() []topk.Result {
			defer t.TimeOpCtx(r.Context(), "topk").End()
			return st.TopK(x1, x2, ClampPage(st, off, k))
		}()
		writePage(w, r.Header.Get("Accept") == wire.PointsType, off, res[min(off, len(res)):], t.Log)
	})

	handle("GET", "/count", func(w http.ResponseWriter, r *http.Request) {
		q := readRangeQuery(r.URL.RawQuery)
		x1, err1 := strconv.ParseFloat(q.x1, 64)
		x2, err2 := strconv.ParseFloat(q.x2, 64)
		if err1 != nil || err2 != nil {
			httpError(w, http.StatusBadRequest, "bad_request", "need float x1 and x2")
			return
		}
		st := bindStore(st, r)
		n := func() int { defer t.TimeOpCtx(r.Context(), "count").End(); return st.Count(x1, x2) }()
		writeJSON(w, map[string]any{"count": n})
	})

	// The topology epoch as a cheap change signal: gateways and caches
	// poll it to detect member topology changes without paying for
	// /v1/stats. The cluster health checker also uses it as its
	// liveness probe.
	// Backends without an epoch (a single Index) report 0 — the
	// endpoint stays probeable on every backend.
	handle("GET", "/epoch", func(w http.ResponseWriter, r *http.Request) {
		var e int64
		if ep, ok := probe[interface{ Epoch() int64 }](st); ok {
			e = ep.Epoch()
		}
		writeJSON(w, map[string]any{"epoch": e})
	})

	// The member's score band, for gateway discovery. Open ends are
	// null (JSON cannot carry ±Inf); an unbanded process reports both
	// ends open.
	handle("GET", "/range", func(w http.ResponseWriter, r *http.Request) {
		var lo, hi *float64
		if opt.banded() {
			if !math.IsInf(opt.Lo, -1) {
				lo = &opt.Lo
			}
			if !math.IsInf(opt.Hi, 1) {
				hi = &opt.Hi
			}
		}
		writeJSON(w, map[string]any{"lo": lo, "hi": hi, "n": st.Len()})
	})

	// A finished trace's span tree, by ID. The ID comes out of the
	// X-Topkd-Trace response header of the traced request (issued by
	// the middleware, or adopted from the client's own header). On a
	// gateway the local tree — root plus one span per member RPC plus
	// the merge — is stitched: the handler fans back out to the members
	// that served RPCs for this trace, fetches each member's own span
	// tree for the same ID, and splices it under the RPC span that
	// issued it (matched by the X-Topkd-Parent-Span ID the client
	// stamped), so one lookup returns the complete cross-process tree.
	// Traces live in a bounded ring, so a 404 means "never sampled or
	// already evicted", not "never happened"; a member that has evicted
	// (or never sampled) its half degrades that subtree gracefully —
	// the RPC span stays, unspliced.
	handle("GET", "/trace/{id}", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		tr := t.Tracer.Get(id)
		if tr == nil {
			httpError(w, http.StatusNotFound, "trace_not_found",
				"no finished trace %q (not sampled, or evicted from the ring)", id)
			return
		}
		tree := tr.Tree()
		if tf, ok := probe[traceFetcher](st); ok {
			stitchMembers(r.Context(), tf, id, &tree)
		}
		writeJSON(w, tree)
	})

	// The outcome of an async-acked write, by the ID the 202 response
	// carried. Outcomes live in a bounded ring like traces, so a 404
	// means "unknown or already evicted". A resolved outcome reports
	// done plus either ok or the same structured error the synchronous
	// endpoint would have returned — error fidelity survives the 202.
	handle("GET", "/outcome/{id}", func(w http.ResponseWriter, r *http.Request) {
		f, ok := outcomes.Get(r.PathValue("id"))
		if !ok {
			httpError(w, http.StatusNotFound, "outcome_not_found",
				"no outcome %q (unknown, or evicted from the ring)", r.PathValue("id"))
			return
		}
		if !f.Ready() {
			writeJSON(w, map[string]any{"done": false})
			return
		}
		if err := f.Err(); err != nil {
			writeJSON(w, map[string]any{"done": true, "ok": false, "error": toErrJSON(err)})
			return
		}
		writeJSON(w, map[string]any{"done": true, "ok": true})
	})

	// Administrative twins of Store.ResetStats/DropCache, so remote
	// operators (and the Cluster client, which must implement the full
	// Store contract over the wire) can reach them.
	handle("POST", "/stats/reset", func(w http.ResponseWriter, r *http.Request) {
		st.ResetStats()
		writeJSON(w, map[string]any{"ok": true})
	})
	handle("POST", "/cache/drop", func(w http.ResponseWriter, r *http.Request) {
		st.DropCache()
		writeJSON(w, map[string]any{"ok": true})
	})

	// Prometheus text-format metrics, the machine-scrapable twin of the
	// JSON /v1/stats. On the sharded backend everything here is served
	// from the topology snapshot, atomic counters and brief per-shard
	// meter reads — a scrape never takes the topology lock, so it
	// cannot stall lifecycle or update writers (on -backend single the
	// store mutex still serializes the scrape with traffic, like every
	// other request there). On a gateway the same handler reports the
	// cluster-aggregated meters summed across members.
	handle("GET", "/metrics", func(w http.ResponseWriter, r *http.Request) {
		s := st.Stats()
		var b strings.Builder
		metric := func(name, typ, help string, v int64) {
			fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n%s %d\n", name, help, name, typ, name, v)
		}
		metric("topkd_points_live", "gauge", "Number of live points.", int64(st.Len()))
		metric("topkd_io_reads_total", "counter", "Block reads charged by the simulated EM disks (retired disks included).", s.Reads)
		metric("topkd_io_writes_total", "counter", "Block writes charged by the simulated EM disks (retired disks included).", s.Writes)
		metric("topkd_blocks_live", "gauge", "Disk blocks currently occupied fleet-wide.", s.BlocksLive)
		metric("topkd_blocks_peak", "gauge", "High-water mark of the fleet-wide live-block total.", s.BlocksPeak)
		if sh, ok := probe[interface{ NumShards() int }](st); ok {
			metric("topkd_shards", "gauge", "Current shard count.", int64(sh.NumShards()))
		}
		if lc, ok := probe[interface {
			Splits() int64
			Merges() int64
		}](st); ok {
			metric("topkd_shard_splits_total", "counter", "Automatic shard splits since startup.", lc.Splits())
			metric("topkd_shard_merges_total", "counter", "Automatic shard merges since startup.", lc.Merges())
		}
		if bs, ok := st.(interface{ BatcherStats() topk.BatcherStats }); ok {
			s := bs.BatcherStats()
			metric("topkd_ingest_flushes_total", "counter", "Write groups committed by the ingest batcher.", s.Flushes)
			metric("topkd_ingest_ops_total", "counter", "Single-op writes committed through the ingest batcher.", s.Ops)
			metric("topkd_ingest_group_max", "gauge", "Largest single group the ingest batcher has committed.", s.MaxGroup)
			metric("topkd_ingest_pending", "gauge", "Writes enqueued in the ingest batcher and not yet committed.", s.Pending)
		}
		if it, ok := st.(interface{ IngestTelemetry() *ingest.Telemetry }); ok {
			tel := it.IngestTelemetry()
			obs.WriteCountHistogram(&b, "topkd_ingest_group_size",
				"Ops per committed write group (value histogram, power-of-two buckets).", &tel.GroupSize)
			obs.WriteHistogram(&b, "topkd_ingest_flush_duration_seconds",
				"Backend flush latency per committed write group.", &tel.FlushLatency)
			obs.WriteHistogram(&b, "topkd_ingest_backpressure_wait_seconds",
				"Time producers spent driving commits because pending writes exceeded MaxPending.", &tel.BackpressureWait)
			fmt.Fprintf(&b, "# HELP topkd_ingest_flushes_by_reason_total Write groups committed, by the trigger that drove the flush.\n"+
				"# TYPE topkd_ingest_flushes_by_reason_total counter\n")
			for _, rc := range tel.ReasonCounts() {
				fmt.Fprintf(&b, "topkd_ingest_flushes_by_reason_total{reason=%q} %d\n", rc.Reason, rc.N)
			}
		}
		if asyncAck {
			metric("topkd_outcome_ring_occupancy", "gauge", "Async-ack outcomes currently retained and queryable.", int64(outcomes.Len()))
			metric("topkd_outcome_ring_evictions_total", "counter", "Async-ack outcomes evicted from the bounded ring (the cause of outcome_not_found).", outcomes.Evictions())
		}
		metric("topkd_trace_ring_evictions_total", "counter", "Finished traces evicted from the bounded ring (the cause of trace_not_found).", t.Tracer.RingEvictions())
		if ep, ok := probe[interface{ Epoch() int64 }](st); ok {
			// A gauge, not a counter: it tracks the snapshot version,
			// which also advances on stats resets, not only on
			// split/merge/rebalance lifecycle events.
			metric("topkd_topology_epoch", "gauge", "Topology snapshot version; increments on every snapshot publish (splits, merges, rebalances, stats resets).", ep.Epoch())
		}
		if cl, ok := probe[interface {
			Nodes() int
			Ejected() int
		}](st); ok {
			metric("topkd_cluster_nodes", "gauge", "Member nodes configured in the cluster.", int64(cl.Nodes()))
			metric("topkd_cluster_nodes_ejected", "gauge", "Member nodes currently ejected by the health checker.", int64(cl.Ejected()))
		}
		if rf, ok := probe[interface{ ReadFailovers() int64 }](st); ok {
			metric("topkd_cluster_read_failovers_total", "counter", "Reads retried on a replica after the preferred member failed.", rf.ReadFailovers())
		}
		if he, ok := probe[interface {
			Ejections() int64
			Recoveries() int64
		}](st); ok {
			metric("topkd_cluster_ejections_total", "counter", "Ejection episodes begun by the health checker (healthy to ejected transitions).", he.Ejections())
			metric("topkd_cluster_recoveries_total", "counter", "Ejection episodes ended by a member answering again.", he.Recoveries())
		}
		metric("topkd_http_in_flight_requests", "gauge", "Requests currently inside the serving middleware.", t.InFlight())
		obs.WriteHistogramVec(&b, "topkd_http_request_duration_seconds",
			"Request latency by endpoint.", "endpoint", t.HTTP)
		obs.WriteHistogramVec(&b, "topkd_store_op_duration_seconds",
			"Store operation latency by op.", "op", t.Ops)
		if rv, ok := probe[interface{ RPCDurations() *obs.Vec }](st); ok {
			obs.WriteHistogramVec(&b, "topkd_cluster_rpc_duration_seconds",
				"Member RPC latency by member address, as seen by this gateway's cluster client.", "member", rv.RPCDurations())
		}
		if rb, ok := probe[interface{ ReadBands() *obs.CountHist }](st); ok {
			obs.WriteCountHistogram(&b, "topkd_cluster_read_bands",
				"Score bands asked per top-k read, walking down from the top band until k points are held (value histogram).", rb.ReadBands())
		}
		obs.WriteRuntimeMetrics(&b)
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = w.Write([]byte(b.String()))
	})

	// Fleet-federated metrics, gateway only: scrape every member's
	// /v1/metrics, merge counters and histograms exactly (every
	// histogram in the fleet shares the identical 2^i bucket
	// boundaries, so summing per-bucket counts is lossless), and label
	// per-member gauges by node address. One scrape yields true fleet
	// p50/p95/p99 instead of N pages to combine client-side. The
	// gateway's own process page stays at /v1/metrics.
	handle("GET", "/metrics/fleet", func(w http.ResponseWriter, r *http.Request) {
		ms, ok := probe[metricsScraper](st)
		if !ok {
			httpError(w, http.StatusNotFound, "not_gateway",
				"metrics federation needs a cluster backend (this process serves no members)")
			return
		}
		pages, total := ms.ScrapeMetrics(r.Context())
		fams, err := obs.Federate(pages)
		if err != nil {
			httpError(w, http.StatusBadGateway, "bad_member_page", "federation failed: %v", err)
			return
		}
		var b strings.Builder
		fmt.Fprintf(&b, "# HELP topkd_fleet_members Member nodes configured in the fleet.\n"+
			"# TYPE topkd_fleet_members gauge\ntopkd_fleet_members %d\n", total)
		fmt.Fprintf(&b, "# HELP topkd_fleet_members_scraped Member nodes that answered this federation scrape.\n"+
			"# TYPE topkd_fleet_members_scraped gauge\ntopkd_fleet_members_scraped %d\n", len(pages))
		obs.WriteFamilies(&b, fams)
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = w.Write([]byte(b.String()))
	})

	handle("GET", "/stats", func(w http.ResponseWriter, r *http.Request) {
		s := st.Stats()
		out := map[string]any{
			"n":           st.Len(),
			"reads":       s.Reads,
			"writes":      s.Writes,
			"blocks_live": s.BlocksLive,
			"blocks_peak": s.BlocksPeak,
		}
		if sh, ok := probe[interface{ NumShards() int }](st); ok {
			out["shards"] = sh.NumShards()
		}
		// Shard-lifecycle counters: how many automatic splits and
		// delete-triggered merges the router has performed.
		if lc, ok := probe[interface {
			Splits() int64
			Merges() int64
		}](st); ok {
			out["splits"] = lc.Splits()
			out["merges"] = lc.Merges()
		}
		// Cluster introspection: node counts on a gateway.
		if cl, ok := probe[interface {
			Nodes() int
			Ejected() int
		}](st); ok {
			out["nodes"] = cl.Nodes()
			out["ejected"] = cl.Ejected()
		}
		// Group-commit counters when the store batches writes, plus the
		// write-path telemetry: flush-reason counters and group-size /
		// flush-latency quantiles from the same histograms /v1/metrics
		// exports raw.
		if bs, ok := st.(interface{ BatcherStats() topk.BatcherStats }); ok {
			s := bs.BatcherStats()
			batcher := map[string]any{
				"flushes":   s.Flushes,
				"ops":       s.Ops,
				"max_group": s.MaxGroup,
				"pending":   s.Pending,
			}
			if it, ok := st.(interface{ IngestTelemetry() *ingest.Telemetry }); ok {
				tel := it.IngestTelemetry()
				reasons := map[string]int64{}
				for _, rc := range tel.ReasonCounts() {
					reasons[rc.Reason] = rc.N
				}
				batcher["flush_reasons"] = reasons
				if gs := tel.GroupSize.Snapshot(); gs.Count > 0 {
					batcher["group_size"] = map[string]any{
						"count": gs.Count,
						"p50":   gs.Quantile(0.50),
						"p95":   gs.Quantile(0.95),
						"p99":   gs.Quantile(0.99),
					}
				}
				if fl := tel.FlushLatency.Snapshot(); fl.Count > 0 {
					batcher["flush_latency"] = map[string]any{
						"count":  fl.Count,
						"p50_ms": float64(fl.Quantile(0.50)) / 1e6,
						"p95_ms": float64(fl.Quantile(0.95)) / 1e6,
						"p99_ms": float64(fl.Quantile(0.99)) / 1e6,
					}
				}
			}
			if asyncAck {
				batcher["outcome_ring"] = map[string]any{"occupancy": outcomes.Len(), "evictions": outcomes.Evictions()}
			}
			out["batcher"] = batcher
		}
		// Latency quantiles per endpoint, estimated from the same
		// histograms /v1/metrics exports raw (so p99 here is within one
		// log-scaled bucket — a factor of 2 — of the true value).
		if snaps := t.HTTP.Snapshots(); len(snaps) > 0 {
			lat := make(map[string]any, len(snaps))
			for ep, s := range snaps {
				lat[ep] = map[string]any{
					"count":  s.Count,
					"p50_ms": float64(s.Quantile(0.50)) / 1e6,
					"p95_ms": float64(s.Quantile(0.95)) / 1e6,
					"p99_ms": float64(s.Quantile(0.99)) / 1e6,
				}
			}
			out["latency"] = lat
		}
		writeJSON(w, out)
	})

	// Middleware order: the recover wrapper sits inside the telemetry
	// middleware, so a panicking handler still records its latency, its
	// 500 status and its request log.
	return t.Middleware(WithRecover(mux))
}

// probe type-asserts st against an optional introspection interface,
// unwrapping batching (or future) decorators along the way: a
// topk.Batched over a Sharded must not hide the shard counters from
// /v1/stats just because a wrapper sits in front. The outer store wins
// when both layers implement T.
func probe[T any](st topk.Store) (T, bool) {
	for st != nil {
		if v, ok := st.(T); ok {
			return v, true
		}
		u, ok := st.(interface{ Unwrap() topk.Store })
		if !ok {
			break
		}
		st = u.Unwrap()
	}
	var zero T
	return zero, false
}

// metricsScraper is the optional gateway surface behind metrics
// federation: fetch every member's raw metrics page (topk.Cluster).
type metricsScraper interface {
	ScrapeMetrics(ctx context.Context) ([]obs.MetricsPage, int)
}

// traceFetcher is the optional gateway surface behind trace stitching:
// fetch one member's span tree for a trace ID (topk.Cluster).
type traceFetcher interface {
	FetchTrace(ctx context.Context, addr, id string) (obs.TraceJSON, error)
}

// stitchMembers completes a gateway trace: every distinct member
// address in the tree served at least one RPC for this trace, so fetch
// each member's own half in parallel and splice the subtrees under the
// RPC spans that issued them. Failures degrade gracefully — a member
// that is down, never sampled the trace, or already evicted it simply
// leaves its RPC span childless.
func stitchMembers(ctx context.Context, tf traceFetcher, id string, tree *obs.TraceJSON) {
	addrs := obs.SpanAddrs(tree.Root)
	if len(addrs) == 0 {
		return
	}
	subs := make([]*obs.TraceJSON, len(addrs))
	var wg sync.WaitGroup
	for i, addr := range addrs {
		wg.Add(1)
		go func(i int, addr string) {
			defer wg.Done()
			if mt, err := tf.FetchTrace(ctx, addr, id); err == nil {
				subs[i] = &mt
			}
		}(i, addr)
	}
	wg.Wait()
	members := make([]obs.TraceJSON, 0, len(subs))
	for _, s := range subs {
		if s != nil {
			members = append(members, *s)
		}
	}
	obs.Stitch(&tree.Root, members)
}

// bindStore gives st the request's context when the backend can carry
// one — the optional WithContext interface, implemented by the gateway
// Cluster so member RPCs inherit the client's deadline, cancellation
// and trace. Local backends, which have no blocking I/O to cancel,
// don't implement it and are returned unchanged.
func bindStore(st topk.Store, r *http.Request) topk.Store {
	if b, ok := st.(interface {
		WithContext(context.Context) topk.Store
	}); ok {
		return b.WithContext(r.Context())
	}
	return st
}

// runBatch executes a mixed /v1/batch payload: the update ops run
// first as one ApplyBatch, then the query ops as one QueryBatch, and
// the per-op outcomes are stitched back into request order. Queries
// therefore observe every update of their own batch (on Sharded, the
// documented caveat applies within the update half: an insert reusing
// a score deleted on another shard in the same batch may lose the
// race and be rejected).
//
// Query ops paginate exactly like GET /v1/topk: offset skips the
// offset highest-scoring qualifying points, the fetch is clamped to
// min(n, offset+k), and a negative offset is a structured 400 for the
// whole batch (like an unknown op — the request itself is malformed).
func runBatch(ctx context.Context, st topk.Store, opt Options, t *obs.Telemetry, ops []wire.Op) ([]wire.Item, error) {
	updates := make([]topk.BatchOp, 0, len(ops))
	updateAt := make([]int, 0, len(ops))
	queries := make([]topk.Query, 0)
	queryAt := make([]int, 0)
	queryOff := make([]int, 0)
	bandErr := make(map[int]*wire.Error)
	for i, op := range ops {
		switch op.Op {
		case "insert":
			if !opt.inBand(op.Score) {
				bandErr[i] = &wire.Error{Code: wire.CodeOutOfRange,
					Message: fmt.Sprintf("score %v outside this member's band [%v, %v)", op.Score, opt.Lo, opt.Hi)}
				continue
			}
			updates = append(updates, topk.BatchOp{X: op.X, Score: op.Score})
			updateAt = append(updateAt, i)
		case "delete":
			updates = append(updates, topk.BatchOp{Delete: true, X: op.X, Score: op.Score})
			updateAt = append(updateAt, i)
		case "query":
			if op.Offset < 0 {
				return nil, fmt.Errorf("op %d: offset must be a non-negative int", i)
			}
			queries = append(queries, topk.Query{X1: op.X1, X2: op.X2, K: op.K})
			queryAt = append(queryAt, i)
			queryOff = append(queryOff, op.Offset)
		default:
			return nil, fmt.Errorf("op %d: unknown op %q (want insert, delete or query)", i, op.Op)
		}
	}
	items := make([]wire.Item, len(ops))
	for i, e := range bandErr {
		items[i] = wire.Item{Error: e}
	}
	applied := func() []error {
		if len(updates) == 0 {
			return nil
		}
		defer t.TimeOpCtx(ctx, "apply_batch").End()
		return st.ApplyBatch(updates)
	}()
	for j, err := range applied {
		if err != nil {
			items[updateAt[j]] = wire.Item{Error: toErrJSON(err)}
		} else {
			items[updateAt[j]] = wire.Item{OK: true}
		}
	}
	// Clamp only now: the batch's own inserts may have grown the live
	// set the queries are about to observe. The fetch covers the
	// skipped offset prefix plus the page, capped at the live size.
	for j := range queries {
		queries[j].K = ClampPage(st, queryOff[j], queries[j].K)
	}
	answered := func() [][]topk.Result {
		if len(queries) == 0 {
			return nil
		}
		defer t.TimeOpCtx(ctx, "query_batch").End()
		return st.QueryBatch(queries)
	}()
	for j, res := range answered {
		if off := queryOff[j]; off < len(res) {
			res = res[off:]
		} else {
			res = nil
		}
		items[queryAt[j]] = wire.Item{OK: true, Results: res}
	}
	return items, nil
}

// serveBinaryBatch answers a /v1/batch whose body is a wire.BatchType
// ops body with an items body, through one pooled buffer that holds
// the request and then the answer: the parsed ops keep no reference to
// it. A body wire.ParseOps refuses is a 400, as malformed JSON is.
func serveBinaryBatch(w http.ResponseWriter, r *http.Request, st topk.Store, opt Options, t *obs.Telemetry) {
	bp := pagePool.Get().(*[]byte)
	buf := bytes.NewBuffer((*bp)[:0])
	_, err := buf.ReadFrom(r.Body)
	body := buf.Bytes()
	var ops []wire.Op
	if err == nil {
		ops, err = wire.ParseOps(body, nil)
	}
	var items []wire.Item
	if err == nil {
		items, err = runBatch(r.Context(), st, opt, t, ops)
	}
	if err != nil {
		pagePool.Put(bp)
		httpError(w, http.StatusBadRequest, "bad_request", "%v", err)
		return
	}
	writePooled(w, batchContentType, bp, wire.AppendItems(body[:0], items), t.Log)
}

// ClampPage sizes the fetch for a paginated read: the offset points
// plus the page of k, capped at the live size. A page that is empty by
// construction — k ≤ 0, or the offset at/past the live size — fetches
// nothing at all, so a cheap request can never force a full
// materialization it then discards. The comparison form avoids
// overflow when a client sends offset and k both near MaxInt.
func ClampPage(st topk.Store, off, k int) int {
	n := st.Len()
	if k <= 0 || off >= n {
		return 0
	}
	if k > n {
		k = n
	}
	if off > n-k {
		return n
	}
	return off + k
}

// WithRecover turns handler panics into JSON 500s. Contract
// violations return errors in API v1, so a panic here is an internal
// invariant failure — the router releases its locks on panic
// (internal/shard unlocks with defer), so one poisoned request cannot
// wedge the fleet; without this middleware net/http would just sever
// the connection.
func WithRecover(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				log.Printf("topkd: %s %s panicked: %v", r.Method, r.URL.Path, v)
				httpError(w, http.StatusInternalServerError, "internal", "internal error: %v", v)
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// rangeQuery holds the parameters GET /v1/topk and /v1/count read,
// each as url.Values.Get would return it: its first value, or "".
type rangeQuery struct{ x1, x2, k, offset string }

// readRangeQuery reads a rangeQuery from raw, a request's RawQuery, in
// one pass and with url.ParseQuery's semantics: pairs split at '&', a
// pair that holds ';' or whose key or value does not unescape is
// dropped, and the first value of a key wins. It builds no url.Values
// and unescapes only a key or value that holds '%' or '+', so a plain
// query string costs no allocation.
func readRangeQuery(raw string) rangeQuery {
	var q rangeQuery
	var seen [4]bool
	for raw != "" {
		var pair string
		pair, raw, _ = strings.Cut(raw, "&")
		if pair == "" || strings.Contains(pair, ";") {
			continue
		}
		key, val, _ := strings.Cut(pair, "=")
		key, ok := unescapeQuery(key)
		if !ok {
			continue
		}
		if val, ok = unescapeQuery(val); !ok {
			continue
		}
		var i int
		var dst *string
		switch key {
		case "x1":
			i, dst = 0, &q.x1
		case "x2":
			i, dst = 1, &q.x2
		case "k":
			i, dst = 2, &q.k
		case "offset":
			i, dst = 3, &q.offset
		default:
			continue
		}
		if !seen[i] {
			seen[i], *dst = true, val
		}
	}
	return q
}

// unescapeQuery is url.QueryUnescape for a string that may need it.
func unescapeQuery(s string) (string, bool) {
	if !strings.ContainsAny(s, "%+") {
		return s, true
	}
	u, err := url.QueryUnescape(s)
	return u, err == nil
}

// pointPrefix is how much of a /v1/insert or /v1/delete body
// decodePoint reads before it decides how to decode it: a canonical body
// of two float64s in their longest shortest spellings takes 63 bytes.
const pointPrefix = 128

var prefixPool = sync.Pool{New: func() any { return new([pointPrefix]byte) }}

// decodePoint reads the point of a /v1/insert or /v1/delete body, as
// json.NewDecoder(body).Decode would, with the same value or the same
// error. A body that ends within pointPrefix bytes and has the
// canonical form {"x":<number>,"score":<number>}, then optional
// whitespace, is parsed without reflection. Any other body goes to
// encoding/json, over the bytes already read and the rest: other key
// order or case, unknown keys, null, an out-of-range number, trailing
// bytes and a longer body among them.
func decodePoint(body io.Reader) (topk.Result, error) {
	buf := prefixPool.Get().(*[pointPrefix]byte)
	defer prefixPool.Put(buf)
	n, err := io.ReadFull(body, buf[:])
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		if p, ok := parsePoint(buf[:n]); ok {
			return p, nil
		}
	}
	var p topk.Result
	err = json.NewDecoder(io.MultiReader(bytes.NewReader(buf[:n]), body)).Decode(&p)
	return p, err
}

// parsePoint parses b if it is a canonical point body: exactly
// {"x":<number>,"score":<number>} and optional JSON whitespace, both
// numbers of the JSON grammar and in float64's range.
func parsePoint(b []byte) (p topk.Result, ok bool) {
	if b, ok = bytes.CutPrefix(b, []byte(`{"x":`)); !ok {
		return p, false
	}
	if p.X, b, ok = cutNumber(b); !ok {
		return p, false
	}
	if b, ok = bytes.CutPrefix(b, []byte(`,"score":`)); !ok {
		return p, false
	}
	if p.Score, b, ok = cutNumber(b); !ok {
		return p, false
	}
	if b, ok = bytes.CutPrefix(b, []byte("}")); !ok {
		return p, false
	}
	return p, len(bytes.TrimLeft(b, " \t\r\n")) == 0
}

// cutNumber parses the JSON number b opens with, as encoding/json
// would, and returns the bytes after it; ok is false when b opens with
// no number of the JSON grammar, or with one out of float64's range.
func cutNumber(b []byte) (f float64, rest []byte, ok bool) {
	i := 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = skipDigits(b, i)
	default:
		return 0, nil, false
	}
	if i < len(b) && b[i] == '.' {
		start := i + 1
		if i = skipDigits(b, start); i == start {
			return 0, nil, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		start := i
		if i = skipDigits(b, i); i == start {
			return 0, nil, false
		}
	}
	f, err := strconv.ParseFloat(string(b[:i]), 64)
	return f, b[i:], err == nil
}

// skipDigits returns the index of the first byte of b at or after i
// that is not an ASCII digit.
func skipDigits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// encBuf is a pooled response-encode buffer with a json.Encoder bound
// to it once — the encoder itself allocates on construction, so the
// pool holds the pair, not just the bytes.
type encBuf struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var encPool = sync.Pool{New: func() any {
	e := &encBuf{}
	e.enc = json.NewEncoder(&e.buf)
	return e
}}

// encPoolMax caps what goes back in the pool: one giant response (a
// /v1/batch of wide queries) must not pin its buffer for the life of
// the process.
const encPoolMax = 64 << 10

// writeJSONLog renders v as the response body through a pooled
// buffer+encoder, logging failures (a vanished client, an unencodable
// value) through the structured logger rather than dropping them.
// Encoding into the buffer first also means an encode error cannot
// leave a half-written 200 on the wire.
func writeJSONLog(w http.ResponseWriter, v any, log *slog.Logger) {
	writeJSONStatus(w, 0, v, log)
}

// writeJSONStatus is writeJSONLog with an explicit status code (0
// means the default 200) — the async-ack path answers 202.
func writeJSONStatus(w http.ResponseWriter, status int, v any, log *slog.Logger) {
	e := encPool.Get().(*encBuf)
	e.buf.Reset()
	if err := e.enc.Encode(v); err != nil {
		encPool.Put(e)
		log.Error("response encode failed", slog.String("err", err.Error()))
		httpError(w, http.StatusInternalServerError, "internal", "response encode failed")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if status != 0 {
		w.WriteHeader(status)
	}
	if _, err := w.Write(e.buf.Bytes()); err != nil {
		log.Error("response write failed", slog.String("err", err.Error()))
	}
	if e.buf.Cap() <= encPoolMax {
		encPool.Put(e)
	}
}

// pagePool holds the buffers writePage encodes into. Only buffers up
// to pagePoolMax go back: a 4,096-point page is 64 KiB as points and
// about three times that as JSON, and one page of a million points must
// not pin its buffer for the life of the process.
var pagePool = sync.Pool{New: func() any { return new([]byte) }}

const pagePoolMax = 1 << 20

// pointsContentType, batchContentType and jsonContentType are the
// Content-Types of the bodies writePooled writes, each one slice shared
// by every response so the header costs no allocation of its own;
// nothing writes to them.
var (
	pointsContentType = []string{wire.PointsType}
	batchContentType  = []string{wire.BatchType}
	jsonContentType   = []string{"application/json"}
)

// writePage renders a /v1/topk page through a pooled buffer: as the
// binary points body when points is set, else as JSON.
func writePage(w http.ResponseWriter, points bool, off int, res []topk.Result, log *slog.Logger) {
	bp := pagePool.Get().(*[]byte)
	if points {
		writePooled(w, pointsContentType, bp, wire.AppendPoints((*bp)[:0], res), log)
	} else {
		writePooled(w, jsonContentType, bp, wire.AppendTopK((*bp)[:0], off, res), log)
	}
}

// writePooled writes b, a body appended into the pooled buffer bp,
// under contentType, and returns the buffer to pagePool.
func writePooled(w http.ResponseWriter, contentType []string, bp *[]byte, b []byte, log *slog.Logger) {
	w.Header()["Content-Type"] = contentType
	if _, err := w.Write(b); err != nil {
		log.Error("response write failed", slog.String("err", err.Error()))
	}
	if cap(b) <= pagePoolMax {
		*bp = b
		pagePool.Put(bp)
	}
}

// appendInsertAck and appendDeleteAck append the 200 bodies of a
// synchronous /v1/insert and /v1/delete: the bytes encoding/json writes
// for the maps {"ok": true, "n": n} and {"found": found, "n": n}, keys
// sorted and a newline after, as TestGoldenBytes pins them.
func appendInsertAck(dst []byte, n int) []byte {
	dst = strconv.AppendInt(append(dst, `{"n":`...), int64(n), 10)
	return append(dst, `,"ok":true}`+"\n"...)
}

func appendDeleteAck(dst []byte, found bool, n int) []byte {
	dst = strconv.AppendBool(append(dst, `{"found":`...), found)
	dst = strconv.AppendInt(append(dst, `,"n":`...), int64(n), 10)
	return append(dst, "}\n"...)
}

// errCode maps a topk sentinel error to an HTTP status and a stable
// machine-readable code.
func errCode(err error) (int, string) {
	switch {
	case errors.Is(err, topk.ErrDuplicatePosition):
		return http.StatusConflict, wire.CodeDuplicatePosition
	case errors.Is(err, topk.ErrDuplicateScore):
		return http.StatusConflict, wire.CodeDuplicateScore
	case errors.Is(err, topk.ErrInvalidPoint):
		return http.StatusBadRequest, wire.CodeInvalidPoint
	case errors.Is(err, topk.ErrNotFound):
		return http.StatusNotFound, wire.CodeNotFound
	case errors.Is(err, topk.ErrNodeDown):
		// A gateway whose member fleet cannot take the write reports
		// the outage instead of masking it as an internal error.
		return http.StatusServiceUnavailable, wire.CodeNodeDown
	default:
		return http.StatusInternalServerError, wire.CodeInternal
	}
}

func toErrJSON(err error) *wire.Error {
	_, code := errCode(err)
	return &wire.Error{Code: code, Message: err.Error()}
}

// writeErr renders a store error with its mapped status and code.
func writeErr(w http.ResponseWriter, err error) {
	status, code := errCode(err)
	httpError(w, status, code, "%v", err)
}

func httpError(w http.ResponseWriter, status int, code, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]any{
		"error": wire.Error{Code: code, Message: fmt.Sprintf(format, args...)},
	})
}

// LockedIndex serializes a sequential *topk.Index behind the Store
// interface with one mutex. It exists so topkd -backend single can
// answer concurrent HTTP traffic correctly (if slowly) — the measured
// argument for the sharded backend — and so tests and benches can
// mount an Index anywhere a concurrent Store is required.
func LockedIndex(idx *topk.Index) topk.Store { return &lockedStore{idx: idx} }

type lockedStore struct {
	mu  sync.Mutex
	idx *topk.Index
}

func (l *lockedStore) Len() int { l.mu.Lock(); defer l.mu.Unlock(); return l.idx.Len() }
func (l *lockedStore) Insert(pos, score float64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.idx.Insert(pos, score)
}
func (l *lockedStore) Delete(pos, score float64) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.idx.Delete(pos, score)
}
func (l *lockedStore) ApplyBatch(ops []topk.BatchOp) []error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.idx.ApplyBatch(ops)
}
func (l *lockedStore) TopK(x1, x2 float64, k int) []topk.Result {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.idx.TopK(x1, x2, k)
}
func (l *lockedStore) QueryBatch(qs []topk.Query) [][]topk.Result {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.idx.QueryBatch(qs)
}
func (l *lockedStore) Count(x1, x2 float64) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.idx.Count(x1, x2)
}
func (l *lockedStore) Stats() topk.Stats { l.mu.Lock(); defer l.mu.Unlock(); return l.idx.Stats() }
func (l *lockedStore) ResetStats()       { l.mu.Lock(); defer l.mu.Unlock(); l.idx.ResetStats() }
func (l *lockedStore) DropCache()        { l.mu.Lock(); defer l.mu.Unlock(); l.idx.DropCache() }
