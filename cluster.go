package topk

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/point"
)

// ErrNodeDown reports that a cluster member could not serve a request:
// unreachable, timed out, broken, or temporarily ejected by the health
// checker. Writes surface it through Insert/ApplyBatch; reads never
// do — they fail over to alternate replicas and degrade to partial
// answers when a whole band is dark. Match with errors.Is.
var ErrNodeDown = cluster.ErrNodeDown

// ClusterConfig configures a Cluster client — the third Store backend,
// serving from remote topkd member processes instead of in-process
// structures.
type ClusterConfig struct {
	// Members lists member base URLs (host:port or http://host:port).
	// Each member declares its score band via GET /v1/range (topkd
	// -range lo:hi); members sharing a band form a replica group, and
	// the bands must tile the score line contiguously (-Inf to +Inf).
	Members []string
	// Timeout bounds every member request (default 5s); each call
	// carries its own deadline context end-to-end.
	Timeout time.Duration
	// HealthInterval, when positive, starts a background prober
	// (GET /v1/epoch per member per interval) so an idle gateway still
	// notices failures and recoveries. Stop it with Close.
	HealthInterval time.Duration
	// EjectAfter is the consecutive-failure count at which a member is
	// temporarily ejected (default 3); EjectFor is for how long
	// (default 10s). While ejected, reads prefer alternates and writes
	// to the member's band fail fast with ErrNodeDown.
	EjectAfter int
	EjectFor   time.Duration
	// Transport overrides the pooled HTTP transport (tests).
	Transport http.RoundTripper
	// Logger receives structured health events — member ejected /
	// recovered, with node address, consecutive failures and the eject
	// deadline. Nil discards.
	Logger *slog.Logger
}

// Cluster is the distributed serving tier behind the Store interface:
// a client-side router over remote topkd members, each owning a
// contiguous score band. Updates route by score to the owning band
// (applied to every replica there); TopK/QueryBatch ask one replica of
// the top score band first and walk down only while the answer is
// short of k — bands the k-th score never reaches get no request — so
// a quiescent cluster answers byte-identically to a single Index over
// the union of the members' data.
//
// Operational semantics differ from the in-process backends — reads
// fail over between replicas and degrade to partial answers when a
// whole band is unreachable; writes are consistency-first and report
// ErrNodeDown instead of diverging replicas; the gateway assumes it is
// the single writer. See DESIGN.md ("cluster tier") for routing,
// failure semantics and what is NOT replicated.
type Cluster struct {
	c *cluster.Cluster
}

// Cluster implements Store like the in-process backends.
var _ Store = (*Cluster)(nil)

// NewCluster dials cfg.Members, discovers each member's score band,
// validates the fleet layout (contiguous tiling; replicas agree) and
// returns the router. Configuration mistakes report ErrConfig-wrapped
// errors; an unreachable member reports ErrNodeDown — a gateway must
// not guess at a layout it could not confirm.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if len(cfg.Members) == 0 {
		return nil, fmt.Errorf("%w: cluster needs at least one member", ErrConfig)
	}
	c, err := cluster.New(cluster.Config{
		Members:        cfg.Members,
		Timeout:        cfg.Timeout,
		HealthInterval: cfg.HealthInterval,
		EjectAfter:     cfg.EjectAfter,
		EjectFor:       cfg.EjectFor,
		Transport:      cfg.Transport,
		Logger:         cfg.Logger,
	})
	if err != nil {
		return nil, err
	}
	return &Cluster{c: c}, nil
}

// Len returns the gateway's view of the live point count (synced from
// the members at construction, maintained on successful writes).
func (c *Cluster) Len() int { return c.c.Len() }

// Insert adds (pos, score) under the same error contract as the local
// backends — ErrInvalidPoint, ErrDuplicatePosition, ErrDuplicateScore,
// checked in that order — plus ErrNodeDown when the owning band cannot
// take the write. A failed insert mutates nothing.
func (c *Cluster) Insert(pos, score float64) error {
	return c.c.Insert(context.Background(), point.P{X: pos, Score: score})
}

// Delete removes (pos, score), reporting whether it was present. The
// bool-only signature cannot distinguish an outage from absence: a
// delete the owning band cannot serve reports false; use ApplyBatch to
// observe ErrNodeDown explicitly.
func (c *Cluster) Delete(pos, score float64) bool {
	return c.c.Delete(context.Background(), point.P{X: pos, Score: score})
}

// ApplyBatch applies a mixed batch, routing ops by score and shipping
// each band's sub-batch as one network request per replica. Outcomes
// follow the Store contract, with ErrNodeDown for every op of a band
// whose replica group was ejected, unreachable, or disagreed.
func (c *Cluster) ApplyBatch(ops []BatchOp) []error {
	return c.c.ApplyBatch(context.Background(), ops)
}

// TopK returns the k highest-scoring points with position in [x1, x2]
// in descending score order — the same answer as a single Index on the
// same point set. The bands are asked from the top score band down,
// each for the points still missing, and the walk stops once it holds
// k. A band whose every replica is down contributes nothing: reads
// degrade to partial answers rather than erroring (the Store read
// signature has no error channel); watch Ejected and ReadFailovers to
// detect it.
func (c *Cluster) TopK(x1, x2 float64, k int) []Result {
	return nilIfEmpty(c.c.TopK(context.Background(), x1, x2, k))
}

// QueryBatch answers many queries at once with TopK's top-down walk:
// each band asked gets one request holding every query still short of
// its k. Positionally aligned with qs, byte-identical to TopK per
// query.
func (c *Cluster) QueryBatch(qs []Query) [][]Result {
	return c.c.QueryBatch(context.Background(), qs)
}

// Count returns the number of live points with position in [x1, x2],
// summed across one replica per band.
func (c *Cluster) Count(x1, x2 float64) int {
	return c.c.Count(context.Background(), x1, x2)
}

// Stats sums the simulated-disk meters across every reachable member
// (replicas included — each performs its own I/O). cmd/topkd exports
// the same aggregate on a gateway's /v1/stats and /v1/metrics.
func (c *Cluster) Stats() Stats {
	s := c.c.Stats(context.Background())
	return Stats{Reads: s.Reads, Writes: s.Writes, BlocksLive: s.BlocksLive, BlocksPeak: s.BlocksPeak}
}

// ResetStats zeroes every reachable member's counters (best-effort).
func (c *Cluster) ResetStats() { c.c.ResetStats(context.Background()) }

// DropCache evicts every reachable member's buffer pools so the next
// operations run cold (best-effort).
func (c *Cluster) DropCache() { c.c.DropCache(context.Background()) }

// Nodes returns the number of member nodes configured (replicas
// included).
func (c *Cluster) Nodes() int { return c.c.Nodes() }

// Groups returns the number of distinct score bands.
func (c *Cluster) Groups() int { return c.c.Groups() }

// Boundaries returns the score cut positions between bands (len
// Groups-1), ascending — the cluster twin of Sharded.Boundaries, used
// by tests to craft band-straddling data.
func (c *Cluster) Boundaries() []float64 { return c.c.Boundaries() }

// Ejected returns how many members the health checker currently has
// ejected.
func (c *Cluster) Ejected() int { return c.c.Ejected() }

// ReadFailovers returns how many reads succeeded only after failing
// over to an alternate replica — the signal that a band is limping on
// reduced redundancy.
func (c *Cluster) ReadFailovers() int64 { return c.c.ReadFailovers() }

// RPCDurations returns the per-member RPC latency histograms recorded
// by this gateway's client, keyed by member address. The serving layer
// probes this to export topkd_cluster_rpc_duration_seconds.
func (c *Cluster) RPCDurations() *obs.Vec { return c.c.RPCDurations() }

// ReadBands returns the histogram of score bands asked per top-k read:
// 1 when the top band alone held k qualifying points, Groups() when the
// read walked every band. The serving layer probes this to export
// topkd_cluster_read_bands.
func (c *Cluster) ReadBands() *obs.CountHist { return c.c.ReadBands() }

// Ejections returns how many ejection episodes the health checker has
// begun (healthy→ejected transitions, not window extensions).
func (c *Cluster) Ejections() int64 { return c.c.Ejections() }

// Recoveries returns how many ejection episodes ended with the member
// answering again.
func (c *Cluster) Recoveries() int64 { return c.c.Recoveries() }

// ScrapeMetrics fetches every reachable member's raw /v1/metrics page
// in parallel, returning the pages plus the total configured member
// count. The serving layer probes this to build a gateway's
// /v1/metrics/fleet federation.
func (c *Cluster) ScrapeMetrics(ctx context.Context) ([]obs.MetricsPage, int) {
	return c.c.ScrapeMetrics(ctx)
}

// FetchTrace fetches the member at addr's finished span tree for the
// given trace ID — the fan-out leg of the gateway's stitched
// /v1/trace/{id}.
func (c *Cluster) FetchTrace(ctx context.Context, addr, id string) (obs.TraceJSON, error) {
	return c.c.FetchTrace(ctx, addr, id)
}

// WithContext returns a Store view of the cluster whose operations
// carry ctx down to every member RPC — deadline, cancellation and any
// obs trace propagate end-to-end. The Store interface itself has no
// context parameters (the in-process backends have nothing to cancel),
// so the serving layer probes for this method and binds each request's
// context before dispatching. The view shares all state with c; only
// the context differs.
func (c *Cluster) WithContext(ctx context.Context) Store {
	return boundCluster{outer: c, ctx: ctx}
}

// boundCluster is a Cluster view with a bound request context.
type boundCluster struct {
	outer *Cluster
	ctx   context.Context
}

var _ Store = boundCluster{}

func (b boundCluster) Len() int { return b.outer.Len() }
func (b boundCluster) Insert(pos, score float64) error {
	return b.outer.c.Insert(b.ctx, point.P{X: pos, Score: score})
}
func (b boundCluster) Delete(pos, score float64) bool {
	return b.outer.c.Delete(b.ctx, point.P{X: pos, Score: score})
}
func (b boundCluster) ApplyBatch(ops []BatchOp) []error { return b.outer.c.ApplyBatch(b.ctx, ops) }
func (b boundCluster) TopK(x1, x2 float64, k int) []Result {
	return nilIfEmpty(b.outer.c.TopK(b.ctx, x1, x2, k))
}
func (b boundCluster) QueryBatch(qs []Query) [][]Result { return b.outer.c.QueryBatch(b.ctx, qs) }
func (b boundCluster) Count(x1, x2 float64) int         { return b.outer.c.Count(b.ctx, x1, x2) }
func (b boundCluster) Stats() Stats {
	s := b.outer.c.Stats(b.ctx)
	return Stats{Reads: s.Reads, Writes: s.Writes, BlocksLive: s.BlocksLive, BlocksPeak: s.BlocksPeak}
}
func (b boundCluster) ResetStats() { b.outer.c.ResetStats(b.ctx) }
func (b boundCluster) DropCache()  { b.outer.c.DropCache(b.ctx) }

// Close stops the background health prober, if one was started, and
// releases pooled connections. Idempotent; the cluster keeps serving
// after Close.
func (c *Cluster) Close() error { return c.c.Close() }

// String summarizes the fleet layout.
func (c *Cluster) String() string { return c.c.String() }
