// Package cluster is the distributed serving tier: a client-side
// router that composes remote topkd member processes — each owning a
// contiguous SCORE band of the data — into one logical top-k store.
//
// Where internal/shard partitions the POSITION axis across in-process
// EM machines, the cluster partitions the SCORE axis across network
// processes: an update routes to the single member (replica group)
// owning its score, and a top-k read walks the groups from the top
// score band down. Every point of a band outranks every point of the
// bands below it, so the per-band answers concatenate in walk order
// with no merge, and the walk stops as soon as it holds k points: the
// k-th score lies in a band already asked, and the bands below it are
// never contacted. Count still asks every group — any band may hold
// qualifying points for any position interval. Score partitioning is
// also what makes the fleet-wide duplicate-SCORE check free: equal
// scores always route to the same member, whose local store rejects
// the duplicate authoritatively; the gateway additionally keeps its
// own position/score sets so duplicates it has seen fail fast without
// a network round trip.
//
// Members with an identical declared band form a REPLICA GROUP. Reads
// prefer healthy replicas round-robin and fail over to alternates when
// one errors; writes are applied to every replica of the owning group
// and fail fast with ErrNodeDown when any replica is ejected or
// unreachable — consistency-first for writes, availability-first for
// reads. Nothing else is replicated: there is no write-ahead log and
// no catch-up, so a replica that missed writes while down must be
// reloaded before rejoining (see DESIGN.md "cluster tier").
//
// Consistency: the gateway assumes a SINGLE WRITER (one gateway
// process). Reads hold no cross-member snapshot — each member answers
// from its own sequential state — so concurrent updates may be partly
// visible; a quiescent cluster answers byte-identically to a single
// Index over the union of the members' data.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"net/url"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/merge"
	"repro/internal/obs"
	"repro/internal/point"
	"repro/internal/wire"
)

// Config configures a Cluster client.
type Config struct {
	// Members lists member base URLs (host:port or http://host:port).
	// Each member declares its score band via GET /v1/range; members
	// with identical bands form a replica group, and the groups must
	// tile the score line contiguously from -Inf to +Inf.
	Members []string
	// Timeout bounds every member request (default 5s). Each call gets
	// its own deadline-carrying context, threaded down to the socket.
	Timeout time.Duration
	// HealthInterval runs the background prober every interval
	// (GET /v1/epoch per member). 0 disables the loop; inline request
	// failures still feed the same ejection accounting.
	HealthInterval time.Duration
	// EjectAfter is the consecutive-failure threshold at which a member
	// is temporarily ejected (default 3).
	EjectAfter int
	// EjectFor is how long an ejection lasts (default 10s).
	EjectFor time.Duration
	// Transport overrides the pooled HTTP transport (tests; nil = a
	// dedicated pooled transport owned — and closed — by the cluster).
	// It gets every member request directly, no http.Client between,
	// and requests of one kind share their header map, so like any
	// http.RoundTripper it must not modify the requests it is given.
	Transport http.RoundTripper
	// Logger receives structured health events (member ejected /
	// recovered). Nil discards.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Timeout <= 0 {
		c.Timeout = 5 * time.Second
	}
	if c.EjectAfter <= 0 {
		c.EjectAfter = 3
	}
	if c.EjectFor <= 0 {
		c.EjectFor = 10 * time.Second
	}
	return c
}

// group is one replica group: the nodes that all declared the same
// score band [lo, hi).
type group struct {
	lo, hi float64
	nodes  []*node
	// next rotates the preferred read replica so load spreads across
	// the group.
	next atomic.Uint64
}

// Cluster is the client-side router over the member fleet. All methods
// are safe for concurrent use.
type Cluster struct {
	cfg       Config
	transport http.RoundTripper
	groups    []*group // ascending by lo; contiguous tiling of the line
	nodes     []*node  // every member, replicas included

	// n is the gateway's view of the live count: synced from the
	// members at construction, maintained on successful writes
	// (single-writer assumption).
	n atomic.Int64

	// failovers counts reads that succeeded on an alternate replica.
	failovers atomic.Int64

	// peak is the high-water mark of the fleet-wide live-block total
	// observed at Stats calls: a total some instant held, where a sum
	// of the members' own peaks adds maxima reached at different
	// instants.
	peak atomic.Int64

	// readBands records how many bands each top-k read asked before it
	// held k points or ran out of bands.
	readBands obs.CountHist

	// ejections / recoveries count ejection episodes beginning and
	// ending (health.go); log receives the matching structured events.
	ejections  atomic.Int64
	recoveries atomic.Int64
	log        *slog.Logger

	// rpc records member RPC latency per member address; every node
	// shares it. The serving layer exports it from a gateway's
	// /v1/metrics as topkd_cluster_rpc_duration_seconds.
	rpc *obs.Vec

	// dupMu guards the gateway-side duplicate registries. Score
	// routing makes member-local duplicate-score checks fleet-wide
	// already; these sets exist to (a) reject duplicates the gateway
	// has seen without a network hop and (b) catch duplicate POSITIONS
	// across score bands, which no single member can see. They only
	// know points written through this gateway — preloaded data is
	// still covered for scores (same-band routing) but not for
	// positions; see DESIGN.md. Each is a core.FloatSet, the table a
	// Guard keeps, so ±0 are one key as they were in the Go maps these
	// replaced.
	dupMu     sync.Mutex
	positions core.FloatSet
	scores    core.FloatSet
	// roundPos and roundScores hold the keys of the batch round that
	// ApplyBatch is admitting; they are empty between rounds.
	roundPos, roundScores core.FloatSet

	// Background prober state (health.go).
	probeStop chan struct{}
	probeDone chan struct{}
	closeOnce sync.Once
}

// New dials every member, discovers the fleet layout from their
// declared bands, validates it (contiguous tiling; replicas agree on
// their live count) and returns the router. Construction fails with an
// ErrNodeDown-wrapped error when a member is unreachable — a gateway
// must not guess at a layout it could not confirm.
func New(cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Members) == 0 {
		return nil, errors.New("cluster: no members configured")
	}
	transport := cfg.Transport
	if transport == nil {
		// Members never compress, so asking for gzip would only cost a
		// header on every request.
		transport = &http.Transport{
			MaxIdleConns:        64,
			MaxIdleConnsPerHost: 16,
			IdleConnTimeout:     90 * time.Second,
			DisableCompression:  true,
		}
	}
	log := cfg.Logger
	if log == nil {
		log = slog.New(slog.DiscardHandler)
	}
	c := &Cluster{
		cfg:       cfg,
		transport: transport,
		rpc:       obs.NewVec(),
		log:       log,
	}
	seen := map[string]bool{}
	for _, m := range cfg.Members {
		addr := strings.TrimRight(strings.TrimSpace(m), "/")
		if addr == "" {
			return nil, fmt.Errorf("cluster: empty member address in %q", cfg.Members)
		}
		if !strings.Contains(addr, "://") {
			addr = "http://" + addr
		}
		if seen[addr] {
			return nil, fmt.Errorf("cluster: duplicate member %s", addr)
		}
		seen[addr] = true
		c.nodes = append(c.nodes, &node{addr: addr, rt: transport, rpc: c.rpc})
	}

	// Discover each member's band, in parallel.
	ranges := make([]rangeResp, len(c.nodes))
	errs := make([]error, len(c.nodes))
	c.eachMember(context.Background(), func(ctx context.Context, i int, n *node) error {
		ranges[i], errs[i] = n.fetchRange(ctx)
		return errs[i]
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("cluster: member %s: %w", c.nodes[i].addr, err)
		}
	}

	// Group replicas by identical band and validate the tiling.
	byBand := map[[2]float64]*group{}
	bandN := map[[2]float64]int{}
	for i, n := range c.nodes {
		lo, hi := ranges[i].bounds()
		if !(lo < hi) {
			return nil, fmt.Errorf("cluster: member %s declares empty band [%v, %v)", n.addr, lo, hi)
		}
		key := [2]float64{lo, hi}
		g, ok := byBand[key]
		if !ok {
			g = &group{lo: lo, hi: hi}
			byBand[key] = g
			bandN[key] = ranges[i].N
			c.groups = append(c.groups, g)
		} else if bandN[key] != ranges[i].N {
			// Replicas must start identical; a count mismatch means one
			// of them missed writes and needs reloading before joining.
			return nil, fmt.Errorf("cluster: replicas of band [%v, %v) disagree on live count (%d vs %d at %s)",
				lo, hi, bandN[key], ranges[i].N, n.addr)
		}
		g.nodes = append(g.nodes, n)
	}
	sort.Slice(c.groups, func(a, b int) bool { return c.groups[a].lo < c.groups[b].lo })
	prevHi := math.Inf(-1)
	for i, g := range c.groups {
		if i == 0 {
			if !math.IsInf(g.lo, -1) {
				return nil, fmt.Errorf("cluster: score line not covered below %v (first band [%v, %v))", g.lo, g.lo, g.hi)
			}
		} else if g.lo != prevHi {
			return nil, fmt.Errorf("cluster: bands [..., %v) and [%v, ...) leave a gap or overlap", prevHi, g.lo)
		}
		prevHi = g.hi
	}
	if !math.IsInf(prevHi, 1) {
		return nil, fmt.Errorf("cluster: score line not covered above %v", prevHi)
	}

	total := 0
	for _, n := range bandN {
		total += n
	}
	c.n.Store(int64(total))
	c.startProber()
	return c, nil
}

// callCtx derives the per-request context: the caller's cancellation
// plus the configured timeout.
func (c *Cluster) callCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	return context.WithTimeout(ctx, c.cfg.Timeout)
}

// eachMember calls call once for every member, all in parallel, each
// under its own callCtx deadline derived from ctx, feeds each outcome
// into the health accounting, and returns when every call has.
func (c *Cluster) eachMember(ctx context.Context, call func(ctx context.Context, i int, n *node) error) {
	fns := make([]func(), len(c.nodes))
	for i, n := range c.nodes {
		fns[i] = func() {
			cctx, cancel := c.callCtx(ctx)
			defer cancel()
			c.mark(ctx, n, call(cctx, i, n))
		}
	}
	merge.Parallel(fns)
}

// locate returns the index of the group owning score. Only finite
// scores reach here: ApplyBatch rejects non-finite inserts
// (ErrInvalidPoint) and answers non-finite deletes (ErrNotFound)
// before routing.
func (c *Cluster) locate(score float64) int {
	i := sort.Search(len(c.groups), func(i int) bool { return score < c.groups[i].hi })
	if i == len(c.groups) {
		i--
	}
	return i
}

// Len returns the gateway's view of the live point count.
func (c *Cluster) Len() int { return int(c.n.Load()) }

// Groups returns the number of distinct score bands.
func (c *Cluster) Groups() int { return len(c.groups) }

// Boundaries returns the score cut positions between bands (len
// Groups-1), ascending — the cluster twin of Sharded.Boundaries.
func (c *Cluster) Boundaries() []float64 {
	cuts := make([]float64, 0, len(c.groups)-1)
	for _, g := range c.groups[1:] {
		cuts = append(cuts, g.lo)
	}
	return cuts
}

// readFrom runs call against g's replicas until one succeeds: healthy
// replicas first, rotated round-robin, ejected ones only as a last
// resort. A replica that fails with a node-level error is marked
// (feeding the ejection accounting) and the next is tried; a
// rejection-type error aborts immediately — the member answered, and
// an alternate would answer the same. So does a failure once the
// caller's own context is done: the caller hung up, no replica can
// answer it, and the failure is not held against the member. Returns
// nil on success, the rejection, the failed call's error when the
// caller hung up, or an ErrNodeDown-wrapped error when every replica
// failed.
func (c *Cluster) readFrom(ctx context.Context, g *group, call func(ctx context.Context, n *node) error) error {
	start := int(g.next.Add(1))
	// The order lives on the stack for up to 8 replicas.
	var orderBuf, ejectedBuf [8]*node
	order, ejected := orderBuf[:0], ejectedBuf[:0]
	for i := 0; i < len(g.nodes); i++ {
		n := g.nodes[(start+i)%len(g.nodes)]
		if n.isEjected() {
			ejected = append(ejected, n)
		} else {
			order = append(order, n)
		}
	}
	order = append(order, ejected...)
	attempts := 0
	for _, n := range order {
		cctx, cancel := c.callCtx(ctx)
		err := call(cctx, n)
		cancel()
		if err != nil && !errors.Is(err, ErrNodeDown) {
			return err
		}
		if c.mark(ctx, n, err) {
			if attempts > 0 {
				c.failovers.Add(1)
			}
			return nil
		}
		if ctx.Err() != nil {
			return err
		}
		attempts++
	}
	return fmt.Errorf("cluster: band [%g, %g): %w: all %d replicas failed", g.lo, g.hi, ErrNodeDown, len(g.nodes))
}

// TopK returns the k highest-scoring points with position in [x1, x2]
// in descending score order, walking the bands from the top score band
// down. Every point of a band outranks every point of the bands below
// it, so appending each band's answer after those of the bands above
// keeps the order without a merge, and each band is asked only for the
// points still missing. Once the walk holds k points, the k-th score
// lies in a band already asked and the lower bands are skipped without
// a request: a k small against the range's population is answered by
// the top band alone. The result is exactly an Index's over the union
// of the bands. A band whose every replica is down contributes nothing
// and the walk moves on (reads degrade to partial answers rather than
// failing; see ReadFailovers and Ejected for the operator's view).
func (c *Cluster) TopK(ctx context.Context, x1, x2 float64, k int) []point.P {
	if k <= 0 || x1 > x2 || math.IsNaN(x1) || math.IsNaN(x2) {
		return nil
	}
	var out []point.P
	asked := 0
	for gi := len(c.groups) - 1; gi >= 0 && len(out) < k; gi-- {
		asked++
		_ = c.readFrom(ctx, c.groups[gi], func(cctx context.Context, n *node) (err error) {
			out, err = n.topk(cctx, out, x1, x2, k-len(out))
			return err
		})
	}
	c.readBands.Observe(uint64(asked))
	return out
}

// QueryBatch answers qs with the walk TopK makes, one /v1/batch request
// per band asked: each band receives every query still short of its k,
// asking for the points that query still misses, and a query leaves the
// walk once it holds k points. Answers align positionally with qs and
// match a loop of TopK calls; invalid queries (k ≤ 0, inverted or NaN
// bounds) yield nil without touching the network.
func (c *Cluster) QueryBatch(ctx context.Context, qs []point.Query) [][]point.P {
	if len(qs) == 0 {
		return nil
	}
	out := make([][]point.P, len(qs))
	open := make([]int, 0, len(qs)) // the queries still short of their k
	for qi, q := range qs {
		if q.K > 0 && q.X1 <= q.X2 && !math.IsNaN(q.X1) && !math.IsNaN(q.X2) {
			open = append(open, qi)
		}
	}
	asked := 0
	for gi := len(c.groups) - 1; gi >= 0 && len(open) > 0; gi-- {
		asked++
		ops := wire.AppendCount(make([]byte, 0, wire.OpsLen(len(open))), len(open))
		for _, qi := range open {
			q := qs[qi]
			ops = wire.AppendOp(ops, wire.Op{Op: "query", X1: q.X1, X2: q.X2, K: q.K - len(out[qi])})
		}
		_ = c.readFrom(ctx, c.groups[gi], func(cctx context.Context, n *node) error {
			items, err := n.batch(cctx, ops, len(open))
			if err != nil {
				return err
			}
			for j, item := range items {
				out[open[j]] = append(out[open[j]], item.Results...)
			}
			return nil
		})
		short := open[:0]
		for _, qi := range open {
			if gi > 0 && len(out[qi]) < qs[qi].K {
				short = append(short, qi)
			} else {
				c.readBands.Observe(uint64(asked))
			}
		}
		open = short
	}
	return out
}

// Count returns the number of live points with position in [x1, x2],
// summing one replica per band.
func (c *Cluster) Count(ctx context.Context, x1, x2 float64) int {
	if x1 > x2 || math.IsNaN(x1) || math.IsNaN(x2) {
		return 0
	}
	counts := make([]int, len(c.groups))
	fns := make([]func(), len(c.groups))
	for gi, g := range c.groups {
		fns[gi] = func() {
			_ = c.readFrom(ctx, g, func(cctx context.Context, n *node) error {
				cnt, err := n.count(cctx, x1, x2)
				if err != nil {
					return err
				}
				counts[gi] = cnt
				return nil
			})
		}
	}
	merge.Parallel(fns)
	total := 0
	for _, cnt := range counts {
		total += cnt
	}
	return total
}

// Insert adds p under the Store error contract, routed by score to the
// owning band and applied to every replica there. Check order matches
// the local backends: ErrInvalidPoint, then ErrDuplicatePosition
// (gateway registry — the one check score routing cannot delegate to a
// member), then ErrDuplicateScore (gateway registry fast path, member
// authoritative). ErrNodeDown when the owning band cannot take the
// write.
func (c *Cluster) Insert(ctx context.Context, p point.P) error {
	return c.ApplyBatch(ctx, []point.Op{{X: p.X, Score: p.Score}})[0]
}

// Delete removes p, reporting whether it was present. A delete the
// owning band cannot serve (node down) reports false — the bool-only
// Store signature cannot distinguish outage from absence; use
// ApplyBatch to observe ErrNodeDown explicitly.
func (c *Cluster) Delete(ctx context.Context, p point.P) bool {
	return c.ApplyBatch(ctx, []point.Op{{Delete: true, X: p.X, Score: p.Score}})[0] == nil
}

// pending is one batch op that passed the gateway-side checks and is
// headed for the wire.
type pending struct {
	op     int
	band   int // the index of the owning group
	insert bool
	p      point.P
}

// ApplyBatch applies a mixed batch in rounds. A round ends before the
// first op whose position or score an earlier op of the round
// touched, so no two ops of a round share a key, and a batch with no
// repeated key is one round. Each round's ops route by score to their
// owning band, each band's sub-batch ships as one /v1/batch applied to
// EVERY replica of the group, and per-op outcomes are stitched back
// into batch order; ops on different bands ship in parallel, which is
// safe because they touch different points. The next round checks the
// gateway registries only after this round's members have answered,
// so an op that reuses a same-batch key, on any band, gets the outcome
// it would get after the earlier op alone — as on an Index.
//
// Per-op outcomes: nil for applied ops; ErrNotFound for absent
// deletes; ErrInvalidPoint / ErrDuplicatePosition / ErrDuplicateScore
// for rejected inserts; ErrNodeDown for every op of a band whose group
// was ejected, unreachable, or answered inconsistently. When a
// multi-replica group fails mid-write the replicas may have diverged —
// the gateway never papers over that: the ops report ErrNodeDown and
// the operator reloads the failed replica (DESIGN.md, failure
// semantics).
func (c *Cluster) ApplyBatch(ctx context.Context, ops []point.Op) []error {
	if len(ops) == 0 {
		return nil
	}
	res := make([]error, len(ops))
	// The ops of a round headed for the wire; a round of up to 16
	// keeps them on the stack.
	var pdBuf [16]pending
	for start := 0; start < len(ops); {
		var pds []pending
		pds, start = c.admit(ops, start, pdBuf[:0], res)
		c.ship(ctx, pds, res)
	}
	return res
}

// admit runs the gateway pass over the round that opens at ops[start],
// in batch order under one registry lock, appending the round's ops
// headed for the wire to pds; it returns them and the index where the
// next round opens. It rejects an insert that duplicates a key this
// gateway knows and reserves the keys of every other insert. A delete
// touches no registry here: its keys are released once its member
// finds the point (release).
func (c *Cluster) admit(ops []point.Op, start int, pds []pending, res []error) ([]pending, int) {
	// A lone op is a round by itself and needs no round keys.
	multi := len(ops) > 1
	c.dupMu.Lock()
	defer c.dupMu.Unlock()
	end := start
	for ; end < len(ops); end++ {
		op := ops[end]
		p := op.Point()
		if !p.Finite() {
			if op.Delete {
				// A non-finite point can never be live (inserts reject
				// them), so the exact-match answer is known without a
				// network hop. Matches Index/Sharded: ErrNotFound.
				res[end] = core.ErrNotFound
			} else {
				res[end] = core.ErrInvalidPoint
			}
			continue
		}
		if multi {
			if !c.roundPos.Add(p.X) {
				break
			}
			if !c.roundScores.Add(p.Score) {
				c.roundPos.Remove(p.X)
				break
			}
		}
		gi := c.locate(p.Score)
		if op.Delete {
			pds = append(pds, pending{op: end, band: gi, p: p})
			continue
		}
		if !c.positions.Add(p.X) {
			res[end] = core.ErrDuplicatePosition
			continue
		}
		if !c.scores.Add(p.Score) {
			c.positions.Remove(p.X)
			res[end] = core.ErrDuplicateScore
			continue
		}
		pds = append(pds, pending{op: end, band: gi, insert: true, p: p})
	}
	if multi {
		for _, op := range ops[start:end] {
			if p := op.Point(); p.Finite() {
				c.roundPos.Remove(p.X)
				c.roundScores.Remove(p.Score)
			}
		}
	}
	return pds, end
}

// ship sends one round's ops to their bands and reconciles the
// outcomes into res. Each band's sub-batch is one run of pds, in batch
// order. A round on one band, as every single-op write is, ships
// inline from the caller's stack; the bands of a wider round ship in
// parallel, from a copy their goroutines share.
func (c *Cluster) ship(ctx context.Context, pds []pending, res []error) {
	if len(pds) == 0 {
		return
	}
	slices.SortStableFunc(pds, func(a, b pending) int { return a.band - b.band })
	if pds[0].band == pds[len(pds)-1].band {
		c.applyGroup(ctx, c.groups[pds[0].band], pds, res)
		return
	}
	var fns []func()
	for rest := slices.Clone(pds); len(rest) > 0; {
		n := 1
		for n < len(rest) && rest[n].band == rest[0].band {
			n++
		}
		run := rest[:n]
		fns = append(fns, func() { c.applyGroup(ctx, c.groups[run[0].band], run, res) })
		rest = rest[n:]
	}
	merge.Parallel(fns)
}

// applyGroup ships one band's sub-batch to every replica of g, as one
// ops body appended straight from pds, and reconciles outcomes into
// res. Writes are consistency-first: any ejected replica fails the
// whole sub-batch up front (writing around a downed replica would
// silently diverge the group), and any transport failure or
// cross-replica disagreement — on whether an op applied, or on the
// code it was rejected with — reports ErrNodeDown.
func (c *Cluster) applyGroup(ctx context.Context, g *group, pds []pending, res []error) {
	fail := func(err error) {
		for _, pd := range pds {
			res[pd.op] = err
		}
		c.release(pds, res)
	}
	for _, n := range g.nodes {
		if n.isEjected() {
			fail(fmt.Errorf("cluster: band [%g, %g): member %s ejected: %w", g.lo, g.hi, n.addr, ErrNodeDown))
			return
		}
	}
	ops := wire.AppendCount(make([]byte, 0, wire.OpsLen(len(pds))), len(pds))
	for _, pd := range pds {
		op := wire.Op{Op: "insert", X: pd.p.X, Score: pd.p.Score}
		if !pd.insert {
			op.Op = "delete"
		}
		ops = wire.AppendOp(ops, op)
	}
	// A group of one writes inline, its outcome on this stack; the
	// replicas of a larger group write in parallel.
	nops := len(pds)
	var items1 [1][]wire.Item
	var errs1 [1]error
	items, errs := items1[:], errs1[:]
	if len(g.nodes) == 1 {
		items[0], errs[0] = c.writeReplica(ctx, g.nodes[0], ops, nops)
	} else {
		itemsN, errsN := make([][]wire.Item, len(g.nodes)), make([]error, len(g.nodes))
		fns := make([]func(), len(g.nodes))
		for ri, n := range g.nodes {
			fns[ri] = func() { itemsN[ri], errsN[ri] = c.writeReplica(ctx, n, ops, nops) }
		}
		merge.Parallel(fns)
		items, errs = itemsN, errsN
	}
	for _, err := range errs {
		if err != nil {
			fail(fmt.Errorf("cluster: band [%g, %g) write failed (replicas may need reload): %w", g.lo, g.hi, err))
			return
		}
	}
	// All replicas answered; they must agree op by op on the outcome
	// code, so on whether the op applied and on why it was rejected
	// (they hold identical data under the single-writer regime).
	for j := range pds {
		for ri := 1; ri < len(items); ri++ {
			if code(items[ri][j]) != code(items[0][j]) {
				fail(fmt.Errorf("cluster: band [%g, %g): replicas disagree on op %d — group diverged, reload required: %w",
					g.lo, g.hi, pds[j].op, ErrNodeDown))
				return
			}
		}
	}
	for j, pd := range pds {
		switch item := items[0][j]; {
		case !item.OK:
			res[pd.op] = errFromCode(item.Error.Code, item.Error.Message)
		case pd.insert:
			c.n.Add(1)
		default:
			c.n.Add(-1)
		}
	}
	c.release(pds, res)
}

// writeReplica sends one band's ops body, of nops ops, to the replica
// n under its own deadline, and feeds the outcome into the health
// accounting: a node-level failure marks n failed unless the caller
// hung up, and anything else, a rejection included, marks it up.
func (c *Cluster) writeReplica(ctx context.Context, n *node, ops []byte, nops int) ([]wire.Item, error) {
	cctx, cancel := c.callCtx(ctx)
	defer cancel()
	items, err := n.batch(cctx, ops, nops)
	if errors.Is(err, ErrNodeDown) {
		c.mark(ctx, n, err)
	} else {
		c.markUp(n)
	}
	return items, err
}

// code is the outcome code of item: "" for an applied op, which is
// the only kind of item wire.ParseItems returns without an Error.
func code(item wire.Item) string {
	if item.Error == nil {
		return ""
	}
	return item.Error.Code
}

// release drops from the gateway registries the keys of every op in
// pds that leaves its point absent, by its outcome in res: an insert
// that did not land gives back its reservation, and a delete that did
// frees its point's keys. No other op of the round holds those keys.
func (c *Cluster) release(pds []pending, res []error) {
	c.dupMu.Lock()
	defer c.dupMu.Unlock()
	for _, pd := range pds {
		if pd.insert == (res[pd.op] != nil) {
			c.positions.Remove(pd.p.X)
			c.scores.Remove(pd.p.Score)
		}
	}
}

// Stats is the cluster-aggregated meter view: the simulated-disk
// counters and live blocks summed across EVERY member (replicas
// included — each does its own real I/O), and the high-water mark of
// that live-block sum.
type Stats struct {
	Reads, Writes, BlocksLive, BlocksPeak int64
}

// Stats sums the I/O meters of every reachable member and folds the
// live-block sum into the gateway's peak. Unreachable members are
// marked for the health accounting and contribute nothing — an
// aggregate over a degraded fleet undercounts rather than blocks.
func (c *Cluster) Stats(ctx context.Context) Stats {
	per := make([]statsResp, len(c.nodes))
	ok := make([]bool, len(c.nodes))
	c.eachMember(ctx, func(ctx context.Context, i int, n *node) error {
		s, err := n.stats(ctx)
		per[i], ok[i] = s, err == nil
		return err
	})
	var out Stats
	for i := range per {
		if !ok[i] {
			continue
		}
		out.Reads += per[i].Reads
		out.Writes += per[i].Writes
		out.BlocksLive += per[i].BlocksLive
	}
	peak := c.peak.Load()
	for out.BlocksLive > peak && !c.peak.CompareAndSwap(peak, out.BlocksLive) {
		peak = c.peak.Load()
	}
	out.BlocksPeak = max(peak, out.BlocksLive)
	return out
}

// ResetStats zeroes every reachable member's counters (best-effort).
func (c *Cluster) ResetStats(ctx context.Context) {
	c.adminFanOut(ctx, (*node).resetStats)
}

// DropCache evicts every reachable member's buffer pools (best-effort).
func (c *Cluster) DropCache(ctx context.Context) {
	c.adminFanOut(ctx, (*node).dropCache)
}

func (c *Cluster) adminFanOut(ctx context.Context, call func(*node, context.Context) error) {
	c.eachMember(ctx, func(ctx context.Context, _ int, n *node) error {
		return call(n, ctx)
	})
}

// RPCDurations returns the per-member RPC latency histograms — every
// member request this client issued, keyed by member address.
func (c *Cluster) RPCDurations() *obs.Vec { return c.rpc }

// ReadBands returns the histogram of bands asked per top-k read (one
// observation per TopK call and per QueryBatch query): 1 when the top
// band alone held k qualifying points, Groups() when the walk reached
// the bottom band.
func (c *Cluster) ReadBands() *obs.CountHist { return &c.readBands }

// ScrapeMetrics fetches every member's raw /v1/metrics page in
// parallel — the federation leg of the gateway's /v1/metrics/fleet.
// Unreachable members are skipped (and fed into the same ejection
// accounting as any failed request); the second return is the total
// member count so the caller can report fleet coverage.
func (c *Cluster) ScrapeMetrics(ctx context.Context) ([]obs.MetricsPage, int) {
	pages := make([]*obs.MetricsPage, len(c.nodes))
	c.eachMember(ctx, func(ctx context.Context, i int, n *node) error {
		body, err := n.getRaw(ctx, "/v1/metrics")
		if err == nil {
			pages[i] = &obs.MetricsPage{Node: n.addr, Body: body}
		}
		return err
	})
	out := make([]obs.MetricsPage, 0, len(pages))
	for _, p := range pages {
		if p != nil {
			out = append(out, *p)
		}
	}
	return out, len(c.nodes)
}

// FetchTrace fetches the member at addr's span tree for the given
// trace ID — the stitching leg of the gateway's /v1/trace/{id}. The
// addr must match a configured member (it comes from an RPC span this
// client created, so a mismatch means the trace outlived a topology).
func (c *Cluster) FetchTrace(ctx context.Context, addr, id string) (obs.TraceJSON, error) {
	var out obs.TraceJSON
	var target *node
	for _, n := range c.nodes {
		if n.addr == addr {
			target = n
			break
		}
	}
	if target == nil {
		return out, fmt.Errorf("cluster: no member %s", addr)
	}
	cctx, cancel := c.callCtx(ctx)
	defer cancel()
	err := target.get(cctx, "/v1/trace/"+url.PathEscape(id), jsonInto(&out))
	return out, err
}

// String summarizes the fleet layout.
func (c *Cluster) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cluster.Cluster{n=%d, bands=%d", c.n.Load(), len(c.groups))
	for i, g := range c.groups {
		fmt.Fprintf(&b, ", b%d[%g,%g)x%d", i, g.lo, g.hi, len(g.nodes))
	}
	b.WriteString("}")
	return b.String()
}
