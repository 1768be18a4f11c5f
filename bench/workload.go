package main

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"slices"
	"time"

	topk "repro"
)

const (
	// blockWords is B, the block size of every member shard and of the
	// replay Index.
	blockWords = 64
	// xSpan bounds positions: every point lies in [0, xSpan).
	xSpan = 1e6
	// replayInserts is how many fresh points the update stream the
	// traced run replays against a standalone Index inserts; each is
	// deleted again replayLag inserts later.
	replayInserts = 1024
	replayLag     = 256
)

// workload is one traffic mix: the data it preloads, the buffer pool
// the members get, and the open-loop rate and shape of its requests.
type workload struct {
	name      string
	n         int        // preloaded points
	memWords  int        // buffer-pool words per member (0 = the default 16·B)
	rate      float64    // requests per second, open loop
	readShare float64    // the rest splits evenly into inserts and deletes
	sel       [2]float64 // query width as a fraction of xSpan
	k         [2]int     // query k, uniform in [k[0], k[1]]
	// pool is the number of distinct queries. Without writes, the
	// oracle answers each in advance; with writes the data moves under
	// the reads, so they are checked for form only.
	pool int
	// Premises a run fails without: resident — the members' blocks stay
	// in their pools, so the timed window reads no block; pst — every
	// query's k is at least B·lg n, so the §2 tree answers it, and the
	// engine does read blocks.
	resident, pst bool
	// replayQueries is how many pool queries the traced run replays
	// against a standalone Index.
	replayQueries int
}

// workloads are the benchmark's traffic mixes; README.md says why each
// was chosen. read-narrow gives every member a pool of 2^20 words so
// its blocks stay resident and the engine does no I/O; read-wide and
// write-mix keep the default pool of 16·B words, far smaller than
// their working sets.
var workloads = []workload{
	{name: "read-narrow", n: 1 << 16, memWords: 1 << 20, rate: 1000, readShare: 1,
		sel: [2]float64{0.0005, 0.02}, k: [2]int{1, 64}, pool: 4096, resident: true, replayQueries: 1024},
	{name: "read-wide", n: 1 << 16, rate: 50, readShare: 1,
		sel: [2]float64{0.05, 0.5}, k: [2]int{1024, 4096}, pool: 1024, pst: true, replayQueries: 128},
	{name: "write-mix", n: 1 << 15, rate: 800, readShare: 0.2,
		sel: [2]float64{0.0005, 0.02}, k: [2]int{1, 64}, pool: 4096, replayQueries: 1024},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

type opKind uint8

const (
	opRead opKind = iota
	opInsert
	opDelete
)

func (k opKind) String() string { return [...]string{"read", "insert", "delete"}[k] }

// op is one scheduled request. A read names a pool query; an insert
// names the next fresh point. A delete's target is chosen when it is
// sent: the oldest acknowledged insert, or a preloaded point if none is
// waiting.
type op struct {
	kind opKind
	q    int // read: index into inputs.queries
	p    int // insert: index into inputs.fresh
}

type query struct {
	x1, x2 float64
	k      int
}

// inputs is everything a run feeds the stack, all drawn from the seed.
type inputs struct {
	points  []topk.Result // preload
	victims []topk.Result // preloaded points, in the order deletes fall back to them
	fresh   []topk.Result // insert stream
	churn   []topk.Result // the replayed update stream's inserts
	queries []query
	ops     []op
}

// generate draws a run's inputs. Positions and scores are uniform and
// distinct across preload, inserts and the replay stream, so no
// operation can be rejected as a duplicate.
func generate(w workload, seed uint64, dur time.Duration) *inputs {
	rng := rand.New(rand.NewPCG(seed, 0x746f706b))
	usedX := make(map[float64]bool)
	usedS := make(map[float64]bool)
	point := func() topk.Result {
		for {
			x, s := rng.Float64()*xSpan, rng.Float64()
			if !usedX[x] && !usedS[s] {
				usedX[x], usedS[s] = true, true
				return topk.Result{X: x, Score: s}
			}
		}
	}
	in := &inputs{points: make([]topk.Result, w.n)}
	for i := range in.points {
		in.points[i] = point()
	}
	in.victims = slices.Clone(in.points)
	rng.Shuffle(len(in.victims), func(i, j int) { in.victims[i], in.victims[j] = in.victims[j], in.victims[i] })

	in.queries = make([]query, w.pool)
	for i := range in.queries {
		width := (w.sel[0] + rng.Float64()*(w.sel[1]-w.sel[0])) * xSpan
		x1 := rng.Float64() * (xSpan - width)
		in.queries[i] = query{x1: x1, x2: x1 + width, k: w.k[0] + rng.IntN(w.k[1]-w.k[0]+1)}
	}

	in.ops = make([]op, int(math.Ceil(w.rate*dur.Seconds())))
	for i := range in.ops {
		switch u := rng.Float64(); {
		case u < w.readShare:
			in.ops[i] = op{kind: opRead, q: rng.IntN(w.pool)}
		case u < w.readShare+(1-w.readShare)/2:
			in.ops[i] = op{kind: opInsert, p: len(in.fresh)}
			in.fresh = append(in.fresh, point())
		default:
			in.ops[i] = op{kind: opDelete}
		}
	}
	in.churn = make([]topk.Result, replayInserts)
	for i := range in.churn {
		in.churn[i] = point()
	}
	return in
}

// answer is the oracle's expectation for one pool query.
type answer struct {
	n      int
	digest uint64
}

// oracle answers every pool query by scanning the points in descending
// score order and keeping the first k inside the range — independent
// of every index structure in the repository.
func oracle(pts []topk.Result, qs []query) []answer {
	byScore := slices.Clone(pts)
	slices.SortFunc(byScore, func(a, b topk.Result) int { return cmp.Compare(b.Score, a.Score) })
	out := make([]answer, len(qs))
	var res []topk.Result
	for i, q := range qs {
		res = res[:0]
		for _, p := range byScore {
			if len(res) == q.k {
				break
			}
			if q.x1 <= p.X && p.X <= q.x2 {
				res = append(res, p)
			}
		}
		out[i] = answer{n: len(res), digest: digest(res)}
	}
	return out
}

// digest fingerprints an answer: every position and score, in order.
func digest(res []topk.Result) uint64 {
	h := fnv.New64a()
	var b [16]byte
	for _, r := range res {
		binary.LittleEndian.PutUint64(b[:8], math.Float64bits(r.X))
		binary.LittleEndian.PutUint64(b[8:], math.Float64bits(r.Score))
		h.Write(b[:])
	}
	return h.Sum64()
}

// wellFormed checks a read the oracle cannot predict: at most k
// results, all inside the range, scores strictly descending.
func wellFormed(q query, res []topk.Result) error {
	if len(res) > q.k {
		return fmt.Errorf("%d results for k=%d", len(res), q.k)
	}
	for i, r := range res {
		if r.X < q.x1 || r.X > q.x2 {
			return fmt.Errorf("result x=%v outside [%v, %v]", r.X, q.x1, q.x2)
		}
		if i > 0 && !(r.Score < res[i-1].Score) {
			return fmt.Errorf("scores not strictly descending at %d", i)
		}
	}
	return nil
}

// ioBound is Theorem 1's query term log_B n + k/B for one query that
// reported k points out of n.
func ioBound(n, k int) float64 {
	return math.Log(float64(n))/math.Log(blockWords) + float64(k)/blockWords
}

// pstFloor is B·lg n, the k at and above which the §2 priority search
// tree answers a query on n points.
func pstFloor(n int) int { return blockWords * int(math.Ceil(math.Log2(float64(n)))) }
