//go:build unix

package topk

import (
	"cmp"
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"slices"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/point"
)

// fleetInput is the benchmark module's read-wide input at seed 1
// (bench/workload.go): 65,536 preloaded points, uniform and distinct
// in position and score, and the 1,024 pool queries, 5–50 % of the
// span wide with k in [1,024, 4,096]. want holds each query's answer
// digest, from point.TopK.
type fleetInput struct {
	pts  []point.P
	qs   []Query
	want []uint64
}

// fleetInputs replays the generator's draws in its order, so the
// points and queries are the same ones.
var fleetInputs = sync.OnceValue(func() (in fleetInput) {
	const n, span, pool = 1 << 16, 1e6, 1024
	rng := rand.New(rand.NewPCG(1, 0x746f706b))
	usedX, usedS := map[float64]bool{}, map[float64]bool{}
	for len(in.pts) < n {
		x, s := rng.Float64()*span, rng.Float64()
		if !usedX[x] && !usedS[s] {
			usedX[x], usedS[s] = true, true
			in.pts = append(in.pts, point.P{X: x, Score: s})
		}
	}
	rng.Shuffle(n, func(int, int) {}) // the generator's delete order
	for range pool {
		width := (0.05 + rng.Float64()*0.45) * span
		x1 := rng.Float64() * (span - width)
		in.qs = append(in.qs, Query{X1: x1, X2: x1 + width, K: 1024 + rng.IntN(4096-1024+1)})
	}
	for _, q := range in.qs {
		in.want = append(in.want, digest(point.TopK(in.pts, q.X1, q.X2, q.K)))
	}
	return in
})

// digest hashes an answer's points, in order.
func digest(ps []point.P) uint64 {
	h := fnv.New64a()
	var buf [16]byte
	for _, p := range ps {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(p.X))
		binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(p.Score))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// BenchmarkFleetReadWide: the benchmark module's read-wide reads
// in process, without HTTP. Three Sharded members hold quantile score
// bands of the points, each in 8 shards of B = 64 with the §3.3 tree
// at f = 8, leaves of 2,048 and the default pool, as topkd members do.
// One op is one pool query, walked over the bands from the top down as
// Cluster.TopK walks them: each band is asked for what the answer
// still lacks. cpu-us/op is the process's user and system CPU per
// query (the shards answer in parallel), reads/op the members' block
// reads. After the timed loop every pool query is asked once more and
// its answer checked against point.TopK; the log line's digest hashes
// all 1,024 answers, so two builds that answer alike print the same.
func BenchmarkFleetReadWide(b *testing.B) {
	in := fleetInputs()
	byScore := slices.Clone(in.pts)
	slices.SortFunc(byScore, func(a, b point.P) int { return cmp.Compare(a.Score, b.Score) })
	cfg := ShardedConfig{
		Config: Config{BlockWords: benchB, ForcePolylog: true, PolylogF: 8, PolylogLeafCap: 2048},
		Shards: 8,
	}
	const members = 3
	bands := make([]*Sharded, members)
	for i := range bands {
		bands[i] = mustLoadSharded(b, cfg, byScore[i*len(byScore)/members:(i+1)*len(byScore)/members])
	}
	walk := func(q Query) []Result {
		var out []Result
		for i := members - 1; i >= 0 && len(out) < q.K; i-- {
			out = append(out, bands[i].TopK(q.X1, q.X2, q.K-len(out))...)
		}
		return out
	}
	reads := func() (r int64) {
		for _, s := range bands {
			r += s.Stats().Reads
		}
		return r
	}

	b.ReportAllocs()
	b.ResetTimer()
	cpu0, reads0 := cpuTime(), reads()
	for i := range b.N {
		walk(in.qs[i%len(in.qs)])
	}
	cpu, nreads := cpuTime()-cpu0, reads()-reads0
	b.StopTimer()
	b.ReportMetric(float64(cpu.Microseconds())/float64(b.N), "cpu-us/op")
	b.ReportMetric(float64(nreads)/float64(b.N), "reads/op")

	all := fnv.New64a()
	for i, q := range in.qs {
		d := digest(walk(q))
		if d != in.want[i] {
			b.Fatalf("query %d %+v: the fleet's answer differs from point.TopK's", i, q)
		}
		all.Write(binary.LittleEndian.AppendUint64(nil, d))
	}
	b.Logf("answer digest over %d queries: %016x", len(in.qs), all.Sum64())
}

// cpuTime is the user and system CPU time the process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
