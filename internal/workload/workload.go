// Package workload generates the synthetic inputs used by the tests,
// examples and the experiment harness. The paper has no empirical
// section, so distributions are chosen to (a) exercise every structural
// regime (uniform, clustered, correlated) and (b) realize the motivating
// scenario of §1 — "find the 10 best-rated hotels whose prices are
// between 100 and 200 dollars per night" — with plausible shapes.
//
// All generators produce distinct x-coordinates and distinct scores (the
// paper's standing assumption: the input is a *set* of reals, each with
// a distinct score).
package workload

import (
	"math"
	"math/rand"

	"repro/internal/point"
)

// Gen is a deterministic point-stream generator.
type Gen struct {
	rng       *rand.Rand
	usedX     map[float64]bool
	usedScore map[float64]bool
}

// NewGen returns a generator with the given seed.
func NewGen(seed int64) *Gen {
	return &Gen{
		rng:       rand.New(rand.NewSource(seed)),
		usedX:     map[float64]bool{},
		usedScore: map[float64]bool{},
	}
}

// fresh draws until both coordinates are unused.
func (g *Gen) fresh(draw func() (float64, float64)) point.P {
	for {
		x, s := draw()
		if g.usedX[x] || g.usedScore[s] || math.IsNaN(x) || math.IsNaN(s) {
			continue
		}
		g.usedX[x] = true
		g.usedScore[s] = true
		return point.P{X: x, Score: s}
	}
}

// Uniform returns n points with x and score independently uniform in
// [0, xMax) and [0, 1).
func (g *Gen) Uniform(n int, xMax float64) []point.P {
	pts := make([]point.P, n)
	for i := range pts {
		pts[i] = g.fresh(func() (float64, float64) {
			return g.rng.Float64() * xMax, g.rng.Float64()
		})
	}
	return pts
}

// Clustered returns n points grouped into the given number of Gaussian
// x-clusters (hot regions), scores uniform.
func (g *Gen) Clustered(n, clusters int, xMax float64) []point.P {
	if clusters < 1 {
		clusters = 1
	}
	centers := make([]float64, clusters)
	for i := range centers {
		centers[i] = g.rng.Float64() * xMax
	}
	sigma := xMax / float64(clusters) / 8
	pts := make([]point.P, n)
	for i := range pts {
		c := centers[g.rng.Intn(clusters)]
		pts[i] = g.fresh(func() (float64, float64) {
			return c + g.rng.NormFloat64()*sigma, g.rng.Float64()
		})
	}
	return pts
}

// Correlated returns n points whose score tracks x with the given
// correlation rho ∈ [-1, 1] (positive: expensive hotels are well
// rated); rho = 0 degenerates to Uniform.
func (g *Gen) Correlated(n int, xMax, rho float64) []point.P {
	pts := make([]point.P, n)
	for i := range pts {
		pts[i] = g.fresh(func() (float64, float64) {
			x := g.rng.Float64() * xMax
			base := x / xMax
			noise := g.rng.Float64()
			s := rho*base + (1-math.Abs(rho))*noise
			return x, s
		})
	}
	return pts
}

// Adversarial returns n points arranged to stress pilot-set churn in the
// §2 structure: scores descend as x sweeps, so every insertion lands at
// the top of its path and pushes the previous occupant down.
func (g *Gen) Adversarial(n int, xMax float64) []point.P {
	pts := make([]point.P, n)
	for i := range pts {
		pts[i] = g.fresh(func() (float64, float64) {
			x := g.rng.Float64() * xMax
			return x, float64(n-i) + g.rng.Float64()*0.5
		})
	}
	return pts
}

// Hotel models §1's motivating example: X is a nightly price (log-normal
// around $140, the shape of real price data) and Score a user rating in
// [0, 10) lightly correlated with price.
type Hotel struct {
	Price  float64
	Rating float64
}

// Hotels returns n synthetic hotels and the same data as points
// (X=price, Score=rating).
func (g *Gen) Hotels(n int) ([]Hotel, []point.P) {
	hs := make([]Hotel, n)
	pts := make([]point.P, n)
	for i := range hs {
		p := g.fresh(func() (float64, float64) {
			price := math.Exp(g.rng.NormFloat64()*0.5 + math.Log(140))
			quality := 0.3*math.Min(price/400, 1) + 0.7*g.rng.Float64()
			return price, quality * 10
		})
		hs[i] = Hotel{Price: p.X, Rating: p.Score}
		pts[i] = p
	}
	return hs, pts
}

// Event models a scored log record: X is a timestamp (monotone with
// jitter), Score a severity/anomaly value with occasional bursts.
type Event struct {
	Timestamp float64
	Severity  float64
}

// Events returns n synthetic log events ordered by time.
func (g *Gen) Events(n int) ([]Event, []point.P) {
	es := make([]Event, n)
	pts := make([]point.P, n)
	t := 0.0
	for i := range es {
		t += g.rng.ExpFloat64()
		burst := 1.0
		if g.rng.Intn(50) == 0 {
			burst = 10
		}
		p := g.fresh(func() (float64, float64) {
			return t + g.rng.Float64()*1e-6, g.rng.ExpFloat64() * burst
		})
		es[i] = Event{Timestamp: p.X, Severity: p.Score}
		pts[i] = p
	}
	return es, pts
}

// Queries returns cnt random queries drawn against the x-domain
// [0, xMax], with selectivity in [minSel, maxSel] (fraction of the
// x-domain) and k in [1, maxK].
func (g *Gen) Queries(cnt int, xMax, minSel, maxSel float64, maxK int) []point.Query {
	out := make([]point.Query, cnt)
	for i := range out {
		sel := minSel + g.rng.Float64()*(maxSel-minSel)
		w := sel * xMax
		x1 := g.rng.Float64() * (xMax - w)
		out[i] = point.Query{X1: x1, X2: x1 + w, K: g.rng.Intn(maxK) + 1}
	}
	return out
}

// Mix produces an interleaved stream of ops inserts and deletes,
// deleting uniformly from the live set with probability delFrac once
// it exceeds warm points, so the stream keeps a roughly steady live
// size.
func (g *Gen) Mix(ops int, warm int, delFrac float64, xMax float64) []point.Op {
	var live []point.P
	out := make([]point.Op, 0, ops)
	for len(out) < ops {
		if len(live) > warm && g.rng.Float64() < delFrac {
			j := g.rng.Intn(len(live))
			p := live[j]
			live = append(live[:j], live[j+1:]...)
			out = append(out, point.Op{Delete: true, X: p.X, Score: p.Score})
			continue
		}
		p := g.fresh(func() (float64, float64) {
			return g.rng.Float64() * xMax, g.rng.Float64()
		})
		live = append(live, p)
		out = append(out, point.Op{X: p.X, Score: p.Score})
	}
	return out
}
