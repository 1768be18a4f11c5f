package pst

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/em"
	"repro/internal/point"
)

// TestAdaptiveMatchesExact: the default early-terminating selection
// answers exactly as paper mode and a brute-force top-k do, after a
// bulk build and again after an insert/delete stream, at two block
// sizes and with whole-line queries among the ranges, so the early exit
// must hold whatever shape the updates leave.
func TestAdaptiveMatchesExact(t *testing.T) {
	for _, b := range []int{8, 16} {
		const n = 2000
		pts := genPoints(n+1000, int64(20+b))
		live := append([]point.P(nil), pts[:n]...)
		exact := Bulk(newDisk(b), Options{PaperSelection: true}, live)
		adapt := Bulk(newDisk(b), Options{}, live)
		rng := rand.New(rand.NewSource(int64(22 + b)))
		check := func(stage string) {
			for i := 0; i < 150; i++ {
				x1 := rng.Float64() * 12000
				x2 := x1 + rng.Float64()*12000
				if i%7 == 0 {
					x1, x2 = math.Inf(-1), math.Inf(1)
				}
				k := rng.Intn(50*b) + 1
				want := point.TopK(live, x1, x2, k)
				if got := exact.Query(x1, x2, k); !slices.Equal(got, want) {
					t.Fatalf("B=%d %s: query %d [%v,%v] k=%d: paper mode answered %d points unlike the brute-force top-%d",
						b, stage, i, x1, x2, k, len(got), k)
				}
				if got := adapt.Query(x1, x2, k); !slices.Equal(got, want) {
					t.Fatalf("B=%d %s: query %d [%v,%v] k=%d: early selection answered %d points unlike the brute-force top-%d",
						b, stage, i, x1, x2, k, len(got), k)
				}
			}
		}
		check("after Bulk")
		for i, q := range pts[n:] {
			exact.Insert(q)
			adapt.Insert(q)
			live = append(live, q)
			if i%2 == 0 {
				j := rng.Intn(len(live))
				if !exact.Delete(live[j]) || !adapt.Delete(live[j]) {
					t.Fatalf("B=%d: delete of %v failed", b, live[j])
				}
				live = append(live[:j], live[j+1:]...)
			}
		}
		check("after churn")
	}
}

func TestAdaptiveNeverCostsMoreSelections(t *testing.T) {
	pts := genPoints(20000, 23)
	d1 := em.NewDisk(em.Config{B: 32, M: 256 * 32})
	d2 := em.NewDisk(em.Config{B: 32, M: 256 * 32})
	exact := Bulk(d1, Options{PaperSelection: true}, pts)
	adapt := Bulk(d2, Options{}, pts)
	cost := func(d *em.Disk, p *PST, k int) float64 {
		rng := rand.New(rand.NewSource(int64(k)))
		d.DropCache()
		base := d.Stats()
		for i := 0; i < 5; i++ {
			x1 := rng.Float64() * 3e4
			p.Query(x1, x1+4e4, k)
			d.DropCache()
		}
		return float64(d.Stats().Sub(base).Reads) / 5
	}
	for _, k := range []int{16, 256, 2048} {
		ce, ca := cost(d1, exact, k), cost(d2, adapt, k)
		if ca > 1.1*ce {
			t.Fatalf("k=%d: adaptive %0.f reads > exact %0.f", k, ca, ce)
		}
		t.Logf("k=%d: exact %.0f reads, adaptive %.0f reads", k, ce, ca)
	}
}

func TestReport3Sided(t *testing.T) {
	pts := genPoints(2000, 24)
	p := Bulk(newDisk(16), Options{}, pts)
	rng := rand.New(rand.NewSource(25))
	for i := 0; i < 150; i++ {
		x1 := rng.Float64() * 8000
		x2 := x1 + rng.Float64()*4000
		tau := rng.Float64() * 8000
		got := p.Report3Sided(x1, x2, tau)
		var want []point.P
		for _, q := range pts {
			if q.In(x1, x2) && q.Score >= tau {
				want = append(want, q)
			}
		}
		if !sameSet(got, want) {
			t.Fatalf("3-sided [%v,%v] tau=%v: %d vs %d", x1, x2, tau, len(got), len(want))
		}
	}
}

func TestReport3SidedEdges(t *testing.T) {
	p := Bulk(newDisk(8), Options{}, genPoints(100, 26))
	if got := p.Report3Sided(5, 4, 0); got != nil {
		t.Fatal("inverted range")
	}
	if got := p.Report3Sided(math.Inf(-1), math.Inf(1), math.Inf(1)); len(got) != 0 {
		t.Fatalf("tau=+inf returned %d", len(got))
	}
	all := p.Report3Sided(math.Inf(-1), math.Inf(1), math.Inf(-1))
	if len(all) != 100 {
		t.Fatalf("tau=-inf returned %d", len(all))
	}
	empty := New(newDisk(8), Options{})
	if got := empty.Report3Sided(0, 1, 0); got != nil {
		t.Fatal("empty structure")
	}
}

func TestReport3SidedOutputSensitive(t *testing.T) {
	d := em.NewDisk(em.Config{B: 32, M: 256 * 32})
	pts := genPoints(30000, 27)
	p := Bulk(d, Options{}, pts)
	// High tau (few outputs) must cost far less than low tau (many).
	cost := func(tau float64) float64 {
		d.DropCache()
		base := d.Stats()
		p.Report3Sided(math.Inf(-1), math.Inf(1), tau)
		return float64(d.Stats().Sub(base).Reads)
	}
	cheap := cost(119000) // top ~1%
	costly := cost(-1e18) // everything
	if cheap > costly/4 {
		t.Fatalf("not output-sensitive: few=%v all=%v", cheap, costly)
	}
	t.Logf("3-sided reads: top-1%% → %.0f, all → %.0f", cheap, costly)
}
