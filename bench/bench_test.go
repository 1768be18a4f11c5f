package main

import (
	"io"
	"math"
	"path/filepath"
	"testing"
	"time"
)

// tiny shrinks a workload so the smoke test runs each in about a second.
func tiny(w workload) workload {
	w.n = 2048
	w.rate /= 5
	w.pool = min(w.pool, 256)
	w.replayQueries = min(w.replayQueries, 32)
	return w
}

// TestSmoke runs every workload at tiny size, untraced and traced, and
// checks that each prints exactly the metrics BENCHMARK.json names,
// with their units, and that nothing failed.
func TestSmoke(t *testing.T) {
	sp, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(sp.Workloads), len(workloads))
	}
	for _, ws := range sp.Workloads {
		w, err := workloadByName(ws.Name)
		if err != nil {
			t.Fatal(err)
		}
		for _, traced := range []bool{false, true} {
			rep, err := run(runConfig{w: tiny(w), seed: 7, warm: 200 * time.Millisecond, timed: time.Second, traced: traced})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			res := rep.result
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v, %d of %d failed: %v", w.name, traced, res.Correct, res.Failed, res.Attempted, rep.errs)
			}
			want := map[string]string{}
			for _, m := range sp.EndToEnd {
				want[m.Name] = m.Unit
			}
			if traced {
				want = map[string]string{}
				for _, m := range sp.PerLayer {
					want[m.Name] = m.Unit
				}
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				if !ok || m.Unit != unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s traced=%v: metric %s = %+v, want a number in %s", w.name, traced, name, m, unit)
				}
			}
			for name := range res.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s traced=%v: metric %s is not in BENCHMARK.json", w.name, traced, name)
				}
			}
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	var xs []time.Duration
	for i := 10; i >= 1; i-- {
		xs = append(xs, time.Duration(i)*time.Millisecond)
	}
	for _, c := range []struct {
		p    float64
		want time.Duration
	}{{10, 1}, {50, 5}, {90, 9}, {91, 10}, {99, 10}, {100, 10}} {
		got, n := percentile(xs, c.p)
		if got != c.want*time.Millisecond || n != 10 {
			t.Errorf("p%g = %v (n=%d), want %v (n=10)", c.p, got, n, c.want*time.Millisecond)
		}
	}
	if got, n := percentile(nil, 50); got != 0 || n != 0 {
		t.Errorf("empty sample: %v, n=%d", got, n)
	}
}

// TestQuartiles checks against statistics.quantiles(xs, n=4), the
// spread the bounds are judged by.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{4, 1, 3, 2}, 1.25, 3.75},
		{[]float64{5, 1}, 0, 6}, // extrapolated, as Python does
		{[]float64{3, 1, 2}, 1, 3},
	} {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if m := median([]float64{3, 1, 4, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestSelfTimeSubtractsUnion(t *testing.T) {
	for _, c := range []struct {
		name string
		kids [][2]int64
		want int64
	}{
		{"none", nil, 100},
		{"parallel, overlapping", [][2]int64{{30, 70}, {10, 50}}, 40},
		{"disjoint", [][2]int64{{10, 20}, {30, 40}}, 80},
		{"nested", [][2]int64{{10, 60}, {20, 30}}, 50},
		{"past the parent's end", [][2]int64{{90, 120}}, 90},
		{"covering", [][2]int64{{0, 100}, {0, 100}, {0, 100}}, 0},
	} {
		if got := selfTime(0, 100, c.kids); got != c.want {
			t.Errorf("%s: self = %d, want %d", c.name, got, c.want)
		}
	}
}

// TestAnalyze builds one traced read whose cluster call fans out to
// two overlapping member RPCs, and one flush-committed write.
func TestAnalyze(t *testing.T) {
	const trace = 1
	read := []span{
		{Trace: trace, ID: 1, Layer: "client", Start: 0, End: 1000},
		{Trace: trace, ID: 2, Parent: 1, Layer: "serve.gateway", Start: 100, End: 900},
		{Trace: trace, ID: 3, Parent: 2, Layer: "ingest", Start: 150, End: 850},
		{Trace: trace, ID: 4, Parent: 3, Layer: "cluster", Start: 200, End: 800},
		{Trace: trace, ID: 5, Parent: 4, Layer: "http.member", Start: 250, End: 600},
		{Trace: trace, ID: 6, Parent: 4, Layer: "http.member", Start: 300, End: 750},
		{Trace: trace, ID: 7, Parent: 6, Layer: "serve.member", Start: 350, End: 700},
		{Trace: trace, ID: 8, Parent: 7, Layer: "shard", Op: "topk", Start: 400, End: 650},
	}
	write := []span{
		{Trace: 2, ID: 9, Layer: "client", Start: 2000, End: 3000},
		{Trace: 2, ID: 10, Parent: 9, Layer: "ingest", Start: 2100, End: 2900, Writes: []wop{{X: 5}}},
		{Trace: flushTrace | 11, ID: 11, Layer: "cluster", Op: "apply_batch", Start: 2300, End: 2800, Writes: []wop{{X: 5}}},
	}
	samples := []sample{{trace: trace, kind: opRead, lat: 1100, late: 100}, {trace: 2, kind: opInsert, lat: 1000}}
	l := analyze(append(read, write...), samples, 0, 5000)

	for layer, want := range map[string]float64{
		"client":        (200 + 200) / 2.0, // the read's 1000 − 800; the write's 1000 − 800
		"serve.gateway": 100,
		"ingest":        (100 + 300) / 2.0, // the read's 700 − 600; the write's 800 − its flush's 500
		"cluster":       (100 + 500) / 2.0, // 600 − the union 250..750; the flush has no children
		"http.member":   (350 + 100) / 2.0,
		"serve.member":  100,
		"shard":         250,
	} {
		if got := l.selfUs[layer] * 1e3; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s self = %v ns, want %v", layer, got, want)
		}
	}
	// Critical path of the read: late 100, then self times 200 + 100 +
	// 100 + 100 along client..cluster, the later RPC's 100, its
	// handler's 100 and the shard's 250 — 1050 of the 1100 latency; the
	// 50 the earlier RPC started ahead is the fan-out skew no layer owns.
	if want := 100 * 1050 / 1100.0; math.Abs(l.coverage-want) > 1e-9 {
		t.Errorf("coverage = %v%%, want %v%%", l.coverage, want)
	}
	if l.opUs*1e3 != 800 || l.flushUs*1e3 != 500 {
		t.Errorf("op %v ns, flush %v ns; want 800, 500", l.opUs*1e3, l.flushUs*1e3)
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{10, 10.2, 9.9, 10.1, 10, 9.8, 10.3, 10.1, 9.9, 10}
	shift := func(d float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v + d
		}
		return out
	}
	for _, c := range []struct {
		name   string
		change []float64
		more   bool
		want   string
	}{
		{"same", base, false, "unchanged"},
		{"faster", shift(-1), false, "improved"},
		{"faster but more failures", shift(-1), true, "unchanged"},
		{"slightly slower", shift(0.5), false, "unchanged"},
		{"slower", shift(2), false, "regressed"},
	} {
		if got := verdict(base, c.change, true, 0.1, c.more); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	noisy := []float64{5, 15, 8, 12, 10, 6, 14, 9, 11, 10}
	if got := verdict(noisy, shift(2), true, 0.1, false); got != "unresolved" {
		t.Errorf("noisy base: %s, want unresolved", got)
	}
	if got := verdict(noisy, shift(20), true, 0.1, false); got != "regressed" {
		t.Errorf("noisy base, every change run three times slower: %s, want regressed", got)
	}
	if got := verdict(noisy, shift(20), false, 0.1, false); got != "improved" {
		t.Errorf("noisy base, higher is better: %s, want improved", got)
	}

	zero := make([]float64, len(base))
	for _, c := range []struct {
		name      string
		base, chg []float64
		want      string
	}{
		{"zero on both sides", zero, zero, "unchanged"},
		{"zero, then nonzero", zero, base, "regressed"},
		{"nonzero, then zero", base, zero, "improved"},
	} {
		if got := verdict(c.base, c.chg, true, 0.1, false); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	if d := relative(0, 0); d != 0 {
		t.Errorf("relative(0, 0) = %v, want 0", d)
	}
}

// TestCompareExitCode runs compare on run files: 1 when a gated metric
// regressed, 3 when one is unresolved, 0 otherwise.
func TestCompareExitCode(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, cpu []float64) string {
		path := filepath.Join(dir, name)
		for i, v := range cpu {
			rec := record{Workload: "read-narrow", Seed: uint64(i), result: result{Correct: true, Attempted: 1,
				Metrics: map[string]metric{"cpu_us_per_op": {Value: v, Unit: "us"}}}}
			if err := appendRecord(path, rec); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	scaled := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	noisy := []float64{50, 150, 80, 120, 100, 60, 140, 90, 110, 100}
	t.Chdir("..") // compare reads BENCHMARK.json at the root
	for _, c := range []struct {
		name         string
		base, change []float64
		want         int
	}{
		{"unchanged", steady, steady, 0},
		{"twice the CPU", steady, scaled(steady, 2), 1},
		{"noisy parent, small shift", noisy, scaled(noisy, 1.1), 3},
		{"noisy parent, three times the CPU", noisy, scaled(steady, 3), 1},
	} {
		base, change := write(c.name+".base", c.base), write(c.name+".change", c.change)
		if got := compareMain([]string{base, change}, io.Discard); got != c.want {
			t.Errorf("%s: exit %d, want %d", c.name, got, c.want)
		}
	}
}
