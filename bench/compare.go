package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// record is one run's result as --out appends it.
type record struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    int    `json:"trace"`
	result
}

func appendRecord(path string, rec record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// spec is the part of BENCHMARK.json compare applies.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readSpec(path string) (spec, error) {
	var s spec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	return s, json.Unmarshal(b, &s)
}

// verdict classifies one end-to-end metric on one workload, given the
// untraced runs of the parent (base) and of the change, in run order,
// by the rules of a change claiming a gain:
//   - improved: at least ten run pairs, the change wins at least nine
//     tenths of them, its median beats the parent's by more than the
//     parent's interquartile distance, and no more requests failed;
//   - regressed: the change's median is worse by more than the bound,
//     and either every change run is worse than every parent run or the
//     parent's spread is within the bound;
//   - unresolved: otherwise, if the parent's own spread is wider than
//     the bound and not every change run beats every parent run;
//   - unchanged: otherwise.
func verdict(base, change []float64, lowerBetter bool, bound float64, moreFailures bool) string {
	better := func(a, b float64) bool { // a beats b
		if lowerBetter {
			return a < b
		}
		return a > b
	}
	wins, pairs := 0, min(len(base), len(change))
	for i := range pairs {
		if better(change[i], base[i]) {
			wins++
		}
	}
	mb, mc := median(slices.Clone(base)), median(slices.Clone(change))
	q1, q3 := quartiles(slices.Clone(base))
	if !moreFailures && pairs >= 10 && float64(wins) >= 0.9*float64(pairs) && better(mc, mb) && math.Abs(mc-mb) > q3-q1 {
		return "improved"
	}
	worse := relative(mc-mb, mb)
	allBetter, allWorse := slices.Max(change) < slices.Min(base), slices.Min(change) > slices.Max(base)
	if !lowerBetter {
		worse = -worse
		allBetter, allWorse = allWorse, allBetter
	}
	if allWorse && worse > bound {
		return "regressed"
	}
	if relative(q3-q1, mb) > bound && !allBetter {
		return "unresolved"
	}
	if worse > bound {
		return "regressed"
	}
	return "unchanged"
}

// relative returns d as a share of |base|. A zero base gives 0 for a
// zero d and an infinity otherwise, so a metric whose median is 0 (the
// block reads of read-narrow) compares without NaNs.
func relative(d, base float64) float64 {
	if d == 0 {
		return 0
	}
	return d / math.Abs(base)
}

// compareMain prints, per workload and metric, each side's median and
// quartiles and the verdict. It exits 1 if anything regressed, else 3 if
// an end-to-end metric is unresolved.
func compareMain(args []string, stdout io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare BASE.jsonl CHANGE.jsonl (run from the root of the repository)")
		return 2
	}
	sp, err := readSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench compare: %v\n", err)
		return 2
	}
	var sides [2][]record
	for i := range sides {
		if sides[i], err = readRecords(args[i]); err != nil {
			fmt.Fprintf(os.Stderr, "bench compare: %v\n", err)
			return 2
		}
	}
	// End-to-end metrics come from untraced runs and carry bounds;
	// per-layer metrics come from traced runs and have none, so they can
	// show a gain but never a regression.
	type gated struct {
		name, better string
		bound        float64
		trace        int
	}
	var metrics []gated
	for _, m := range sp.EndToEnd {
		metrics = append(metrics, gated{m.Name, m.Better, m.Bound, 0})
	}
	for _, m := range sp.PerLayer {
		metrics = append(metrics, gated{m.Name, m.Better, math.Inf(1), 1})
	}
	code := 0
	fmt.Fprintf(stdout, "%-12s %-26s %26s %26s %8s  %s\n", "workload", "metric", "base median [q1, q3]", "change median [q1, q3]", "delta", "verdict")
	for _, w := range sp.Workloads {
		for _, m := range metrics {
			var vals [2][]float64
			var failed [2]int
			for i, recs := range sides {
				for _, r := range recs {
					if v, ok := r.Metrics[m.name]; ok && r.Workload == w.Name && r.Trace == m.trace {
						vals[i] = append(vals[i], v.Value)
						failed[i] += r.Failed
					}
				}
			}
			a, b := vals[0], vals[1]
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			v := verdict(a, b, m.better == "lower", m.bound, failed[1] > failed[0])
			switch {
			case v == "regressed":
				code = 1
			case v == "unresolved" && code == 0:
				code = 3
			}
			ma, mb := median(slices.Clone(a)), median(slices.Clone(b))
			fmt.Fprintf(stdout, "%-12s %-26s %26s %26s %+7.1f%%  %s (n=%d/%d, bound %g)\n", w.Name, m.name,
				spread(a), spread(b), 100*relative(mb-ma, ma), v, len(a), len(b), m.bound)
		}
	}
	return code
}

func spread(xs []float64) string {
	q1, q3 := quartiles(slices.Clone(xs))
	return fmt.Sprintf("%.4g [%.4g, %.4g]", median(slices.Clone(xs)), q1, q3)
}
