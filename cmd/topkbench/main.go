// Command topkbench regenerates every experiment in the experiments
// table below: E1–E14 are the empirical validation of the paper's
// claims, E15–E19 measure the serving stack. The paper is a theory
// paper with no measurement section of its own, so each of E1–E14
// realizes one theorem/lemma as a measured table: I/O counts from the
// simulated external-memory disk against the bound's predicted shape,
// and the headline comparison against the Sheng–Tao baseline.
//
// Usage:
//
//	topkbench             # run every experiment
//	topkbench -exp e2     # one experiment
//	topkbench -quick      # smaller sweeps (CI-sized)
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
)

type experiment struct {
	id    string
	title string
	run   func(quick bool)
}

var experiments = []experiment{
	{"e1", "Theorem 1: query I/Os vs n, k (predicted log_B n + k/B)", e1},
	{"e2", "Theorem 1 vs [14]: amortized update I/Os (the headline result)", e2},
	{"e3", "Lemma 1 (§2 PST): query I/Os vs k, base-2 log term", e3},
	{"e4", "Lemma 2: φ ablation — recall of Q1∪Q2∪Q3 below the proven φ=16", e4},
	{"e5", "Lemma 3: token invariant audit under churn", e5},
	{"e6", "Lemma 5 (AURS): operator calls and approximation vs m", e6},
	{"e7", "Lemma 6 ((f,l)-structure): query/update I/Os vs f·l", e7},
	{"e8", "Lemma 7 (sketch merge): observed rank ratio vs bound", e8},
	{"e9", "Lemma 8 + §4.1: compressed blocks fit in one block (bit-counted)", e9},
	{"e10", "Space: blocks used vs n/B for every structure", e10},
	{"e11", "§1.2 regime map: dispatch and crossover at k = B·lg n", e11},
	{"e12", "Figures 1–2: T̂ concatenation and heap concatenation", e12},
	{"e13", "§1.1 RAM baseline: comparisons scale as lg n + k", e13},
	{"e14", "Ablations: pool size, φ, adaptive selection, sketch base", e14},
	{"e15", "Serving layer (Store v1): TopK vs QueryBatch throughput", e15},
	{"e16", "Shard lifecycle: delete-churn qps and shard count, merges on vs off", e16},
	{"e17", "Snapshot routing: read qps under concurrent writers", e17},
	{"e18", "Cluster tier: gateway qps vs node count (score-ordered band reads), vs direct-local", e18},
	{"e19", "Write path: single-op insert qps, group commit on vs off, cluster tier", e19},
}

func main() {
	exp := flag.String("exp", "", "experiment id (e1..e19); empty = all")
	quick := flag.Bool("quick", false, "smaller parameter sweeps")
	jsonFlag := flag.Bool("json", false, "also write BENCH_<exp>.json rows (qps, ns/op, allocs/op) for the serving-layer experiments")
	out := flag.String("out", ".", "directory for BENCH_<exp>.json files")
	flag.Parse()
	jsonOut = *jsonFlag
	quickMode = *quick
	outDir = *out

	any := false
	for _, e := range experiments {
		if *exp != "" && !strings.EqualFold(*exp, e.id) {
			continue
		}
		any = true
		fmt.Printf("==== %s: %s ====\n", strings.ToUpper(e.id), e.title)
		e.run(*quick)
		writeBench(e.id)
		fmt.Println()
	}
	if !any {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; known:", *exp)
		for _, e := range experiments {
			fmt.Fprintf(os.Stderr, " %s", e.id)
		}
		fmt.Fprintln(os.Stderr)
		os.Exit(2)
	}
}
