package main

// Machine-readable benchmark output: -json makes every serving-layer
// experiment (e15, e17, e18) also write a BENCH_<exp>.json with one row
// per measured configuration — qps, ns/op and allocs/op — so CI can
// archive the numbers per commit and the performance trajectory of the
// repo is a diffable artifact instead of scrollback.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"repro/internal/workload"
)

// jsonOut mirrors the -json flag (main).
var jsonOut bool

// quickMode mirrors the -quick flag (main). Recorded in the JSON so
// the benchgate refuses to diff a quick run against a full baseline —
// the sweep sizes differ and every number with them.
var quickMode bool

// outDir mirrors the -out flag (main): where BENCH_<exp>.json files
// land. Defaults to the working directory; the benchgate points it at
// a scratch dir so a fresh run never clobbers the committed baselines.
var outDir = "."

// benchRow is one measured configuration of one experiment.
type benchRow struct {
	Name        string  `json:"name"`
	Goroutines  int     `json:"goroutines"`
	Ops         int     `json:"ops"`
	QPS         float64 `json:"qps"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// benchRows accumulates rows per experiment id while it runs.
var benchRows = map[string][]benchRow{}

// benchRun runs one measurement and records it under exp. Allocations
// are the process-wide Mallocs delta across the run divided by ops —
// concurrent background allocation (GC, other goroutines) leaks in, so
// treat allocs/op as a trend signal, not an exact count.
func benchRun(exp, name string, f func() workload.Throughput) workload.Throughput {
	res, allocs := measureAllocs(f)
	benchRecord(exp, name, res, allocs)
	return res
}

// measureAllocs runs f and returns its result with the process-wide
// Mallocs delta across the run divided by its ops.
func measureAllocs(f func() workload.Throughput) (workload.Throughput, float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	res := f()
	runtime.ReadMemStats(&m1)
	return res, float64(m1.Mallocs-m0.Mallocs) / float64(max(res.Ops, 1))
}

// benchRecord appends one already-measured row. Experiments that
// interleave several measurements (so one MemStats bracket cannot
// isolate a row — e19) measure their own Mallocs delta and record
// through this.
func benchRecord(exp, name string, res workload.Throughput, allocsPerOp float64) {
	ops := res.Ops
	if ops < 1 {
		ops = 1
	}
	benchRows[exp] = append(benchRows[exp], benchRow{
		Name:        name,
		Goroutines:  res.Goroutines,
		Ops:         res.Ops,
		QPS:         res.QPS(),
		NsPerOp:     float64(res.Elapsed.Nanoseconds()) / float64(ops),
		AllocsPerOp: allocsPerOp,
	})
}

// writeBench writes BENCH_<exp>.json into outDir when -json is set
// and the experiment recorded rows.
func writeBench(exp string) {
	rows := benchRows[exp]
	if !jsonOut || len(rows) == 0 {
		return
	}
	data, err := json.MarshalIndent(map[string]any{"experiment": exp, "quick": quickMode, "rows": rows}, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench json %s: %v\n", exp, err)
		os.Exit(1)
	}
	path := filepath.Join(outDir, fmt.Sprintf("BENCH_%s.json", exp))
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "bench json %s: %v\n", exp, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d rows)\n", path, len(rows))
}
