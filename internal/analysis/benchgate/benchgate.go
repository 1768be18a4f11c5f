// Package benchgate turns the committed BENCH_*.json baselines into a
// blocking CI check. cmd/topkbench -json writes one row per measured
// configuration of the serving-layer experiments (e15 sharded reads,
// e17 snapshot routing, e18 cluster band reads); this gate diffs a
// fresh run against the committed baseline and fails when a
// configuration regressed:
//
//   - throughput: fresh qps below (1 - maxQPSDrop) of baseline. The
//     default drop budget is deliberately generous (25%) because qps
//     moves with the machine — the gate exists to catch "half the
//     throughput after a refactor", not 3% jitter.
//   - allocations: fresh allocs/op above baseline*allocRatio +
//     allocSlack. allocs/op comes from a process-wide Mallocs delta,
//     so background noise leaks in; the slack absorbs it while still
//     catching a new allocation on a hot path (which shows up as +1
//     or more per op, far above slack).
//
// Rows are matched by (name, goroutines). A row present in the
// baseline but missing from the fresh run is a regression — silently
// dropping a measured configuration is how gates rot. Extra fresh
// rows are fine (new benchmarks land before their baselines). Reports
// from different modes never compare: a -quick run has different
// sweep sizes than a full one, so the gate refuses the diff instead
// of "passing" it.
//
// Run as `topkvet benchgate -baseline BENCH_e15.json -fresh fresh/BENCH_e15.json`.
package benchgate

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// Report mirrors the BENCH_<exp>.json shape cmd/topkbench writes.
type Report struct {
	Experiment string `json:"experiment"`
	Quick      bool   `json:"quick"`
	Rows       []Row  `json:"rows"`
}

// Row is one measured configuration.
type Row struct {
	Name        string  `json:"name"`
	Goroutines  int     `json:"goroutines"`
	Ops         int     `json:"ops"`
	QPS         float64 `json:"qps"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// Options are the regression thresholds.
type Options struct {
	// MaxQPSDrop is the tolerated fractional throughput drop (0.25 =
	// fresh may be 25% slower before the gate fires).
	MaxQPSDrop float64
	// AllocRatio is the tolerated multiplicative allocs/op growth.
	AllocRatio float64
	// AllocSlack is the tolerated absolute allocs/op growth on top of
	// the ratio; absorbs MemStats noise on near-zero baselines.
	AllocSlack float64
}

// DefaultOptions are the CI thresholds.
func DefaultOptions() Options {
	return Options{MaxQPSDrop: 0.25, AllocRatio: 1.10, AllocSlack: 0.5}
}

// Regression is one failed comparison.
type Regression struct {
	Experiment string
	Name       string
	Goroutines int
	Reason     string
}

func (r Regression) String() string {
	return fmt.Sprintf("[benchgate] %s %q g=%d: %s", r.Experiment, r.Name, r.Goroutines, r.Reason)
}

type rowKey struct {
	name       string
	goroutines int
}

// Compare diffs fresh against baseline under opts. The error return
// is for structural mismatches (different experiments or modes) that
// make the diff meaningless.
func Compare(baseline, fresh Report, opts Options) ([]Regression, error) {
	if baseline.Experiment != fresh.Experiment {
		return nil, fmt.Errorf("experiment mismatch: baseline %q vs fresh %q", baseline.Experiment, fresh.Experiment)
	}
	if baseline.Quick != fresh.Quick {
		return nil, fmt.Errorf("mode mismatch: baseline quick=%v vs fresh quick=%v — quick and full sweeps are not comparable", baseline.Quick, fresh.Quick)
	}
	freshRows := map[rowKey]Row{}
	for _, r := range fresh.Rows {
		freshRows[rowKey{r.Name, r.Goroutines}] = r
	}
	var regs []Regression
	for _, base := range baseline.Rows {
		cur, ok := freshRows[rowKey{base.Name, base.Goroutines}]
		if !ok {
			regs = append(regs, Regression{
				Experiment: baseline.Experiment, Name: base.Name, Goroutines: base.Goroutines,
				Reason: "row missing from fresh run; a measured configuration disappeared",
			})
			continue
		}
		if floor := base.QPS * (1 - opts.MaxQPSDrop); cur.QPS < floor {
			regs = append(regs, Regression{
				Experiment: baseline.Experiment, Name: base.Name, Goroutines: base.Goroutines,
				Reason: fmt.Sprintf("qps %.0f below floor %.0f (baseline %.0f, budget -%.0f%%)",
					cur.QPS, floor, base.QPS, opts.MaxQPSDrop*100),
			})
		}
		if ceil := base.AllocsPerOp*opts.AllocRatio + opts.AllocSlack; cur.AllocsPerOp > ceil {
			regs = append(regs, Regression{
				Experiment: baseline.Experiment, Name: base.Name, Goroutines: base.Goroutines,
				Reason: fmt.Sprintf("allocs/op %.2f above ceiling %.2f (baseline %.2f)",
					cur.AllocsPerOp, ceil, base.AllocsPerOp),
			})
		}
	}
	return regs, nil
}

// ReadReport loads one BENCH_<exp>.json.
func ReadReport(path string) (Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Report{}, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return Report{}, fmt.Errorf("%s: %v", path, err)
	}
	if r.Experiment == "" || len(r.Rows) == 0 {
		return Report{}, fmt.Errorf("%s: not a topkbench report (missing experiment or rows)", path)
	}
	return r, nil
}

// Main runs the gate as the `topkvet benchgate` subcommand and
// returns the process exit code: 0 clean, 1 regressions, 2
// operational failure.
func Main(args []string) int {
	fs := flag.NewFlagSet("benchgate", flag.ContinueOnError)
	baselinePath := fs.String("baseline", "", "committed BENCH_<exp>.json to compare against")
	freshPath := fs.String("fresh", "", "freshly generated BENCH_<exp>.json")
	maxDrop := fs.Float64("max-qps-drop", DefaultOptions().MaxQPSDrop, "tolerated fractional qps drop before failing")
	allocRatio := fs.Float64("alloc-ratio", DefaultOptions().AllocRatio, "tolerated multiplicative allocs/op growth")
	allocSlack := fs.Float64("alloc-slack", DefaultOptions().AllocSlack, "tolerated absolute allocs/op growth on top of the ratio")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(),
			"usage: topkvet benchgate -baseline BENCH_eXX.json -fresh path/BENCH_eXX.json\n\n"+
				"Diffs a fresh topkbench -json report against the committed baseline and\n"+
				"fails on qps or allocs/op regressions.\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *baselinePath == "" || *freshPath == "" {
		fs.Usage()
		return 2
	}
	baseline, err := ReadReport(*baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "topkvet benchgate: %v\n", err)
		return 2
	}
	fresh, err := ReadReport(*freshPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "topkvet benchgate: %v\n", err)
		return 2
	}
	regs, err := Compare(baseline, fresh, Options{MaxQPSDrop: *maxDrop, AllocRatio: *allocRatio, AllocSlack: *allocSlack})
	if err != nil {
		fmt.Fprintf(os.Stderr, "topkvet benchgate: %v\n", err)
		return 2
	}
	for _, r := range regs {
		fmt.Println(r)
	}
	if len(regs) > 0 {
		fmt.Fprintf(os.Stderr, "topkvet benchgate: %d regression(s) in %s (%d baseline rows)\n",
			len(regs), baseline.Experiment, len(baseline.Rows))
		return 1
	}
	fmt.Printf("topkvet benchgate: %s clean (%d rows compared)\n", baseline.Experiment, len(baseline.Rows))
	return 0
}
