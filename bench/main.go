// Command bench is the repository benchmark. It boots the deployed
// serving stack in one process — three `topkd -range` members and a
// `topkd -gateway -batch-window 1ms` over them, on loopback listeners
// — drives one open-loop workload through the gateway, checks every
// answer, and prints every metric by name with its unit. The last line
// of standard output is the result as one JSON object.
//
//	bench --workload read-narrow --seed 1 --seconds 20 --trace 0
//	bench compare BASE.jsonl CHANGE.jsonl
//
// --trace 0 prints the end-to-end metrics, measured with tracing off.
// --trace 1 repeats the workload on a stack with tracing wrappers at
// every layer boundary and prints the per-layer metrics. README.md is
// the metric dictionary.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"time"
)

// setupBoots is how many times a run boots the stack; setup_s is the
// median.
const setupBoots = 5

// warmUp is the untimed lead-in before every timed window.
const warmUp = 3 * time.Second

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	os.Exit(runMain(os.Args[1:], os.Stdout))
}

func runMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: read-narrow, read-wide or write-mix")
	seed := fs.Uint64("seed", 1, "seed of the points, queries and op stream")
	seconds := fs.Int("seconds", 20, "length of the timed window")
	trace := fs.Int("trace", 0, "1 runs the traced repeat and prints the per-layer metrics")
	out := fs.String("out", "", "append the result, with its workload and seed, as a JSON line to this file")
	traceOut := fs.String("trace-out", "", "write the traced run's spans to this file as JSON lines")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil || *seconds < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintf(os.Stderr, "bench: need --workload (read-narrow, read-wide, write-mix), --seconds ≥ 1 and --trace 0|1\n")
		return 2
	}
	cfg := runConfig{w: w, seed: *seed, warm: warmUp, timed: time.Duration(*seconds) * time.Second,
		traced: *trace == 1, traceOut: *traceOut}
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	for _, l := range rep.lines {
		fmt.Fprintln(stdout, l)
	}
	for _, e := range rep.errs {
		fmt.Fprintf(os.Stderr, "bench: %s\n", e)
	}
	line, err := json.Marshal(rep.result)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	if *out != "" {
		if err := appendRecord(*out, record{Workload: w.name, Seed: *seed, Trace: *trace, result: rep.result}); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
	}
	fmt.Fprintln(stdout, string(line))
	if !rep.result.Correct {
		return 1
	}
	return 0
}

type runConfig struct {
	w           workload
	seed        uint64
	warm, timed time.Duration
	traced      bool
	traceOut    string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object the run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd names the metrics of an untraced run's result, perLayer
// those of a traced run's; BENCHMARK.json lists the same names (the
// smoke test checks). Every other metric is printed in the ledger only.
var (
	endToEnd = []string{"setup_s", "cpu_us_per_op", "allocs_per_op", "heap_mb", "space_ratio"}
	perLayer = []string{
		"client.p50_ms", "client.p90_ms", "client.p99_ms", "client.read_p50_ms", "client.late_p99_ms",
		"http.client_hop_us", "serve.gateway_self_us", "ingest.self_us", "cluster.self_us", "cluster.rpcs_per_op",
		"http.member_hop_us", "serve.member_self_us", "shard.call_us",
		"engine.reads_per_op", "engine.bound_per_query", "engine.io_ratio",
		"engine.replay_query_us", "engine.replay_query_allocs", "engine.replay_query_reads",
		"engine.replay_update_us", "engine.replay_update_ios",
		"runtime.gc_cycles_per_kop", "runtime.gc_pause_us_per_op",
		"trace.overhead_pct", "trace.coverage_pct",
	}
)

// report is a run's printed ledger and its result.
type report struct {
	lines  []string
	errs   []string
	keep   []string // the metrics the result carries
	result result
}

// put prints a metric in the ledger and, if it is one the result
// carries, records it there.
func (r *report) put(name string, v float64, unit, note string) {
	r.lines = append(r.lines, fmt.Sprintf("%-27s %14.6g %-7s %s", name, v, unit, note))
	if slices.Contains(r.keep, name) {
		r.result.Metrics[name] = metric{Value: v, Unit: unit}
	}
}

// run boots the stack setupBoots times and drives the workload through
// the last boot with tracing off. A traced run then replays the
// workload against a standalone Index and drives it once more through a
// traced stack.
func run(cfg runConfig) (*report, error) {
	w := cfg.w
	in := generate(w, cfg.seed, cfg.warm+cfg.timed)
	rep := &report{keep: endToEnd, result: result{Correct: true, Metrics: map[string]metric{}}}
	if cfg.traced {
		rep.keep = perLayer
	}
	rep.lines = append(rep.lines, fmt.Sprintf("# %s seed=%d: n=%d, %g req/s open loop, %s warm-up + %s timed, %d senders",
		w.name, cfg.seed, w.n, w.rate, cfg.warm, cfg.timed, senders))

	var boots []float64
	var st *stack
	for range setupBoots {
		if st != nil {
			st.close()
		}
		runtime.GC()
		t0 := time.Now()
		s, err := boot(w, in.points, nil)
		if err != nil {
			return nil, err
		}
		boots = append(boots, time.Since(t0).Seconds())
		st = s
	}
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)

	var answers []answer
	if w.readShare == 1 {
		answers = oracle(in.points, in.queries)
	}
	seg := newDriver(w, in, answers, st.gateway.URL, nil).drive(st, cfg.warm, cfg.timed)
	st.close()
	rep.count(seg)
	rep.premises(w, in, seg)

	ops := float64(max(seg.timedOps, 1))
	rep.put("setup_s", median(boots), "s", fmt.Sprintf("median of %d boots", len(boots)))
	rep.put("allocs_per_op", float64(seg.mem.Mallocs)/ops, "allocs", fmt.Sprintf("%d mallocs / %d requests", seg.mem.Mallocs, seg.timedOps))
	rep.put("heap_mb", float64(mem.HeapInuse)/(1<<20), "MiB", "HeapInuse after set-up and a GC")
	rep.put("space_ratio", float64(seg.blocksLive)/(float64(seg.live)/blockWords), "ratio",
		fmt.Sprintf("%d live blocks for n=%d", seg.blocksLive, seg.live))
	rep.put("cpu_us_per_op", float64(seg.cpu)/1e3/ops, "us", "process CPU time, load generator included")
	rep.tails(seg.samples)
	rep.put("runtime.gc_cycles_per_kop", 1000*float64(seg.mem.NumGC)/ops, "count", fmt.Sprintf("%d cycles", seg.mem.NumGC))
	rep.put("runtime.gc_pause_us_per_op", float64(seg.mem.PauseTotalNs)/1e3/ops, "us", "")

	var queries, bound float64
	for _, s := range seg.samples {
		if s.kind == opRead {
			queries++
			bound += ioBound(seg.live, s.k)
		}
	}
	rep.put("engine.reads_per_op", float64(seg.io.Reads)/ops, "reads", fmt.Sprintf("%d block reads", seg.io.Reads))
	rep.put("engine.bound_per_query", bound/max(queries, 1), "ios", "mean log_B n + k/B over reads")
	rep.put("engine.io_ratio", float64(seg.io.Reads)/max(bound, 1), "ratio", "block reads ÷ Σ bound")
	if w.readShare < 1 {
		rep.put("ingest.ops_per_flush", float64(seg.batcher.Ops)/float64(max(seg.batcher.Flushes, 1)), "ops",
			fmt.Sprintf("%d flushes", seg.batcher.Flushes))
		rep.put("ingest.max_group", float64(seg.batcher.MaxGroup), "ops", "")
		rep.put("shard.splits", float64(seg.splits), "count", "")
		rep.put("shard.merges", float64(seg.merges), "count", "")
	}
	if !cfg.traced {
		return rep, nil
	}

	runtime.GC()
	rp, err := replay(w, in)
	if err != nil {
		return nil, err
	}
	rep.put("engine.replay_query_us", rp.queryUs, "us", "standalone Index, one query at a time")
	rep.put("engine.replay_query_allocs", rp.queryAllocs, "allocs", "")
	rep.put("engine.replay_query_reads", rp.queryReads, "reads", "")
	rep.put("engine.replay_update_us", rp.updateUs, "us", fmt.Sprintf("%d-op insert/delete stream", rp.updates))
	rep.put("engine.replay_update_ios", rp.updateIOs, "ios", "block reads + writes per update")

	tr := newTracer()
	tst, err := boot(w, in.points, tr)
	if err != nil {
		return nil, err
	}
	tseg := newDriver(w, in, answers, tst.gateway.URL, tr).drive(tst, cfg.warm, cfg.timed)
	tst.close()
	rep.count(tseg)
	if cfg.traceOut != "" {
		if err := tr.write(cfg.traceOut); err != nil {
			return nil, err
		}
	}
	rep.layers(w, analyze(tr.spans, tseg.samples, tr.at(tseg.from), tr.at(tseg.to)), tseg.timedOps)
	p50, _ := percentile(latencies(seg.samples, nil), 50)
	tp50, _ := percentile(latencies(tseg.samples, nil), 50)
	rep.put("trace.overhead_pct", 100*(float64(tp50)/float64(p50)-1), "%",
		fmt.Sprintf("traced p50 %.4gms vs untraced %.4gms", ms(tp50), ms(p50)))
	return rep, nil
}

// count adds a segment's requests and failures to the result.
func (r *report) count(seg *segment) {
	r.result.Attempted += seg.attempted
	r.result.Failed += seg.failed
	r.errs = append(r.errs, seg.errs...)
	if seg.failed > 0 {
		r.result.Correct = false
	}
	r.lines = append(r.lines, fmt.Sprintf("# %d requests sent, %d failed, %d timed", seg.attempted, seg.failed, seg.timedOps))
}

// premises fails the run when the workload did not exercise what it
// was chosen for.
func (r *report) premises(w workload, in *inputs, seg *segment) {
	var errs []error
	if w.resident && seg.io.Reads != 0 {
		errs = append(errs, fmt.Errorf("%s: %d block reads in the timed window; its pools should hold every block", w.name, seg.io.Reads))
	}
	if w.pst {
		if seg.io.Reads == 0 {
			errs = append(errs, fmt.Errorf("%s: no block reads; its pools should be far smaller than its data", w.name))
		}
		for _, q := range in.queries {
			if q.k < pstFloor(w.n) {
				errs = append(errs, fmt.Errorf("%s: k=%d below B·lg n = %d", w.name, q.k, pstFloor(w.n)))
				break
			}
		}
	}
	if w.readShare < 1 && math.Abs(float64(seg.live-w.n)) > float64(w.n)/8 {
		errs = append(errs, fmt.Errorf("%s: live size %d drifted from %d", w.name, seg.live, w.n))
	}
	if err := errors.Join(errs...); err != nil {
		r.result.Correct = false
		r.errs = append(r.errs, "premise: "+err.Error())
	}
}

// tails prints the percentiles the sample supports, with its size:
// over all requests, and per request class.
func (r *report) tails(samples []sample) {
	for _, c := range []struct {
		prefix string
		keep   func(opKind) bool
	}{
		{"client.", nil},
		{"client.read_", func(k opKind) bool { return k == opRead }},
		{"client.write_", func(k opKind) bool { return k != opRead }},
	} {
		xs := latencies(samples, c.keep)
		if len(xs) == 0 {
			continue
		}
		for _, p := range []float64{50, 90, 99, 99.9} {
			v, n := percentile(xs, p)
			r.put(fmt.Sprintf("%sp%g_ms", c.prefix, p), ms(v), "ms",
				fmt.Sprintf("n=%d, %d beyond", n, n-int(math.Ceil(p/100*float64(n)))))
		}
	}
	late := make([]time.Duration, len(samples))
	for i, s := range samples {
		late[i] = s.late
	}
	v, n := percentile(late, 99)
	r.put("client.late_p99_ms", ms(v), "ms", fmt.Sprintf("n=%d, how late the generator sent", n))
}

// layers prints the per-layer self times of the traced segment.
func (r *report) layers(w workload, l ledger, timedOps int) {
	for _, sl := range selfLayers {
		r.put(sl.metric, l.selfUs[sl.layer], "us", fmt.Sprintf("mean self time of %d %s spans", l.spans[sl.layer], sl.layer))
	}
	r.put("cluster.rpcs_per_op", float64(l.spans["http.member"])/float64(max(timedOps, 1)), "rpcs", "")
	r.put("trace.coverage_pct", l.coverage, "%", "read critical-path self times ÷ read latency")
	if w.readShare < 1 {
		r.put("ingest.op_us", l.opUs, "us", "single-op write at the ingest layer")
		r.put("ingest.flush_us", l.flushUs, "us", "group-commit flush")
		r.put("ingest.wait_us", l.opUs-l.flushUs, "us", "op − flush")
		r.put("shard.apply_us_per_op", l.applyUs, "us", "member ApplyBatch time per op")
	}
}

// latencies returns the latencies of the samples whose kind keep
// accepts (all of them for a nil keep).
func latencies(samples []sample, keep func(opKind) bool) []time.Duration {
	var xs []time.Duration
	for _, s := range samples {
		if keep == nil || keep(s.kind) {
			xs = append(xs, s.lat)
		}
	}
	return slices.Clip(xs)
}
