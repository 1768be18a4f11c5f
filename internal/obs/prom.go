package obs

// Prometheus text-format (0.0.4) writers for the obs types: histogram
// families with one label dimension, and the Go runtime gauges. The
// serving layer appends these to the counter/gauge families it already
// emits on /v1/metrics; every family carries # HELP and # TYPE lines
// and histogram buckets are cumulative and end at le="+Inf" — the
// serve-layer well-formedness test parses the whole page to prove it.

import (
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"strconv"
	"time"
)

// fmtF renders a float for the text format with round-trip precision.
func fmtF(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WriteHistogramVec emits one histogram family with a series per label
// value in v. An empty vec emits the HELP/TYPE header only, so a
// family's presence on the scrape page does not depend on traffic.
func WriteHistogramVec(w io.Writer, name, help, label string, v *Vec) {
	writeHeader(w, name, help)
	if v == nil {
		return
	}
	for _, lv := range v.Labels() {
		writeSeries(w, name, fmt.Sprintf("%s=%q", label, lv), v.Get(lv).Snapshot())
	}
}

// WriteHistogram emits one unlabeled latency histogram family (bounds
// in seconds). A nil histogram emits the HELP/TYPE header only.
func WriteHistogram(w io.Writer, name, help string, h *Histogram) {
	writeHeader(w, name, help)
	if h != nil {
		writeSeries(w, name, "", h.Snapshot())
	}
}

// WriteCountHistogram emits one unlabeled value histogram family
// (bounds are raw powers of two, not seconds). A nil histogram emits
// the HELP/TYPE header only.
func WriteCountHistogram(w io.Writer, name, help string, h *CountHist) {
	writeHeader(w, name, help)
	if h != nil {
		writeSeries(w, name, "", h.Snapshot())
	}
}

func writeHeader(w io.Writer, name, help string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
}

// writeSeries emits one histogram series: its cumulative buckets, the
// +Inf bucket, _sum and _count. pair is the series' label pair
// (`op="topk"`), or empty for an unlabeled family. Durations export in
// seconds.
func writeSeries[T unit](w io.Writer, name, pair string, s View[T]) {
	sep, sel := "", ""
	if pair != "" {
		sep, sel = pair+",", "{"+pair+"}"
	}
	for i := range numBounds {
		fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", name, sep, fmtF(seconds(bound[T](i))), s.Counts[i])
	}
	fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", name, sep, s.Counts[numBounds])
	fmt.Fprintf(w, "%s_sum%s %s\n", name, sel, fmtF(seconds(s.Sum)))
	fmt.Fprintf(w, "%s_count%s %d\n", name, sel, s.Count)
}

// seconds converts a duration to the seconds Prometheus expects and
// leaves a raw value as it is.
func seconds[T unit](v T) float64 {
	if d, ok := any(v).(time.Duration); ok {
		return d.Seconds()
	}
	return float64(v)
}

// WriteRuntimeMetrics emits the Go runtime gauges: goroutines, heap
// occupancy and GC activity. It reads them through runtime/metrics,
// which never stops the world, so a scrape does not pause the server
// it measures.
func WriteRuntimeMetrics(w io.Writer) {
	s := []metrics.Sample{
		{Name: "/sched/goroutines:goroutines"},
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/gc/heap/objects:objects"},
		{Name: "/cpu/classes/gc/pause:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %s\n", name, help, name, name, fmtF(v))
	}
	counter := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %s\n", name, help, name, name, fmtF(v))
	}
	gauge("topkd_go_goroutines", "Live goroutines.", float64(s[0].Value.Uint64()))
	gauge("topkd_go_heap_alloc_bytes", "Bytes of allocated heap objects.", float64(s[1].Value.Uint64()))
	gauge("topkd_go_heap_objects", "Live heap objects.", float64(s[2].Value.Uint64()))
	// The runtime charges each GC pause as GOMAXPROCS times its length.
	counter("topkd_go_gc_pause_seconds_total",
		"Cumulative stop-the-world GC pause time, estimated as the runtime's GC pause CPU time over GOMAXPROCS.",
		s[3].Value.Float64()/float64(runtime.GOMAXPROCS(0)))
	counter("topkd_go_gc_cycles_total", "Completed GC cycles.", float64(s[4].Value.Uint64()))
}
