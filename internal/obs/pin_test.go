package obs

import (
	"bytes"
	"math"
	"os"
	"testing"
	"time"
)

// pinned returns a latency histogram, a value histogram and a labelled
// vec fed fixed observations that reach the first bucket, bucket edges,
// the last bounded bucket and the overflow.
func pinned() (*Histogram, *CountHist, *Vec) {
	var lat Histogram
	for _, d := range []time.Duration{-time.Second, 0, 1, 999, time.Microsecond, 1001, 3 * time.Microsecond,
		1500 * time.Microsecond, 333333, time.Second, 1048576 * time.Microsecond, 17 * time.Second, time.Hour} {
		lat.Observe(d)
	}
	var cnt CountHist
	for _, v := range []uint64{0, 1, 2, 3, 5, 16, 17, 1000, 1 << 24, 1<<24 + 1, math.MaxUint32} {
		cnt.Observe(v)
	}
	v := NewVec()
	v.Observe("topk", 3*time.Microsecond)
	v.Observe("topk", 100*time.Millisecond)
	v.Observe("count", 1333)
	v.Observe("other", 0)
	return &lat, &cnt, v
}

// TestWritersPinned: the three Prometheus writers render the pinned
// histograms, and nil or empty ones, to the bytes of
// testdata/writers.golden.
func TestWritersPinned(t *testing.T) {
	lat, cnt, v := pinned()
	var b bytes.Buffer
	WriteHistogram(&b, "a_seconds", "latency", lat)
	WriteHistogram(&b, "n_seconds", "nil latency", nil)
	WriteCountHistogram(&b, "c_size", "values", cnt)
	WriteCountHistogram(&b, "n_size", "nil values", nil)
	WriteHistogramVec(&b, "v_seconds", "labelled", "endpoint", v)
	WriteHistogramVec(&b, "e_seconds", "empty", "op", NewVec())
	want, err := os.ReadFile("testdata/writers.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b.Bytes(), want) {
		t.Fatalf("writers render\n%s\nwant\n%s", b.Bytes(), want)
	}
}

// TestQuantilesPinned: the quantiles /v1/stats prints (latency as a
// duration it divides into milliseconds, values as they are) stay at
// their pinned estimates, clamped q and interpolation included.
func TestQuantilesPinned(t *testing.T) {
	lat, cnt, v := pinned()
	ls, cs := lat.Snapshot(), cnt.Snapshot()
	for _, c := range []struct {
		q   float64
		lat time.Duration
		cnt float64
	}{
		{-1, 166, 0.5}, {0, 166, 0.5}, {0.01, 166, 0.5}, {0.25, 666, 2}, {0.5, 4000, 16},
		{0.95, 16777216000, 1.6777216e+07}, {1, 16777216000, 1.6777216e+07}, {2, 16777216000, 1.6777216e+07},
	} {
		if got := ls.Quantile(c.q); got != c.lat {
			t.Errorf("latency Quantile(%v) = %d, want %d", c.q, got, c.lat)
		}
		if got := cs.Quantile(c.q); got != c.cnt {
			t.Errorf("value Quantile(%v) = %v, want %v", c.q, got, c.cnt)
		}
	}
	for label, want := range map[string][3]time.Duration{
		"topk":  {4000, 131072000, 131072000},
		"count": {1000, 1000, 1000},
	} {
		s := v.Get(label).Snapshot()
		if got := [3]time.Duration{s.Quantile(0.5), s.Quantile(0.95), s.Quantile(0.99)}; got != want {
			t.Errorf("%s p50/p95/p99 = %v, want %v", label, got, want)
		}
	}

	var many Histogram
	var vals CountHist
	for i := range 1000 {
		many.Observe(time.Duration(i*i) * 37)
		vals.Observe(uint64(i * 7))
	}
	ms, vs := many.Snapshot(), vals.Snapshot()
	for _, c := range []struct {
		q   float64
		lat time.Duration
		cnt float64
	}{
		{0.1, 376470, 694.3561643835617}, {0.33, 4032659, 2306.621160409556},
		{0.5, 9410297, 3494.8805460750855}, {0.66, 16131938, 4828.135265700483},
		{0.9, 30274782, 7202.628019323672}, {0.999, 64971034, 8182.106280193237},
	} {
		if got := ms.Quantile(c.q); got != c.lat {
			t.Errorf("latency Quantile(%v) = %d, want %d", c.q, got, c.lat)
		}
		if got := vs.Quantile(c.q); got != c.cnt {
			t.Errorf("value Quantile(%v) = %v, want %v", c.q, got, c.cnt)
		}
	}
}
