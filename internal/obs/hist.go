// Package obs is the telemetry subsystem of the serving stack:
// lock-cheap latency histograms, request tracing with cross-process
// propagation, structured request logging, and Go runtime gauges —
// threaded through every tier (Index → Sharded → Cluster) by
// internal/serve's middleware and internal/cluster's RPC client.
//
// The design budget is the hot path: a histogram observation is one
// cheap per-thread random draw, two atomic adds and one atomic
// increment on a striped shard — no locks, no allocation — so the
// serving layer can record every request and every member RPC without
// moving the needle on the benchmarks it is measuring (e15 reports the
// on-vs-off delta). Tracing allocates, so it is sampled: a request is
// traced when it carries an X-Topkd-Trace header (propagated from an
// upstream gateway) or when the local sample rate fires.
package obs

import (
	"math"
	"math/bits"
	"math/rand/v2"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Bucketing: log-scaled, bucket i holds raw values ≤ 2^i for i in
// [0, numBounds), found with one bits.Len64; everything past the last
// bound lands in the overflow (+Inf) bucket. A Histogram's raw value
// is microseconds, so its buckets span 1µs to ~16.8s.
const (
	numBounds  = 25
	numStripes = 8 // power of two; stripes spread hot-bucket contention
)

// stripe is one shard of a histogram. Each stripe spans several cache
// lines already (26 counters); the trailing pad keeps the sum/count
// words of adjacent stripes from sharing a line.
type stripe struct {
	counts [numBounds + 1]atomic.Uint64 // last = overflow (+Inf)
	sum    atomic.Int64
	n      atomic.Uint64
	_      [6]uint64
}

// hist is the striped log₂ core of both histogram views.
type hist struct {
	stripes [numStripes]stripe
}

// observe records one raw value and adds sum to the stripe's sum.
//
//topk:nomalloc
func (h *hist) observe(raw uint64, sum int64) {
	idx := 0
	if raw > 0 {
		// Smallest i with raw ≤ 2^i.
		idx = bits.Len64(raw - 1)
	}
	if idx > numBounds {
		idx = numBounds
	}
	// rand/v2's global generators draw from per-thread state, so the
	// stripe choice is cheap and contention-free.
	s := &h.stripes[rand.Uint32()&(numStripes-1)]
	s.counts[idx].Add(1)
	s.sum.Add(sum)
	s.n.Add(1)
}

// Histogram is a lock-free, striped, log-scaled latency histogram:
// microsecond buckets, a nanosecond sum. Observe never locks and never
// allocates; Snapshot merges the stripes into one cumulative view. The
// zero value is ready to use.
type Histogram struct{ hist }

// Observe records one duration. Negative durations clamp to zero.
//
//topk:nomalloc
func (h *Histogram) Observe(d time.Duration) {
	d = max(d, 0)
	h.observe(uint64(d/time.Microsecond), int64(d))
}

// Snapshot merges the stripes and cumulates the buckets.
func (h *Histogram) Snapshot() Snapshot { return snapshot[time.Duration](&h.hist) }

// CountHist is the same histogram over integer values (group sizes,
// queue depths) rather than durations: bucket i holds values ≤ 2^i.
// The zero value is ready to use.
type CountHist struct{ hist }

// Observe records one value. Zero lands in the first bucket.
//
//topk:nomalloc
func (h *CountHist) Observe(v uint64) { h.observe(v, int64(v)) }

// Snapshot merges the stripes and cumulates the buckets.
func (h *CountHist) Snapshot() ValueSnapshot { return snapshot[float64](&h.hist) }

// unit is what a histogram view reports in: durations, or raw values.
type unit interface{ time.Duration | float64 }

// bound returns bucket i's upper bound in unit T: 2^i µs, or 2^i.
func bound[T unit](i int) T {
	b := T(uint64(1) << uint(i))
	if _, ok := any(b).(time.Duration); ok {
		b *= T(time.Microsecond)
	}
	return b
}

// View is a merged, cumulative view of a histogram in unit T:
// Counts[i] is the number of observations ≤ bound i, the final entry
// the +Inf bucket (== Count). Taken against concurrent writers the
// buckets may disagree with Sum by in-flight observations; Count is
// derived from the buckets so that the Prometheus invariant
// (_count == +Inf bucket) always holds.
type View[T unit] struct {
	Counts [numBounds + 1]uint64
	Sum    T
	Count  uint64
}

// Snapshot is a Histogram's view, ValueSnapshot a CountHist's.
type (
	Snapshot      = View[time.Duration]
	ValueSnapshot = View[float64]
)

// snapshot merges h's stripes into a cumulative view in unit T.
func snapshot[T unit](h *hist) View[T] {
	var s View[T]
	var sum int64
	for i := range h.stripes {
		st := &h.stripes[i]
		for b := range st.counts {
			s.Counts[b] += st.counts[b].Load()
		}
		sum += st.sum.Load()
	}
	for b := 1; b < len(s.Counts); b++ {
		s.Counts[b] += s.Counts[b-1]
	}
	s.Sum, s.Count = T(sum), s.Counts[numBounds]
	return s
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) by linear
// interpolation inside the owning log-scaled bucket, so the estimate
// is within one bucket width (a factor of 2) of the true value. The
// overflow bucket has no upper bound and reports its lower edge, "at
// least this much". Zero observations estimate zero.
func (s View[T]) Quantile(q float64) T {
	if s.Count == 0 {
		return 0
	}
	rank := max(uint64(math.Ceil(min(max(q, 0), 1)*float64(s.Count))), 1)
	prev := uint64(0)
	for i, c := range s.Counts[:numBounds] {
		if c >= rank {
			var lo T
			if i > 0 {
				lo = bound[T](i - 1)
			}
			frac := float64(rank-prev) / float64(c-prev)
			return lo + T(frac*float64(bound[T](i)-lo))
		}
		prev = c
	}
	return bound[T](numBounds - 1)
}

// Vec is a set of histograms keyed by one label value (endpoint, op,
// member address). Labels are created lazily on first observation;
// lookups take a read lock only.
type Vec struct {
	mu sync.RWMutex
	m  map[string]*Histogram
}

// NewVec returns an empty histogram vector.
func NewVec() *Vec { return &Vec{m: map[string]*Histogram{}} }

// Observe records d under label, creating the histogram on first use.
// The label space is closed (the boundedlabel analyzer enforces it),
// so the steady state is always the read-lock hit; creation lives in
// its own unannotated method so this path can promise zero
// allocations.
//
//topk:nomalloc
func (v *Vec) Observe(label string, d time.Duration) {
	v.mu.RLock()
	h := v.m[label]
	v.mu.RUnlock()
	if h == nil {
		h = v.create(label)
	}
	h.Observe(d)
}

// create allocates the histogram for a new label — the cold path,
// taken once per label for the process lifetime.
func (v *Vec) create(label string) *Histogram {
	v.mu.Lock()
	defer v.mu.Unlock()
	h := v.m[label]
	if h == nil {
		h = &Histogram{}
		v.m[label] = h
	}
	return h
}

// Get returns the histogram for label, or nil if nothing was observed
// under it.
func (v *Vec) Get(label string) *Histogram {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.m[label]
}

// Labels returns the observed label values, sorted — the deterministic
// iteration order of the Prometheus export.
func (v *Vec) Labels() []string {
	v.mu.RLock()
	out := make([]string, 0, len(v.m))
	for l := range v.m {
		out = append(out, l)
	}
	v.mu.RUnlock()
	sort.Strings(out)
	return out
}

// Snapshots returns a merged snapshot per label.
func (v *Vec) Snapshots() map[string]Snapshot {
	v.mu.RLock()
	hs := make(map[string]*Histogram, len(v.m))
	for l, h := range v.m {
		hs[l] = h
	}
	v.mu.RUnlock()
	out := make(map[string]Snapshot, len(hs))
	for l, h := range hs {
		out[l] = h.Snapshot()
	}
	return out
}
