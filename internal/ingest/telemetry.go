package ingest

// Write-path telemetry: which trigger fired each flush, how big the
// groups ran, how long a flush took, and how long producers stalled in
// backpressure. The histograms are the striped lock-free obs types, so
// recording them sits on the commit path (one flush per group, already
// serialized by the slot) and on the backpressure path (already a
// stall) — never on the warm enqueue path, which stays allocation- and
// observation-free.

import (
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// FlushReason identifies the trigger that drove a group commit.
type FlushReason int

const (
	// ReasonSlotWinner: a parked sync caller won the commit slot and
	// led the flush (the self-clocking group-commit path).
	ReasonSlotWinner FlushReason = iota
	// ReasonSize: the background flusher committed because MaxBatch
	// ops were already pending.
	ReasonSize
	// ReasonDeadline: the background flusher committed after waiting
	// out Window.
	ReasonDeadline
	// ReasonBackpressure: a producer over MaxPending drove the commit
	// itself.
	ReasonBackpressure
	// ReasonDirect: a Submit racing Close committed its own op in
	// pass-through mode.
	ReasonDirect
	// ReasonExplicit: an explicit Commit call (Flush API, Close drain).
	ReasonExplicit

	numReasons
)

// reasonNames are the Prometheus label values, indexed by FlushReason.
var reasonNames = [numReasons]string{
	"slot_winner", "size", "deadline", "backpressure", "direct_fallback", "explicit",
}

// String returns the reason's metric label.
func (r FlushReason) String() string {
	if r < 0 || r >= numReasons {
		return "unknown"
	}
	return reasonNames[r]
}

// Telemetry is the batcher's observability state. All fields are safe
// for concurrent use; the zero value is ready.
type Telemetry struct {
	// GroupSize is the distribution of committed group sizes (ops per
	// flush).
	GroupSize obs.CountHist
	// FlushLatency is the distribution of backend Flush call durations.
	FlushLatency obs.Histogram
	// BackpressureWait is the distribution of time producers spent
	// driving commits because pending exceeded MaxPending.
	BackpressureWait obs.Histogram

	reasons [numReasons]atomic.Int64
}

// ReasonCount is one flush-reason counter.
type ReasonCount struct {
	Reason string
	N      int64
}

// ReasonCounts returns the per-reason flush counters in declaration
// order (deterministic for the metrics export).
func (t *Telemetry) ReasonCounts() []ReasonCount {
	out := make([]ReasonCount, numReasons)
	for i := range out {
		out[i] = ReasonCount{Reason: reasonNames[i], N: t.reasons[i].Load()}
	}
	return out
}

// observeFlush records one committed group.
func (t *Telemetry) observeFlush(reason FlushReason, size int, d time.Duration) {
	t.GroupSize.Observe(uint64(size))
	t.FlushLatency.Observe(d)
	t.reasons[reason].Add(1)
}
