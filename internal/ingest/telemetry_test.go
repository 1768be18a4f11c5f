package ingest

import (
	"testing"
	"time"

	"repro/internal/point"
)

// reasonCount pulls one reason's counter out of the snapshot.
func reasonCount(t *testing.T, tel *Telemetry, name string) int64 {
	t.Helper()
	for _, rc := range tel.ReasonCounts() {
		if rc.Reason == name {
			return rc.N
		}
	}
	t.Fatalf("reason %q missing from ReasonCounts", name)
	return 0
}

// TestReasonSlotWinner: a synchronous Do with no background flusher
// parks, wins the commit slot, and the flush is attributed to the
// slot-winner trigger.
func TestReasonSlotWinner(t *testing.T) {
	c := &collectFlush{}
	b := New(Options{Flush: c.flush, Window: -1})
	defer b.Close()
	if err := b.Do(point.Op{X: 1, Score: 1}); err != nil {
		t.Fatal(err)
	}
	if got := reasonCount(t, b.Telemetry(), "slot_winner"); got != 1 {
		t.Fatalf("slot_winner = %d, want 1", got)
	}
}

// TestReasonSize: with MaxBatch=1 the background flusher finds the
// size trigger already satisfied at wake-up and commits without
// touching the window timer.
func TestReasonSize(t *testing.T) {
	c := &collectFlush{}
	b := New(Options{Flush: c.flush, MaxBatch: 1, Window: time.Hour})
	defer b.Close()
	f := b.Submit(point.Op{X: 1, Score: 1})
	select {
	case <-f.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("size trigger never fired")
	}
	if got := reasonCount(t, b.Telemetry(), "size"); got != 1 {
		t.Fatalf("size = %d, want 1", got)
	}
}

// TestReasonDeadline: one lone async op under a large MaxBatch commits
// only when the window expires.
func TestReasonDeadline(t *testing.T) {
	c := &collectFlush{}
	b := New(Options{Flush: c.flush, Window: 2 * time.Millisecond})
	defer b.Close()
	f := b.Submit(point.Op{X: 1, Score: 1})
	select {
	case <-f.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("window trigger never fired")
	}
	if got := reasonCount(t, b.Telemetry(), "deadline"); got != 1 {
		t.Fatalf("deadline = %d, want 1", got)
	}
}

// TestReasonBackpressure: a producer over MaxPending drives the commit
// itself, and the stall is recorded in the backpressure-wait histogram.
func TestReasonBackpressure(t *testing.T) {
	c := &collectFlush{}
	b := New(Options{Flush: c.flush, Window: -1, MaxPending: 1})
	defer b.Close()
	f := b.Submit(point.Op{X: 1, Score: 1})
	if !f.Ready() {
		t.Fatal("backpressure commit should have resolved the op synchronously")
	}
	tel := b.Telemetry()
	if got := reasonCount(t, tel, "backpressure"); got != 1 {
		t.Fatalf("backpressure = %d, want 1", got)
	}
	if s := tel.BackpressureWait.Snapshot(); s.Count != 1 {
		t.Fatalf("backpressure wait observations = %d, want 1", s.Count)
	}
}

// TestReasonDirect: a Submit after Close commits its own op in
// pass-through mode.
func TestReasonDirect(t *testing.T) {
	c := &collectFlush{}
	b := New(Options{Flush: c.flush, Window: -1})
	b.Close()
	f := b.Submit(point.Op{X: 1, Score: 1})
	if !f.Ready() {
		t.Fatal("post-Close submit should commit immediately")
	}
	if got := reasonCount(t, b.Telemetry(), "direct_fallback"); got != 1 {
		t.Fatalf("direct_fallback = %d, want 1", got)
	}
}

// TestReasonExplicit: an explicit Commit drains the pending group and
// is attributed as such; the group-size and flush-latency histograms
// record the committed group.
func TestReasonExplicit(t *testing.T) {
	c := &collectFlush{}
	b := New(Options{Flush: c.flush, Window: -1})
	defer b.Close()
	for i := 0; i < 3; i++ {
		b.Submit(point.Op{X: float64(i), Score: float64(i)})
	}
	b.Commit()
	tel := b.Telemetry()
	if got := reasonCount(t, tel, "explicit"); got != 1 {
		t.Fatalf("explicit = %d, want 1", got)
	}
	gs := tel.GroupSize.Snapshot()
	if gs.Count != 1 || gs.Sum != 3 {
		t.Fatalf("group size histogram count=%d sum=%v, want one group of 3", gs.Count, gs.Sum)
	}
	if fl := tel.FlushLatency.Snapshot(); fl.Count != 1 {
		t.Fatalf("flush latency observations = %d, want 1", fl.Count)
	}
	// An empty Commit records nothing.
	b.Commit()
	if got := reasonCount(t, tel, "explicit"); got != 1 {
		t.Fatalf("empty commit bumped the counter to %d", got)
	}
}

// TestReasonString: labels match declaration order and out-of-range
// values collapse to "unknown".
func TestReasonString(t *testing.T) {
	cases := map[FlushReason]string{
		ReasonSlotWinner:   "slot_winner",
		ReasonSize:         "size",
		ReasonDeadline:     "deadline",
		ReasonBackpressure: "backpressure",
		ReasonDirect:       "direct_fallback",
		ReasonExplicit:     "explicit",
		FlushReason(99):    "unknown",
		FlushReason(-1):    "unknown",
	}
	for r, want := range cases {
		if got := r.String(); got != want {
			t.Fatalf("FlushReason(%d).String() = %q, want %q", r, got, want)
		}
	}
}

// TestEnqueueZeroAllocs is the testing leg of the //topk:nomalloc
// contract on the warm enqueue path: once a stripe's buffers have
// reached steady-state capacity, enqueue performs no allocation —
// telemetry is always on, but none of it sits on this path.
func TestEnqueueZeroAllocs(t *testing.T) {
	b := New(Options{Flush: func(ops []point.Op) []error { return make([]error, len(ops)) },
		Window: -1, Stripes: 1, MaxPending: 1 << 20})
	defer b.Close()

	// Warm the stripe past any size this test reaches, then drain it:
	// commitSlotHeld truncates in place, so capacity is retained.
	for i := 0; i < 1024; i++ {
		b.Submit(point.Op{X: float64(i), Score: float64(i)})
	}
	b.Commit()

	const runs = 100
	futs := make([]*Future, 0, runs+2)
	for i := 0; i < runs+2; i++ {
		futs = append(futs, &Future{b: b, done: make(chan struct{})})
	}
	next := 0
	if allocs := testing.AllocsPerRun(runs, func() {
		b.enqueue(point.Op{X: 1, Score: 2}, futs[next])
		next++
	}); allocs != 0 {
		t.Errorf("warm enqueue allocates %.1f times per run; //topk:nomalloc promises 0", allocs)
	}
	b.Commit() // resolve the hand-built futures before Close
}
