package ingest

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/point"
)

// collectFlush is a Flush backend that records every group and returns
// a per-op error computed by errFor (nil errFor = all nil).
type collectFlush struct {
	mu     sync.Mutex
	groups [][]point.Op
	errFor func(point.Op) error
}

func (c *collectFlush) flush(ops []point.Op) []error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.groups = append(c.groups, append([]point.Op(nil), ops...))
	errs := make([]error, len(ops))
	if c.errFor != nil {
		for i, op := range ops {
			errs[i] = c.errFor(op)
		}
	}
	return errs
}

func (c *collectFlush) total() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, g := range c.groups {
		n += len(g)
	}
	return n
}

func TestDoDeliversPerOpErrors(t *testing.T) {
	errOdd := errors.New("odd score")
	c := &collectFlush{errFor: func(op point.Op) error {
		if int(op.Score)%2 == 1 {
			return errOdd
		}
		return nil
	}}
	b := New(Options{Flush: c.flush})
	defer b.Close()
	for i := 0; i < 50; i++ {
		err := b.Do(point.Op{X: float64(i), Score: float64(i)})
		if i%2 == 1 {
			if !errors.Is(err, errOdd) {
				t.Fatalf("op %d: got %v, want errOdd", i, err)
			}
		} else if err != nil {
			t.Fatalf("op %d: got %v, want nil", i, err)
		}
	}
	if got := c.total(); got != 50 {
		t.Fatalf("flushed %d ops, want 50", got)
	}
}

// Concurrent sync writers must each get exactly their own op's error,
// however the ops were grouped.
func TestConcurrentSyncErrorFidelity(t *testing.T) {
	errNeg := errors.New("negative")
	c := &collectFlush{errFor: func(op point.Op) error {
		if op.X < 0 {
			return errNeg
		}
		return nil
	}}
	b := New(Options{Flush: c.flush})
	defer b.Close()
	const writers, per = 16, 100
	var wg sync.WaitGroup
	var bad atomic.Int64
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				x := float64(w*per + i)
				if i%3 == 0 {
					x = -x - 1
				}
				err := b.Do(point.Op{X: x})
				want := x < 0
				if got := errors.Is(err, errNeg); got != want {
					bad.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	if n := bad.Load(); n != 0 {
		t.Fatalf("%d ops got the wrong outcome", n)
	}
	if got := c.total(); got != writers*per {
		t.Fatalf("flushed %d ops, want %d", got, writers*per)
	}
	if s := b.Stats(); s.Pending != 0 || s.Ops != writers*per {
		t.Fatalf("stats = %+v, want pending 0, ops %d", s, writers*per)
	}
}

// An async Submit with no Wait must commit via the window trigger.
func TestWindowTriggerCommitsAsyncOps(t *testing.T) {
	c := &collectFlush{}
	b := New(Options{Flush: c.flush, Window: 2 * time.Millisecond})
	defer b.Close()
	f := b.Submit(point.Op{X: 1})
	select {
	case <-f.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("async op never committed (window trigger dead)")
	}
	if !f.Ready() || f.Err() != nil {
		t.Fatalf("ready=%v err=%v, want ready nil", f.Ready(), f.Err())
	}
}

// Filling MaxBatch must commit without waiting out a long window: each
// of two rounds of MaxBatch async submits commits as one group on the
// size trigger. The first round pauses between submits, so the flusher
// wakes before its group is full; the second submits back to back. A
// round is exactly MaxBatch ops because a group takes every op pending
// when it commits, so ops submitted past a full group may hold fewer
// than MaxBatch and rightly wait for the window.
func TestSizeTriggerBeatsWindow(t *testing.T) {
	const maxBatch = 8
	c := &collectFlush{}
	b := New(Options{Flush: c.flush, Window: time.Hour, MaxBatch: maxBatch})
	defer b.Close()
	for round, pause := range []time.Duration{time.Millisecond, 0} {
		futs := make([]*Future, maxBatch)
		for i := range futs {
			futs[i] = b.Submit(point.Op{X: float64(round*maxBatch + i)})
			time.Sleep(pause)
		}
		for i, f := range futs {
			select {
			case <-f.Done():
			case <-time.After(2 * time.Second):
				t.Fatalf("round %d: op %d never committed (size trigger dead)", round, i)
			}
		}
		if s := b.Stats(); s.Flushes != int64(round+1) || s.MaxGroup != maxBatch {
			t.Fatalf("round %d: stats = %+v, want %d flushes of %d ops", round, s, round+1, maxBatch)
		}
		if n := b.Telemetry().ReasonCounts()[ReasonSize].N; n != int64(round+1) {
			t.Fatalf("round %d: %d size-triggered flushes, want %d", round, n, round+1)
		}
	}
}

// Close with a part-filled group must flush it: no accepted-then-dropped
// writes.
func TestCloseFlushesPartFilledStripe(t *testing.T) {
	c := &collectFlush{}
	b := New(Options{Flush: c.flush, Window: time.Hour, MaxBatch: 1 << 20})
	futs := make([]*Future, 5)
	for i := range futs {
		futs[i] = b.Submit(point.Op{X: float64(i)})
	}
	if got := c.total(); got != 0 {
		t.Fatalf("flushed %d ops before Close, want 0 (window is an hour)", got)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if got := c.total(); got != 5 {
		t.Fatalf("flushed %d ops after Close, want 5", got)
	}
	for i, f := range futs {
		if !f.Ready() {
			t.Fatalf("op %d future unresolved after Close", i)
		}
	}
	// After Close the batcher passes through: each Submit commits.
	f := b.Submit(point.Op{X: 99})
	select {
	case <-f.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("post-Close submit stranded")
	}
	if got := c.total(); got != 6 {
		t.Fatalf("flushed %d ops after post-Close submit, want 6", got)
	}
	if err := b.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
}

// Mixed sync/async churn under the race detector: every op commits
// exactly once, nothing strands, stats balance.
func TestConcurrentStress(t *testing.T) {
	c := &collectFlush{}
	b := New(Options{Flush: c.flush, Window: 200 * time.Microsecond, MaxBatch: 64})
	const writers, per = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var tail []*Future
			for i := 0; i < per; i++ {
				op := point.Op{X: float64(w*per + i), Delete: i%5 == 0}
				if i%2 == 0 {
					if err := b.Do(op); err != nil {
						t.Errorf("do: %v", err)
					}
				} else {
					tail = append(tail, b.Submit(op))
				}
			}
			for _, f := range tail {
				if err := f.Wait(); err != nil {
					t.Errorf("wait: %v", err)
				}
			}
		}(w)
	}
	wg.Wait()
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if got := c.total(); got != writers*per {
		t.Fatalf("flushed %d ops, want %d", got, writers*per)
	}
	s := b.Stats()
	if s.Ops != writers*per || s.Pending != 0 {
		t.Fatalf("stats = %+v, want ops %d pending 0", s, writers*per)
	}
	if s.MaxGroup < 1 || s.Flushes < 1 {
		t.Fatalf("stats = %+v, want at least one flush", s)
	}
}

// A group must contain more than one op when writers overlap a slow
// commit — the group-commit property itself.
func TestGroupsFormUnderConcurrency(t *testing.T) {
	c := &collectFlush{}
	slow := func(ops []point.Op) []error {
		time.Sleep(time.Millisecond)
		return c.flush(ops)
	}
	b := New(Options{Flush: slow})
	defer b.Close()
	const writers, per = 8, 20
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := b.Do(point.Op{X: float64(w*per + i)}); err != nil {
					t.Errorf("do: %v", err)
				}
			}
		}(w)
	}
	wg.Wait()
	if s := b.Stats(); s.MaxGroup < 2 {
		t.Fatalf("max group %d, want ≥ 2 (writers never coalesced)", s.MaxGroup)
	}
}

// A backend that violates the one-error-per-op contract must fail the
// whole group loudly rather than misattribute outcomes.
func TestShortFlushFailsGroup(t *testing.T) {
	b := New(Options{Flush: func(ops []point.Op) []error { return nil }, Window: -1})
	defer b.Close()
	err := b.Do(point.Op{X: 1})
	if err == nil {
		t.Fatal("want a contract-violation error, got nil")
	}
}

// A panicking backend must resolve parked futures and release the
// commit slot before the panic propagates — a poisoned flush must not
// wedge later writers.
func TestFlushPanicReleasesSlot(t *testing.T) {
	var calls atomic.Int64
	b := New(Options{Flush: func(ops []point.Op) []error {
		if calls.Add(1) == 1 {
			panic("poisoned")
		}
		return make([]error, len(ops))
	}, Window: -1})
	defer b.Close()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("panic did not propagate")
			}
		}()
		_ = b.Do(point.Op{X: 1})
	}()
	// The slot must still work.
	done := make(chan error, 1)
	go func() { done <- b.Do(point.Op{X: 2}) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("post-panic do: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("slot wedged after flush panic")
	}
}

// Sync throughput must not be bounded by the window: W/window would be
// far below what chained leader commits deliver.
func TestSyncPathIgnoresWindow(t *testing.T) {
	c := &collectFlush{}
	b := New(Options{Flush: c.flush, Window: time.Hour})
	defer b.Close()
	start := time.Now()
	for i := 0; i < 100; i++ {
		if err := b.Do(point.Op{X: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("100 sync ops took %v — sync path is waiting the window", el)
	}
}

func TestStatsString(t *testing.T) {
	b := New(Options{Flush: func(ops []point.Op) []error { return make([]error, len(ops)) }, Window: -1})
	defer b.Close()
	for i := 0; i < 3; i++ {
		if err := b.Do(point.Op{X: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	s := b.Stats()
	if s.Ops != 3 {
		t.Fatalf("stats ops = %d, want 3", s.Ops)
	}
	_ = fmt.Sprintf("%+v", s)
}

// Stats counts flushes and ops from the group-size histogram, so the
// two views of a commit cannot drift apart.
func TestStatsReadGroupSizeHistogram(t *testing.T) {
	b := New(Options{Flush: func(ops []point.Op) []error { return make([]error, len(ops)) }, Window: -1})
	defer b.Close()
	for g := 1; g <= 4; g++ {
		for i := 0; i < g; i++ {
			b.Submit(point.Op{X: float64(10*g + i)})
		}
		b.Commit()
	}
	gs := b.Telemetry().GroupSize.Snapshot()
	s := b.Stats()
	if s.Flushes != 4 || s.Ops != 10 || s.MaxGroup != 4 || s.Pending != 0 {
		t.Fatalf("stats = %+v, want 4 flushes of 10 ops, max group 4, none pending", s)
	}
	if uint64(s.Flushes) != gs.Count || float64(s.Ops) != gs.Sum {
		t.Fatalf("stats = %+v, group-size histogram count %d sum %v", s, gs.Count, gs.Sum)
	}
}
