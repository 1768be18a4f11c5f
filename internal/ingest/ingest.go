// Package ingest is the write-path group-commit layer: it coalesces
// concurrent single-op writes into grouped flushes so the per-op
// coordination cost — an HTTP request on the cluster tier, a topology
// RLock plus a shard mutex in process — amortizes across the group.
//
// The design is classic leader-based group commit. Producers append
// ops to per-P striped buffers (the stripe pick mirrors the obs
// histogram trick: a per-thread cheap random source indexes a
// power-of-two stripe array, so concurrent producers rarely share a
// stripe mutex). A single commit slot — a one-token channel —
// serializes flushes. A synchronous caller parks on its op's future
// AND races for the slot: whichever parked caller wins becomes the
// leader, drains every stripe into one group, flushes it with a single
// backend call, delivers each op's own error to its future, and
// releases the slot to the next leader. Group size is therefore
// self-clocking — it grows exactly with how many writers overlapped
// one commit — and a lone writer degenerates to a direct call plus a
// channel handoff, not to a deadline wait.
//
// Asynchronous producers (Submit without Wait) rely on the background
// flusher instead: it commits a pending group once it has waited
// Window (the latency bound when traffic is sparse) or as soon as
// MaxBatch ops are pending, within the window too (the memory bound
// when it is not). When pending ops exceed MaxPending, producers lend a hand by
// trying the commit slot themselves — backpressure by making the
// writers pay, rather than an unbounded queue.
//
// Error fidelity is exact: Flush returns one error per op, positional
// (the ApplyBatch contract), and each future receives precisely the
// error its op produced — so a batched Insert reports the same
// sentinel an unbatched one would have, matchable with errors.Is.
package ingest

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/point"
)

// Future is the per-op outcome handle. The submitting caller parks on
// Wait; the serving layer's async-ack mode polls Ready/Err instead and
// reports the outcome over HTTP.
type Future struct {
	b    *Batcher
	done chan struct{}
	err  error // written once, before done closes
}

// Done returns a channel closed when the op's group has committed.
func (f *Future) Done() <-chan struct{} { return f.done }

// Ready reports whether the op's group has committed.
func (f *Future) Ready() bool {
	select {
	case <-f.done:
		return true
	default:
		return false
	}
}

// Err returns the op's outcome once Ready: nil for applied, else
// exactly the error the backend returned for this op. Before the group
// commits it returns nil — callers must check Ready (or use Wait,
// which blocks for the real outcome).
func (f *Future) Err() error {
	if !f.Ready() {
		return nil
	}
	return f.err
}

// Wait parks until the op's group commits and returns its outcome.
// Parked callers drive commits themselves: the first to win the commit
// slot becomes the leader and flushes the whole pending group, so sync
// throughput is bounded by commit latency, never by Window.
func (f *Future) Wait() error {
	b := f.b
	for {
		select {
		case <-f.done:
			return f.err
		case <-b.slot:
			// Leader: commit the current group. Our op was enqueued
			// before Wait, and the drain sweeps every stripe, so after
			// this commit f is resolved (by us, or by a previous leader
			// that beat us to it) and the next select returns. The token
			// goes back via defer so a panicking flush cannot strand it.
			func() {
				defer func() { b.slot <- struct{}{} }()
				b.commitSlotHeld(ReasonSlotWinner)
			}()
		}
	}
}

// Options configures a Batcher. Flush is mandatory; everything else
// has serving-tuned defaults.
type Options struct {
	// Flush commits one group, returning exactly one error per op,
	// positionally aligned (the ApplyBatch contract). Calls are
	// serialized by the commit slot, so Flush may reuse internal
	// buffers across calls. The ops slice is owned by the Batcher and
	// invalid after Flush returns.
	Flush func(ops []point.Op) []error
	// MaxBatch is the size trigger: the background flusher commits
	// immediately once this many ops are pending instead of waiting
	// out the window. It is a trigger, not a hard group ceiling — ops
	// that arrive while a commit is in flight join the next group,
	// however many there are. Default 256.
	MaxBatch int
	// Window is the deadline trigger: the longest an op waits for
	// company before the background flusher commits its group. It
	// bounds async latency only — sync callers chain commits through
	// the slot and never wait it. Default 1ms; negative disables the
	// background flusher entirely (sync-only operation).
	Window time.Duration
	// Stripes is the enqueue-buffer stripe count, rounded up to a
	// power of two. Default 8.
	Stripes int
	// MaxPending is the backpressure bound: a producer that observes
	// more pending ops tries to drive a commit itself instead of
	// queueing further. Default 4×MaxBatch.
	MaxPending int
}

func (o Options) withDefaults() Options {
	if o.MaxBatch <= 0 {
		o.MaxBatch = 256
	}
	if o.Window == 0 {
		o.Window = time.Millisecond
	}
	if o.Stripes <= 0 {
		o.Stripes = 8
	}
	n := 1
	for n < o.Stripes {
		n <<= 1
	}
	o.Stripes = n
	if o.MaxPending <= 0 {
		o.MaxPending = 4 * o.MaxBatch
	}
	return o
}

// stripe is one enqueue buffer. The padding keeps neighboring stripes
// off one cache line, the same layout trick as the obs histogram
// stripes — contention is the whole reason the buffers are striped.
type stripe struct {
	mu   sync.Mutex
	ops  []point.Op
	futs []*Future
	_    [8]uint64
}

// Stats is a snapshot of the batcher's lifetime counters.
type Stats struct {
	// Flushes is the number of non-empty groups committed.
	Flushes int64
	// Ops is the total ops committed across all groups.
	Ops int64
	// MaxGroup is the largest single group committed.
	MaxGroup int64
	// Pending is the ops currently enqueued and not yet committed.
	Pending int64
}

// Batcher coalesces concurrent ops into grouped flushes. Create with
// New; the zero value is not usable. A Batcher must not be copied
// after first use (it owns mutexes and atomics).
type Batcher struct {
	opt  Options
	mask uint32
	strs []stripe

	// slot is the commit slot: a one-token channel. Holding the token
	// grants the exclusive right to drain-and-flush; parked sync
	// callers, the background flusher and Close all race for it.
	slot chan struct{}
	// wake coalesces "ops are pending" signals to the background
	// flusher (capacity 1; a failed non-blocking send means a token is
	// already there, and the flusher's next drain happens after that
	// token is consumed — so every enqueued op is eventually swept).
	wake chan struct{}
	stop chan struct{}
	fin  chan struct{}

	closed  atomic.Bool
	pending atomic.Int64

	flushes  atomic.Int64
	flushed  atomic.Int64
	maxGroup atomic.Int64

	// Group assembly buffers, reused across commits; guarded by slot
	// ownership, not a mutex.
	gops  []point.Op
	gfuts []*Future

	tel Telemetry
}

// New returns a running Batcher over opt.Flush.
func New(opt Options) *Batcher {
	if opt.Flush == nil {
		panic("ingest: Options.Flush is required")
	}
	opt = opt.withDefaults()
	b := &Batcher{
		opt:  opt,
		mask: uint32(opt.Stripes - 1),
		strs: make([]stripe, opt.Stripes),
		slot: make(chan struct{}, 1),
		wake: make(chan struct{}, 1),
		stop: make(chan struct{}),
		fin:  make(chan struct{}),
	}
	b.slot <- struct{}{}
	if opt.Window > 0 {
		go b.run()
	} else {
		close(b.fin)
	}
	return b
}

// Submit enqueues op and returns its future without waiting. The op
// commits when a parked caller drives the slot, when the background
// flusher's window or size trigger fires, or at Close — whichever
// comes first.
func (b *Batcher) Submit(op point.Op) *Future {
	f := &Future{b: b, done: make(chan struct{})}
	n := b.enqueue(op, f)
	if b.closed.Load() {
		// Late submit racing Close: the final drain may already have
		// swept this stripe, and the flusher is gone — commit here so
		// the op passes straight through instead of stranding. (The
		// stripe mutex orders us after the final drain, which the
		// closed store precedes, so this branch is reached exactly
		// when it must be.)
		b.commit(ReasonDirect)
		return f
	}
	select {
	case b.wake <- struct{}{}:
	default:
	}
	if n >= int64(b.opt.MaxPending) {
		start := time.Now()
		b.tryCommit(ReasonBackpressure)
		b.tel.BackpressureWait.Observe(time.Since(start))
	}
	return f
}

// enqueue appends (op, f) to a random stripe and returns the new
// pending depth. This is the warm write path — steady state the
// stripe's backing arrays already have capacity (commitSlotHeld
// truncates them in place), so the append is two stores under a
// striped mutex with no allocation; growth is split into the cold
// unannotated method below.
//
//topk:nomalloc
func (b *Batcher) enqueue(op point.Op, f *Future) int64 {
	s := &b.strs[rand.Uint32()&b.mask]
	s.mu.Lock()
	i := len(s.ops)
	if i < cap(s.ops) && i < cap(s.futs) {
		s.ops = s.ops[:i+1]
		s.ops[i] = op
		s.futs = s.futs[:i+1]
		s.futs[i] = f
	} else {
		s.grow(op, f)
	}
	s.mu.Unlock()
	return b.pending.Add(1)
}

// grow is the cold append path, taken while a stripe's buffers are
// still warming up to the process's steady-state group size.
func (s *stripe) grow(op point.Op, f *Future) {
	s.ops = append(s.ops, op)
	s.futs = append(s.futs, f)
}

// Do submits op and waits for its group to commit — the synchronous
// write path. It returns exactly the error an unbatched call would
// have: nil, or the backend's sentinel for this op.
func (b *Batcher) Do(op point.Op) error { return b.Submit(op).Wait() }

// Commit drives one group commit now: acquire the slot, drain every
// stripe, flush, deliver. A no-op when nothing is pending.
func (b *Batcher) Commit() { b.commit(ReasonExplicit) }

// commit is Commit with the flush-reason attribution threaded through.
func (b *Batcher) commit(reason FlushReason) {
	<-b.slot
	defer func() { b.slot <- struct{}{} }()
	b.commitSlotHeld(reason)
}

// tryCommit commits only if the slot is free — the backpressure path,
// where a producer lends a hand but never queues behind the slot.
func (b *Batcher) tryCommit(reason FlushReason) {
	select {
	case <-b.slot:
	default:
		return
	}
	defer func() { b.slot <- struct{}{} }()
	b.commitSlotHeld(reason)
}

// commitSlotHeld drains all stripes into one group and flushes it.
// The caller holds the commit slot token.
func (b *Batcher) commitSlotHeld(reason FlushReason) {
	ops := b.gops[:0]
	futs := b.gfuts[:0]
	for i := range b.strs {
		s := &b.strs[i]
		s.mu.Lock()
		ops = append(ops, s.ops...)
		futs = append(futs, s.futs...)
		s.ops = s.ops[:0]
		for j := range s.futs {
			s.futs[j] = nil // don't retain futures past delivery
		}
		s.futs = s.futs[:0]
		s.mu.Unlock()
	}
	b.gops, b.gfuts = ops, futs
	if len(ops) == 0 {
		return
	}
	b.pending.Add(-int64(len(ops)))

	flushStart := time.Now()
	var errs []error
	func() {
		defer func() {
			if v := recover(); v != nil {
				// A panicking backend must not strand parked callers:
				// deliver the failure, then propagate (the Commit defer
				// restores the slot token on the way out).
				for _, f := range futs {
					f.err = fmt.Errorf("ingest: flush panicked: %v", v)
					close(f.done)
				}
				panic(v)
			}
		}()
		errs = b.opt.Flush(ops)
	}()
	if len(errs) != len(ops) {
		// Contract violation by the backend; fail every op loudly
		// rather than misattribute outcomes positionally.
		err := fmt.Errorf("ingest: flush returned %d errors for %d ops", len(errs), len(ops))
		for _, f := range futs {
			f.err = err
			close(f.done)
		}
		return
	}
	// Count the group before waking its callers, so a caller that
	// reads Stats or Telemetry after its op completes sees the flush.
	b.flushes.Add(1)
	b.flushed.Add(int64(len(ops)))
	if g := int64(len(ops)); g > b.maxGroup.Load() {
		b.maxGroup.Store(g) // serialized by the slot; no CAS loop needed
	}
	b.tel.observeFlush(reason, len(ops), time.Since(flushStart))
	for i, f := range futs {
		f.err = errs[i]
		close(f.done)
	}
}

// run is the background flusher: the async deadline (Window) and size
// (MaxBatch) triggers. Sync callers never depend on it — they chain
// commits through the slot themselves.
func (b *Batcher) run() {
	defer close(b.fin)
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	for {
		select {
		case <-b.stop:
			return
		case <-b.wake:
		}
		// Let a sparse group gather company for up to Window; a group
		// at MaxBatch commits at once, also when it gets there within
		// the window: every Submit wakes the flusher after it counts
		// its op as pending, so the wake that follows the op that
		// fills the group finds it full.
		reason := ReasonSize
		if b.pending.Load() < int64(b.opt.MaxBatch) {
			reason = ReasonDeadline
			timer.Reset(b.opt.Window)
		window:
			for {
				select {
				case <-b.stop:
					if !timer.Stop() {
						<-timer.C
					}
					return // Close performs the final drain after we exit
				case <-timer.C:
					break window
				case <-b.wake:
					if b.pending.Load() >= int64(b.opt.MaxBatch) {
						if !timer.Stop() {
							<-timer.C
						}
						reason = ReasonSize
						break window
					}
				}
			}
		}
		b.commit(reason)
		if b.pending.Load() > 0 {
			// Ops arrived during the commit; make sure a wake token
			// exists so they are swept without waiting for a producer.
			select {
			case b.wake <- struct{}{}:
			default:
			}
		}
	}
}

// Close stops the background flusher, commits every pending op — a
// part-filled stripe included — and returns. Accepted ops are never
// dropped: anything enqueued before Close commits here, and a Submit
// racing Close commits itself (see Submit). After Close the Batcher
// keeps working in pass-through mode: each Submit flushes promptly via
// its own commit. Idempotent and safe for concurrent use.
func (b *Batcher) Close() error {
	if b.closed.CompareAndSwap(false, true) {
		close(b.stop)
	}
	<-b.fin
	b.Commit()
	return nil
}

// Telemetry returns the batcher's write-path telemetry.
func (b *Batcher) Telemetry() *Telemetry { return &b.tel }

// Stats snapshots the lifetime counters.
func (b *Batcher) Stats() Stats {
	return Stats{
		Flushes:  b.flushes.Load(),
		Ops:      b.flushed.Load(),
		MaxGroup: b.maxGroup.Load(),
		Pending:  b.pending.Load(),
	}
}
