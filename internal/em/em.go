// Package em simulates the external-memory (EM) model of Aggarwal and
// Vitter, the cost model in which the paper's bounds are stated.
//
// A machine has M words of internal memory and a disk of unbounded size
// formatted into blocks of B words. An I/O transfers one block between
// disk and memory; CPU computation is free. The package provides:
//
//   - Disk: the simulated device. It owns an I/O meter and a buffer pool
//     of M/B frames with LRU replacement. Object payloads live in Go
//     memory, but every access to an object that is not resident in the
//     pool charges one read I/O per block the object spans, and every
//     eviction of a dirty object charges one write I/O per block —
//     exactly the accounting of the model.
//   - Store[T]: a typed object store bound to a Disk. Each object reports
//     its size in words; the store derives the number of blocks it spans
//     and enforces capacity invariants declared by callers.
//
// All structures in this repository allocate their nodes through stores
// on a shared Disk so one experiment has a single, coherent I/O meter.
package em

import "fmt"

// Word is the machine word of the model. The paper requires a word of
// Ω(lg n) bits; 64 bits comfortably covers every input size used here.
type Word = uint64

// DefaultB and DefaultM are the block and memory sizes (in words) used
// when a Config field is zero. M = Ω(B) per the model; 16 frames is small
// enough that buffer-pool hits do not mask the asymptotic I/O behaviour.
const (
	DefaultB = 64
	DefaultM = 16 * DefaultB
)

// Config describes an EM machine.
type Config struct {
	// B is the block size in words.
	B int
	// M is the memory size in words. The buffer pool has M/B frames.
	M int
	// WriteThrough, if set, charges write I/Os at write time instead of
	// at eviction time. Accounting totals are identical for workloads
	// that eventually evict everything; write-back (the default) matches
	// the model's "write B words in memory to a disk block" phrasing.
	WriteThrough bool
}

func (c Config) withDefaults() Config {
	if c.B <= 0 {
		c.B = DefaultB
	}
	if c.M <= 0 {
		c.M = DefaultM
	}
	if c.M < 2*c.B {
		// The model demands M ≥ 2B (footnote 2 of the paper).
		c.M = 2 * c.B
	}
	return c
}

// Stats is a snapshot of the I/O meter.
type Stats struct {
	// Reads counts block transfers from disk to memory.
	Reads int64
	// Writes counts block transfers from memory to disk.
	Writes int64
	// Allocs and Frees count object (not block) lifecycle events.
	Allocs int64
	Frees  int64
	// BlocksLive is the number of disk blocks currently occupied.
	BlocksLive int64
	// BlocksPeak is the high-water mark of BlocksLive.
	BlocksPeak int64
}

// IOs returns total block transfers (reads + writes).
func (s Stats) IOs() int64 { return s.Reads + s.Writes }

// Sub returns the delta s - t, leaving the space gauges from s.
func (s Stats) Sub(t Stats) Stats {
	return Stats{
		Reads:      s.Reads - t.Reads,
		Writes:     s.Writes - t.Writes,
		Allocs:     s.Allocs - t.Allocs,
		Frees:      s.Frees - t.Frees,
		BlocksLive: s.BlocksLive,
		BlocksPeak: s.BlocksPeak,
	}
}

func (s Stats) String() string {
	return fmt.Sprintf("reads=%d writes=%d ios=%d live=%d peak=%d",
		s.Reads, s.Writes, s.IOs(), s.BlocksLive, s.BlocksPeak)
}

// Handle identifies an object within its Store.
type Handle int64

// NilHandle is the zero, never-allocated handle.
const NilHandle Handle = 0

// slot is one buffer-pool entry: an object currently in memory. Slots
// live in Disk.slots and are linked into the LRU list by index, so a
// miss reuses a freed slot instead of allocating an entry.
type slot struct {
	key        poolKey
	span       int // blocks occupied while resident
	dirty      bool
	prev, next int32 // LRU neighbours (prev toward the front); none at the ends
}

// none is the nil slot index.
const none int32 = -1

type poolKey struct {
	store  int32
	handle Handle
}

// Disk is a simulated EM machine: meter + buffer pool.
//
// Disk is not safe for concurrent use; the model is sequential and so are
// all algorithms in the paper. Wrap with external locking if needed.
type Disk struct {
	cfg    Config
	stats  Stats
	frames int // pool capacity in blocks

	// The buffer pool: an LRU list linked by index over slots, most
	// recently used at head. Freed slots chain through next from free.
	// Every resident object spans at least one block, so the slice
	// never grows past the largest frame count the pool has had.
	used       int // blocks currently resident
	slots      []slot
	head, tail int32
	free       int32
	present    map[poolKey]int32

	nextStore int32
	spanOf    map[poolKey]int // live object spans, for space accounting
}

// NewDisk creates a Disk for the given configuration.
func NewDisk(cfg Config) *Disk {
	cfg = cfg.withDefaults()
	return &Disk{
		cfg:     cfg,
		frames:  cfg.M / cfg.B,
		head:    none,
		tail:    none,
		free:    none,
		present: make(map[poolKey]int32),
		spanOf:  make(map[poolKey]int),
	}
}

// B returns the block size in words.
func (d *Disk) B() int { return d.cfg.B }

// M returns the memory size in words.
func (d *Disk) M() int { return d.cfg.M }

// Frames returns the buffer-pool capacity in blocks.
func (d *Disk) Frames() int { return d.frames }

// Stats returns a snapshot of the I/O meter.
func (d *Disk) Stats() Stats { return d.stats }

// Resize re-derives the buffer pool for a new memory budget of m
// words, applying the same floor as NewDisk (M ≥ 2B, footnote 2 of
// the paper). Shrinking evicts LRU victims until residency fits the
// new frame count, charging write I/Os for dirty evictions exactly as
// any other eviction would — the model's cost of giving memory back.
// The shard maintenance loop uses it to reclaim pools left
// over-provisioned by fleet growth between rebuilds.
func (d *Disk) Resize(m int) {
	if m < 2*d.cfg.B {
		m = 2 * d.cfg.B
	}
	d.cfg.M = m
	d.frames = m / d.cfg.B
	for d.used > d.frames && d.tail != none {
		d.evict(d.tail)
	}
}

// ResetMeter zeroes the read/write/alloc/free counters, keeping space
// gauges. Used by benches to separate build cost from query cost.
func (d *Disk) ResetMeter() {
	d.stats.Reads, d.stats.Writes = 0, 0
	d.stats.Allocs, d.stats.Frees = 0, 0
}

// DropCache evicts everything from the buffer pool (writing back dirty
// objects), so the next access to any object is a cold read. Benches call
// this to measure cold-cache query costs.
func (d *Disk) DropCache() {
	for d.tail != none {
		d.evict(d.tail)
	}
}

// SpanFor returns how many blocks an object of size words occupies.
func (d *Disk) SpanFor(words int) int {
	if words <= 0 {
		return 1
	}
	return (words + d.cfg.B - 1) / d.cfg.B
}

// unlink takes slot i out of the LRU list.
//
//topk:nomalloc
func (d *Disk) unlink(i int32) {
	s := &d.slots[i]
	if s.prev != none {
		d.slots[s.prev].next = s.next
	} else {
		d.head = s.next
	}
	if s.next != none {
		d.slots[s.next].prev = s.prev
	} else {
		d.tail = s.prev
	}
}

// pushFront links slot i in as the most recently used.
//
//topk:nomalloc
func (d *Disk) pushFront(i int32) {
	s := &d.slots[i]
	s.prev, s.next = none, d.head
	if d.head != none {
		d.slots[d.head].prev = i
	} else {
		d.tail = i
	}
	d.head = i
}

// admit makes key resident in a free slot at the front of the list.
// The slot slice grows only while the pool has never held this many
// objects at once; after that every miss reuses a freed slot.
func (d *Disk) admit(key poolKey, span int, dirty bool) {
	i := d.free
	if i == none {
		d.slots = append(d.slots, slot{})
		i = int32(len(d.slots) - 1)
	} else {
		d.free = d.slots[i].next
	}
	d.slots[i] = slot{key: key, span: span, dirty: dirty}
	d.pushFront(i)
	d.present[key] = i
	d.used += span
}

// drop removes slot i from the pool without charging anything and
// returns it to the free list.
//
//topk:nomalloc
func (d *Disk) drop(i int32) {
	d.unlink(i)
	s := &d.slots[i]
	delete(d.present, s.key)
	d.used -= s.span
	s.next = d.free
	d.free = i
}

// evict drops slot i, writing it back if it is dirty.
//
//topk:nomalloc
func (d *Disk) evict(i int32) {
	if s := &d.slots[i]; s.dirty && !d.cfg.WriteThrough {
		d.stats.Writes += int64(s.span)
	}
	d.drop(i)
}

func (d *Disk) ensureRoom(span int) {
	for d.used+span > d.frames && d.tail != none {
		d.evict(d.tail)
	}
}

// touch makes the object resident, charging read I/Os on a miss and
// write I/Os per the write policy. span is the object's current span;
// dirty marks the access as a mutation.
func (d *Disk) touch(key poolKey, span int, dirty bool) {
	if span > d.frames {
		// An object larger than memory cannot be cached; every access
		// streams it. Charge and do not insert.
		d.stats.Reads += int64(span)
		if dirty {
			d.stats.Writes += int64(span)
		}
		return
	}
	if i, ok := d.present[key]; ok {
		d.hit(i, span, dirty)
		return
	}
	d.ensureRoom(span)
	d.stats.Reads += int64(span)
	if dirty && d.cfg.WriteThrough {
		d.stats.Writes += int64(span)
	}
	d.admit(key, span, dirty && !d.cfg.WriteThrough)
}

// hit is touch on a resident object: adjust its occupancy if it grew
// or shrank, apply the write policy, and move it to the front.
//
//topk:nomalloc
func (d *Disk) hit(i int32, span int, dirty bool) {
	if old := d.slots[i].span; old != span {
		// Object grew or shrank while resident; adjust occupancy.
		d.ensureRoomExcept(span-old, i)
		d.used += span - old
		d.slots[i].span = span
	}
	if dirty {
		if d.cfg.WriteThrough {
			d.stats.Writes += int64(span)
		} else {
			d.slots[i].dirty = true
		}
	}
	if d.head != i {
		d.unlink(i)
		d.pushFront(i)
	}
}

// ensureRoomExcept evicts from the back until extra more blocks fit,
// never evicting keep.
//
//topk:nomalloc
func (d *Disk) ensureRoomExcept(extra int, keep int32) {
	for d.used+extra > d.frames && d.head != d.tail {
		victim := d.tail
		if victim == keep {
			victim = d.slots[victim].prev
		}
		d.evict(victim)
	}
}

// createFresh registers a newly allocated object: it is written in memory
// and will be charged as a write on eviction (write-back) or now
// (write-through). It does not charge a read: the object was produced in
// memory, not loaded.
func (d *Disk) createFresh(key poolKey, span int) {
	d.stats.Allocs++
	d.stats.BlocksLive += int64(span)
	if d.stats.BlocksLive > d.stats.BlocksPeak {
		d.stats.BlocksPeak = d.stats.BlocksLive
	}
	d.spanOf[key] = span
	if span > d.frames {
		d.stats.Writes += int64(span)
		return
	}
	if _, ok := d.present[key]; ok {
		panic("em: double allocation of handle")
	}
	d.ensureRoom(span)
	if d.cfg.WriteThrough {
		d.stats.Writes += int64(span)
	}
	d.admit(key, span, !d.cfg.WriteThrough)
}

func (d *Disk) resize(key poolKey, span int) {
	old := d.spanOf[key]
	d.spanOf[key] = span
	d.stats.BlocksLive += int64(span - old)
	if d.stats.BlocksLive > d.stats.BlocksPeak {
		d.stats.BlocksPeak = d.stats.BlocksLive
	}
}

func (d *Disk) release(key poolKey) {
	span := d.spanOf[key]
	delete(d.spanOf, key)
	d.stats.Frees++
	d.stats.BlocksLive -= int64(span)
	if i, ok := d.present[key]; ok {
		d.drop(i)
	}
}

// Store is a typed object store on a Disk. The zero value is unusable;
// create stores with NewStore.
type Store[T any] struct {
	disk   *Disk
	id     int32
	name   string
	sizeOf func(T) int
	next   Handle
	objs   map[Handle]T
}

// NewStore registers a store named name on d. sizeOf reports an object's
// size in words; it decides how many blocks (I/Os) each access costs.
func NewStore[T any](d *Disk, name string, sizeOf func(T) int) *Store[T] {
	d.nextStore++
	return &Store[T]{
		disk:   d,
		id:     d.nextStore,
		name:   name,
		sizeOf: sizeOf,
		objs:   make(map[Handle]T),
	}
}

// Disk returns the disk the store is bound to.
func (s *Store[T]) Disk() *Disk { return s.disk }

// Len returns the number of live objects.
func (s *Store[T]) Len() int { return len(s.objs) }

// Alloc stores v as a fresh object and returns its handle.
func (s *Store[T]) Alloc(v T) Handle {
	s.next++
	h := s.next
	s.objs[h] = v
	s.disk.createFresh(poolKey{s.id, h}, s.disk.SpanFor(s.sizeOf(v)))
	return h
}

// Read loads the object (charging I/Os on a pool miss) and returns it.
// The returned value aliases the stored one for pointer-typed T; callers
// that mutate through it must follow with Write to charge the write.
func (s *Store[T]) Read(h Handle) T {
	v, ok := s.objs[h]
	if !ok {
		panic(fmt.Sprintf("em: %s: read of dead handle %d", s.name, h))
	}
	s.disk.touch(poolKey{s.id, h}, s.disk.SpanFor(s.sizeOf(v)), false)
	return v
}

// Write replaces the object's value, charging I/Os per the write policy
// and re-deriving its span from the new size.
func (s *Store[T]) Write(h Handle, v T) {
	if _, ok := s.objs[h]; !ok {
		panic(fmt.Sprintf("em: %s: write of dead handle %d", s.name, h))
	}
	s.objs[h] = v
	key := poolKey{s.id, h}
	span := s.disk.SpanFor(s.sizeOf(v))
	s.disk.resize(key, span)
	s.disk.touch(key, span, true)
}

// Update applies f to the stored object in place; it is Read followed by
// Write with a single pool interaction for each.
func (s *Store[T]) Update(h Handle, f func(*T)) {
	v := s.Read(h)
	f(&v)
	s.Write(h, v)
}

// Free releases the object and its blocks.
func (s *Store[T]) Free(h Handle) {
	if _, ok := s.objs[h]; !ok {
		panic(fmt.Sprintf("em: %s: free of dead handle %d", s.name, h))
	}
	delete(s.objs, h)
	s.disk.release(poolKey{s.id, h})
}

// Peek returns the object without touching the buffer pool or the meter.
// It exists for invariant checkers and debug rendering only; algorithm
// code must use Read.
func (s *Store[T]) Peek(h Handle) T {
	v, ok := s.objs[h]
	if !ok {
		panic(fmt.Sprintf("em: %s: peek of dead handle %d", s.name, h))
	}
	return v
}

// Handles returns all live handles in unspecified order (meter-free;
// for checkers and rebuilds that already account their cost).
func (s *Store[T]) Handles() []Handle {
	hs := make([]Handle, 0, len(s.objs))
	for h := range s.objs {
		hs = append(hs, h)
	}
	return hs
}
