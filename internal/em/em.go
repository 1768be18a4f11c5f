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
//     and keeps that span beside the object's value, so the Disk's space
//     gauges are charged from the store's own entry on every allocation,
//     rewrite and free.
//
// All structures in this repository allocate their nodes through stores
// on a shared Disk so one experiment has a single, coherent I/O meter.
package em

import (
	"fmt"
	"slices"
)

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

// StoreStats is one store's share of the meter: the block transfers
// charged to its objects and the blocks they occupy.
type StoreStats struct {
	Name       string
	Reads      int64
	Writes     int64
	BlocksLive int64
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

// Disk is a simulated EM machine: meter + buffer pool. It keeps
// per-object state for resident objects only; the span of every live
// object is kept by its Store, which passes it in whenever the object
// is created, resized or freed.
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
	// never grows past the frame count.
	used       int // blocks currently resident
	slots      []slot
	head, tail int32
	free       int32
	present    map[poolKey]int32

	stores []StoreStats // per-store meter, indexed by store id
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
	}
}

// B returns the block size in words.
func (d *Disk) B() int { return d.cfg.B }

// Stats returns a snapshot of the I/O meter.
func (d *Disk) Stats() Stats { return d.stats }

// PerStore returns each store's share of the meter, in the order the
// stores were created: one entry per store, so stores sharing a name
// have one entry each. Summed over the entries, Reads, Writes and
// BlocksLive equal Stats'.
func (d *Disk) PerStore() []StoreStats { return slices.Clone(d.stores) }

// ResetMeter zeroes the read/write/alloc/free counters, keeping space
// gauges. Used by benches to separate build cost from query cost.
func (d *Disk) ResetMeter() {
	d.stats.Reads, d.stats.Writes = 0, 0
	d.stats.Allocs, d.stats.Frees = 0, 0
	for i := range d.stores {
		d.stores[i].Reads, d.stores[i].Writes = 0, 0
	}
}

// read charges n block reads to store.
//
//topk:nomalloc
func (d *Disk) read(store int32, n int) {
	d.stats.Reads += int64(n)
	d.stores[store].Reads += int64(n)
}

// write charges n block writes to store.
//
//topk:nomalloc
func (d *Disk) write(store int32, n int) {
	d.stats.Writes += int64(n)
	d.stores[store].Writes += int64(n)
}

// occupy adds n (possibly negative) live blocks to store.
func (d *Disk) occupy(store int32, n int) {
	d.stats.BlocksLive += int64(n)
	d.stores[store].BlocksLive += int64(n)
	if d.stats.BlocksLive > d.stats.BlocksPeak {
		d.stats.BlocksPeak = d.stats.BlocksLive
	}
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
	if s := &d.slots[i]; s.dirty {
		d.write(s.key.store, s.span)
	}
	d.drop(i)
}

func (d *Disk) ensureRoom(span int) {
	for d.used+span > d.frames && d.tail != none {
		d.evict(d.tail)
	}
}

// touch makes the object resident, charging read I/Os on a miss. span
// is the object's current span; dirty marks the access as a mutation,
// charged as write I/Os when the object is evicted (write-back).
func (d *Disk) touch(key poolKey, span int, dirty bool) {
	if span > d.frames {
		// An object larger than memory cannot be cached; every access
		// streams it. Charge and do not insert.
		d.read(key.store, span)
		if dirty {
			d.write(key.store, span)
		}
		return
	}
	if i, ok := d.present[key]; ok {
		d.hit(i, span, dirty)
		return
	}
	d.ensureRoom(span)
	d.read(key.store, span)
	d.admit(key, span, dirty)
}

// hit is touch on a resident object: adjust its occupancy if it grew
// or shrank, mark it dirty on a mutation, and move it to the front.
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
		d.slots[i].dirty = true
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

// createFresh registers a newly allocated object of span blocks: it is
// written in memory and will be charged as a write on eviction. It does
// not charge a read: the object was produced in memory, not loaded.
func (d *Disk) createFresh(key poolKey, span int) {
	d.stats.Allocs++
	d.occupy(key.store, span)
	if span > d.frames {
		d.write(key.store, span)
		return
	}
	if _, ok := d.present[key]; ok {
		panic("em: double allocation of handle")
	}
	d.ensureRoom(span)
	d.admit(key, span, true)
}

// release frees a live object of span blocks and drops it from the pool.
func (d *Disk) release(key poolKey, span int) {
	d.stats.Frees++
	d.occupy(key.store, -span)
	if i, ok := d.present[key]; ok {
		d.drop(i)
	}
}

// Store is a typed object store on a Disk. The zero value is unusable;
// create stores with NewStore. It keeps each live object's value beside
// the blocks it occupies, and it hands the span to the Disk whenever it
// allocates, rewrites or frees an object, so the Disk's space gauges
// need no lookup of their own.
type Store[T any] struct {
	disk   *Disk
	id     int32
	name   string
	sizeOf func(T) int
	next   Handle
	objs   map[Handle]object[T]
}

// object is one live object of a Store: its value and the blocks it
// occupies, as of its last Alloc or Write.
type object[T any] struct {
	v    T
	span int
}

// NewStore registers a store named name on d. sizeOf reports an object's
// size in words; it decides how many blocks (I/Os) each access costs.
func NewStore[T any](d *Disk, name string, sizeOf func(T) int) *Store[T] {
	d.stores = append(d.stores, StoreStats{Name: name})
	return &Store[T]{
		disk:   d,
		id:     int32(len(d.stores) - 1),
		name:   name,
		sizeOf: sizeOf,
		objs:   make(map[Handle]object[T]),
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
	span := s.disk.SpanFor(s.sizeOf(v))
	s.objs[h] = object[T]{v, span}
	s.disk.createFresh(poolKey{s.id, h}, span)
	return h
}

// Read loads the object (charging I/Os on a pool miss) and returns it.
// The returned value aliases the stored one for pointer-typed T; callers
// that mutate through it must follow with Write to charge the write.
func (s *Store[T]) Read(h Handle) T {
	o, ok := s.objs[h]
	if !ok {
		panic(fmt.Sprintf("em: %s: read of dead handle %d", s.name, h))
	}
	s.disk.touch(poolKey{s.id, h}, s.disk.SpanFor(s.sizeOf(o.v)), false)
	return o.v
}

// Write replaces the object's value, marking it dirty (a write I/O per
// block on eviction) and re-deriving its span from the new size.
func (s *Store[T]) Write(h Handle, v T) {
	old, ok := s.objs[h]
	if !ok {
		panic(fmt.Sprintf("em: %s: write of dead handle %d", s.name, h))
	}
	span := s.disk.SpanFor(s.sizeOf(v))
	s.objs[h] = object[T]{v, span}
	s.disk.occupy(s.id, span-old.span)
	s.disk.touch(poolKey{s.id, h}, span, true)
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
	o, ok := s.objs[h]
	if !ok {
		panic(fmt.Sprintf("em: %s: free of dead handle %d", s.name, h))
	}
	delete(s.objs, h)
	s.disk.release(poolKey{s.id, h}, o.span)
}

// Peek returns the object without touching the buffer pool or the meter.
// It exists for invariant checkers and debug rendering only; algorithm
// code must use Read.
func (s *Store[T]) Peek(h Handle) T {
	o, ok := s.objs[h]
	if !ok {
		panic(fmt.Sprintf("em: %s: peek of dead handle %d", s.name, h))
	}
	return o.v
}
