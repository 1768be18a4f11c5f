package em

import (
	"container/list"
	"math/rand"
	"testing"
)

// refDisk is the buffer pool as it was first built, on container/list
// with one *refResident per resident object. It is the reference the
// index-linked pool must match step for step: same meter, same
// residents in the same LRU order.
type refDisk struct {
	cfg     Config
	stats   Stats
	frames  int
	used    int
	lru     *list.List
	present map[poolKey]*list.Element
	spanOf  map[poolKey]int
}

type refResident struct {
	key   poolKey
	span  int
	dirty bool
}

func newRefDisk(cfg Config) *refDisk {
	cfg = cfg.withDefaults()
	return &refDisk{
		cfg:     cfg,
		frames:  cfg.M / cfg.B,
		lru:     list.New(),
		present: make(map[poolKey]*list.Element),
		spanOf:  make(map[poolKey]int),
	}
}

func (d *refDisk) Resize(m int) {
	if m < 2*d.cfg.B {
		m = 2 * d.cfg.B
	}
	d.cfg.M = m
	d.frames = m / d.cfg.B
	for d.used > d.frames && d.lru.Len() > 0 {
		d.evictOne()
	}
}

func (d *refDisk) ResetMeter() {
	d.stats.Reads, d.stats.Writes = 0, 0
	d.stats.Allocs, d.stats.Frees = 0, 0
}

func (d *refDisk) DropCache() {
	for d.lru.Len() > 0 {
		d.evictOne()
	}
}

func (d *refDisk) evictOne() {
	back := d.lru.Back()
	r := back.Value.(*refResident)
	if r.dirty && !d.cfg.WriteThrough {
		d.stats.Writes += int64(r.span)
	}
	d.used -= r.span
	delete(d.present, r.key)
	d.lru.Remove(back)
}

func (d *refDisk) ensureRoom(span int) {
	for d.used+span > d.frames && d.lru.Len() > 0 {
		d.evictOne()
	}
}

func (d *refDisk) touch(key poolKey, span int, dirty bool) {
	if span > d.frames {
		d.stats.Reads += int64(span)
		if dirty {
			d.stats.Writes += int64(span)
		}
		return
	}
	if el, ok := d.present[key]; ok {
		r := el.Value.(*refResident)
		if r.span != span {
			d.ensureRoomExcept(span-r.span, el)
			d.used += span - r.span
			r.span = span
		}
		if dirty {
			if d.cfg.WriteThrough {
				d.stats.Writes += int64(span)
			} else {
				r.dirty = true
			}
		}
		d.lru.MoveToFront(el)
		return
	}
	d.ensureRoom(span)
	d.stats.Reads += int64(span)
	r := &refResident{key: key, span: span}
	if dirty {
		if d.cfg.WriteThrough {
			d.stats.Writes += int64(span)
		} else {
			r.dirty = true
		}
	}
	d.present[key] = d.lru.PushFront(r)
	d.used += span
}

func (d *refDisk) ensureRoomExcept(extra int, keep *list.Element) {
	for d.used+extra > d.frames && d.lru.Len() > 1 {
		back := d.lru.Back()
		if back == keep {
			back = back.Prev()
		}
		r := back.Value.(*refResident)
		if r.dirty && !d.cfg.WriteThrough {
			d.stats.Writes += int64(r.span)
		}
		d.used -= r.span
		delete(d.present, r.key)
		d.lru.Remove(back)
	}
}

func (d *refDisk) createFresh(key poolKey, span int) {
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
	d.ensureRoom(span)
	r := &refResident{key: key, span: span, dirty: !d.cfg.WriteThrough}
	if d.cfg.WriteThrough {
		d.stats.Writes += int64(span)
	}
	d.present[key] = d.lru.PushFront(r)
	d.used += span
}

func (d *refDisk) resize(key poolKey, span int) {
	old := d.spanOf[key]
	d.spanOf[key] = span
	d.stats.BlocksLive += int64(span - old)
	if d.stats.BlocksLive > d.stats.BlocksPeak {
		d.stats.BlocksPeak = d.stats.BlocksLive
	}
}

func (d *refDisk) release(key poolKey) {
	span := d.spanOf[key]
	delete(d.spanOf, key)
	d.stats.Frees++
	d.stats.BlocksLive -= int64(span)
	if el, ok := d.present[key]; ok {
		d.used -= el.Value.(*refResident).span
		delete(d.present, key)
		d.lru.Remove(el)
	}
}

// residents lists the reference pool front (most recent) to back.
func (d *refDisk) residents() []refResident {
	var out []refResident
	for el := d.lru.Front(); el != nil; el = el.Next() {
		out = append(out, *el.Value.(*refResident))
	}
	return out
}

// residents lists the pool front (most recent) to back, checking every
// prev link, the tail and the present map on the way.
func (d *Disk) residents(t *testing.T) []refResident {
	t.Helper()
	var out []refResident
	prev := none
	for i := d.head; i != none; i = d.slots[i].next {
		s := d.slots[i]
		if s.prev != prev {
			t.Fatalf("slot %d: prev link %d, want %d", i, s.prev, prev)
		}
		if d.present[s.key] != i {
			t.Fatalf("slot %d: present maps its key to %d", i, d.present[s.key])
		}
		out = append(out, refResident{key: s.key, span: s.span, dirty: s.dirty})
		prev = i
	}
	if d.tail != prev {
		t.Fatalf("tail %d, want %d", d.tail, prev)
	}
	if len(out) != len(d.present) {
		t.Fatalf("%d slots linked, %d present", len(out), len(d.present))
	}
	return out
}

// TestPoolMatchesReference drives the pool and the reference with the
// same seeded traces of Alloc, Read, Write, Update and Free, mixed
// with Resize, DropCache and ResetMeter, under both write policies.
// Objects span 1 to frames+1 blocks, so both the streaming path (an
// object larger than the pool) and growth while resident
// (ensureRoomExcept) run. After every step the meters must be equal
// and the residents must be the same, in the same LRU order.
func TestPoolMatchesReference(t *testing.T) {
	const b, frames = 4, 8
	for _, wt := range []bool{false, true} {
		for seed := int64(1); seed <= 25; seed++ {
			cfg := Config{B: b, M: frames * b, WriteThrough: wt}
			d, ref := NewDisk(cfg), newRefDisk(cfg)
			s := recStore(d)
			rng := rand.New(rand.NewSource(seed))
			size := func() int { return 1 + rng.Intn((frames+1)*b) }
			var live []Handle
			maxFrames := frames
			pick := func() (int, Handle) {
				i := rng.Intn(len(live))
				return i, live[i]
			}
			key := func(h Handle) poolKey { return poolKey{s.id, h} }
			for step := 0; step < 2000; step++ {
				op := rng.Intn(100)
				if len(live) == 0 {
					op = 0
				}
				switch {
				case op < 15: // Alloc
					w := size()
					h := s.Alloc(rec{words: w})
					ref.createFresh(key(h), d.SpanFor(w))
					live = append(live, h)
				case op < 55: // Read
					_, h := pick()
					s.Read(h)
					ref.touch(key(h), d.SpanFor(s.Peek(h).words), false)
				case op < 70: // Write, usually resizing the object
					_, h := pick()
					w := size()
					s.Write(h, rec{words: w})
					ref.resize(key(h), d.SpanFor(w))
					ref.touch(key(h), d.SpanFor(w), true)
				case op < 78: // Update
					_, h := pick()
					old := s.Peek(h).words
					w := size()
					s.Update(h, func(r *rec) { r.words = w })
					ref.touch(key(h), d.SpanFor(old), false)
					ref.resize(key(h), d.SpanFor(w))
					ref.touch(key(h), d.SpanFor(w), true)
				case op < 90: // Free
					i, h := pick()
					s.Free(h)
					ref.release(key(h))
					live = append(live[:i], live[i+1:]...)
				case op < 94:
					m := (2 + rng.Intn(2*frames)) * b
					d.Resize(m)
					ref.Resize(m)
					maxFrames = max(maxFrames, d.Frames())
				case op < 97:
					d.DropCache()
					ref.DropCache()
				default:
					d.ResetMeter()
					ref.ResetMeter()
				}
				if got, want := d.Stats(), ref.stats; got != want {
					t.Fatalf("writeThrough=%v seed %d step %d (op %d): stats %v, reference %v", wt, seed, step, op, got, want)
				}
				got, want := d.residents(t), ref.residents()
				if len(got) != len(want) || d.used != ref.used {
					t.Fatalf("writeThrough=%v seed %d step %d: %d residents using %d blocks, reference %d using %d",
						wt, seed, step, len(got), d.used, len(want), ref.used)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("writeThrough=%v seed %d step %d: resident %d is %+v, reference %+v", wt, seed, step, i, got[i], want[i])
					}
				}
				if len(d.slots) > maxFrames {
					t.Fatalf("slot slice grew to %d slots; the pool never had more than %d frames", len(d.slots), maxFrames)
				}
			}
		}
	}
}

// TestPoolWarmPathsAllocateNothing: once the pool has held its working
// set, a hit and a miss that evicts both allocate nothing.
func TestPoolWarmPathsAllocateNothing(t *testing.T) {
	d := NewDisk(Config{B: 8, M: 4 * 8}) // 4 frames
	s := recStore(d)
	hs := make([]Handle, 8)
	for i := range hs {
		hs[i] = s.Alloc(rec{words: 8})
	}
	for range 4 {
		for _, h := range hs {
			s.Read(h)
		}
	}
	if allocs := testing.AllocsPerRun(200, func() { s.Read(hs[7]) }); allocs != 0 {
		t.Fatalf("warm hit allocates %.1f/op", allocs)
	}
	// Cycling eight one-block objects through four frames misses on
	// every read and evicts the least recently used.
	next := 0
	before := d.Stats()
	const runs = 200
	allocs := testing.AllocsPerRun(runs, func() {
		s.Read(hs[next%len(hs)])
		next++
	})
	if reads := d.Stats().Sub(before).Reads; reads != runs+1 {
		t.Fatalf("cycling reads charged %d reads over %d reads; want every one a miss", reads, runs+1)
	}
	if allocs != 0 {
		t.Fatalf("warm miss with eviction allocates %.1f/op", allocs)
	}
}
