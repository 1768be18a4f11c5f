package em

import (
	"slices"
	"testing"
	"testing/quick"
)

type rec struct {
	words int
	tag   int
}

func recStore(d *Disk) *Store[rec] {
	return NewStore(d, "rec", func(r rec) int { return r.words })
}

func TestConfigDefaults(t *testing.T) {
	d := NewDisk(Config{})
	if d.B() != DefaultB || d.cfg.M != DefaultM {
		t.Fatalf("defaults: B=%d M=%d", d.B(), d.cfg.M)
	}
	d = NewDisk(Config{B: 100, M: 50})
	if d.cfg.M != 200 {
		t.Fatalf("M floor: got %d, want 2B=200", d.cfg.M)
	}
	if d.frames != 2 {
		t.Fatalf("frames: got %d, want 2", d.frames)
	}
}

func TestSpanFor(t *testing.T) {
	d := NewDisk(Config{B: 16, M: 64})
	cases := []struct{ words, span int }{
		{0, 1}, {1, 1}, {16, 1}, {17, 2}, {32, 2}, {33, 3},
	}
	for _, c := range cases {
		if got := d.SpanFor(c.words); got != c.span {
			t.Errorf("SpanFor(%d)=%d, want %d", c.words, got, c.span)
		}
	}
}

func TestAllocChargesNoRead(t *testing.T) {
	d := NewDisk(Config{B: 8, M: 64})
	s := recStore(d)
	s.Alloc(rec{words: 8})
	st := d.Stats()
	if st.Reads != 0 {
		t.Fatalf("fresh alloc charged %d reads", st.Reads)
	}
	if st.Allocs != 1 || st.BlocksLive != 1 {
		t.Fatalf("stats after alloc: %+v", st)
	}
}

func TestReadHitMissAccounting(t *testing.T) {
	d := NewDisk(Config{B: 8, M: 16}) // 2 frames
	s := recStore(d)
	a := s.Alloc(rec{words: 8, tag: 1})
	b := s.Alloc(rec{words: 8, tag: 2})
	c := s.Alloc(rec{words: 8, tag: 3}) // evicts a (dirty -> 1 write)

	base := d.Stats()
	s.Read(b) // hit
	s.Read(c) // hit
	if got := d.Stats().Sub(base); got.Reads != 0 {
		t.Fatalf("hits charged %d reads", got.Reads)
	}
	s.Read(a) // miss: 1 read, evicts one dirty resident -> 1 write
	got := d.Stats().Sub(base)
	if got.Reads != 1 {
		t.Fatalf("miss charged %d reads, want 1", got.Reads)
	}
	if got.Writes != 1 {
		t.Fatalf("eviction of dirty resident charged %d writes, want 1", got.Writes)
	}
}

func TestMultiBlockObjectCosts(t *testing.T) {
	d := NewDisk(Config{B: 8, M: 64}) // 8 frames
	s := recStore(d)
	h := s.Alloc(rec{words: 20}) // span 3
	d.DropCache()
	base := d.Stats()
	s.Read(h)
	if got := d.Stats().Sub(base).Reads; got != 3 {
		t.Fatalf("3-block read charged %d reads", got)
	}
}

func TestObjectLargerThanMemoryStreams(t *testing.T) {
	d := NewDisk(Config{B: 8, M: 16}) // 2 frames
	s := recStore(d)
	h := s.Alloc(rec{words: 80}) // span 10 > frames
	base := d.Stats()
	s.Read(h)
	s.Read(h) // not cacheable: charged again
	if got := d.Stats().Sub(base).Reads; got != 20 {
		t.Fatalf("streamed reads charged %d, want 20", got)
	}
}

func TestResizeTracksSpace(t *testing.T) {
	d := NewDisk(Config{B: 8, M: 640})
	s := recStore(d)
	h := s.Alloc(rec{words: 8})
	if d.Stats().BlocksLive != 1 {
		t.Fatalf("live=%d", d.Stats().BlocksLive)
	}
	s.Write(h, rec{words: 24})
	if d.Stats().BlocksLive != 3 {
		t.Fatalf("after grow live=%d, want 3", d.Stats().BlocksLive)
	}
	s.Write(h, rec{words: 4})
	if d.Stats().BlocksLive != 1 {
		t.Fatalf("after shrink live=%d, want 1", d.Stats().BlocksLive)
	}
	if d.Stats().BlocksPeak != 3 {
		t.Fatalf("peak=%d, want 3", d.Stats().BlocksPeak)
	}
	s.Free(h)
	if d.Stats().BlocksLive != 0 {
		t.Fatalf("after free live=%d", d.Stats().BlocksLive)
	}
}

func TestFreeEvictsResident(t *testing.T) {
	d := NewDisk(Config{B: 8, M: 64})
	s := recStore(d)
	h := s.Alloc(rec{words: 8})
	s.Free(h)
	defer func() {
		if recover() == nil {
			t.Fatal("read of freed handle did not panic")
		}
	}()
	s.Read(h)
}

func TestUpdateReadModifyWrite(t *testing.T) {
	d := NewDisk(Config{B: 8, M: 64})
	s := recStore(d)
	h := s.Alloc(rec{words: 8, tag: 1})
	s.Update(h, func(r *rec) { r.tag = 42 })
	if got := s.Peek(h).tag; got != 42 {
		t.Fatalf("update lost: tag=%d", got)
	}
}

func TestResetMeterKeepsSpace(t *testing.T) {
	d := NewDisk(Config{B: 8, M: 64})
	s := recStore(d)
	s.Alloc(rec{words: 8})
	d.DropCache()
	d.ResetMeter()
	st := d.Stats()
	if st.Reads != 0 || st.Writes != 0 || st.Allocs != 0 {
		t.Fatalf("meter not reset: %+v", st)
	}
	if st.BlocksLive != 1 {
		t.Fatalf("space lost on reset: %+v", st)
	}
}

func TestLRUOrderIsRecency(t *testing.T) {
	d := NewDisk(Config{B: 8, M: 24}) // 3 frames
	s := recStore(d)
	a := s.Alloc(rec{words: 8, tag: 1})
	b := s.Alloc(rec{words: 8, tag: 2})
	c := s.Alloc(rec{words: 8, tag: 3})
	s.Read(a) // recency: a, c, b
	base := d.Stats()
	s.Alloc(rec{words: 8, tag: 4}) // evicts b
	s.Read(a)
	s.Read(c)
	if got := d.Stats().Sub(base).Reads; got != 0 {
		t.Fatalf("a/c should be resident, charged %d reads", got)
	}
	s.Read(b)
	if got := d.Stats().Sub(base).Reads; got != 1 {
		t.Fatalf("b should have been evicted, charged %d reads", got)
	}
}

func TestTwoStoresShareOnePool(t *testing.T) {
	d := NewDisk(Config{B: 8, M: 16}) // 2 frames
	s1 := recStore(d)
	s2 := recStore(d)
	a := s1.Alloc(rec{words: 8})
	s2.Alloc(rec{words: 8})
	s2.Alloc(rec{words: 8}) // a evicted
	base := d.Stats()
	s1.Read(a)
	if got := d.Stats().Sub(base).Reads; got != 1 {
		t.Fatalf("cross-store eviction missing: %d reads", got)
	}
}

// TestPerStoreSplitsTheMeter: each read, write-back and live block is
// charged to the store whose object caused it, streamed objects and
// frees included, and ResetMeter zeroes the per-store transfers while
// keeping their space.
func TestPerStoreSplitsTheMeter(t *testing.T) {
	d := NewDisk(Config{B: 8, M: 16}) // 2 frames
	s1 := NewStore(d, "one", func(r rec) int { return r.words })
	s2 := NewStore(d, "two", func(r rec) int { return r.words })
	a := s1.Alloc(rec{words: 8})
	b := s2.Alloc(rec{words: 16})   // evicts a dirty: one write to "one"
	s1.Read(a)                      // a miss: one read to "one", b written back: two writes to "two"
	big := s2.Alloc(rec{words: 24}) // larger than the pool: streamed, three writes to "two"
	s2.Read(big)                    // three reads to "two"
	s2.Free(b)
	want := []StoreStats{
		{Name: "one", Reads: 1, Writes: 1, BlocksLive: 1},
		{Name: "two", Reads: 3, Writes: 5, BlocksLive: 3},
	}
	if got := d.PerStore(); !slices.Equal(got, want) {
		t.Fatalf("PerStore = %+v, want %+v", got, want)
	}
	all := d.Stats()
	if all.Reads != 4 || all.Writes != 6 || all.BlocksLive != 4 {
		t.Fatalf("Stats = %v; the per-store split must sum to it", all)
	}
	d.ResetMeter()
	want[0].Reads, want[0].Writes, want[1].Reads, want[1].Writes = 0, 0, 0, 0
	if got := d.PerStore(); !slices.Equal(got, want) {
		t.Fatalf("after ResetMeter, PerStore = %+v, want %+v", got, want)
	}
}

func TestGrowWhileResidentEvictsOthers(t *testing.T) {
	d := NewDisk(Config{B: 8, M: 32}) // 4 frames
	s := recStore(d)
	a := s.Alloc(rec{words: 8})
	bh := s.Alloc(rec{words: 8})
	c := s.Alloc(rec{words: 8})
	// Grow a to 3 blocks while resident: b or c must be evicted to make
	// room, but a itself must survive.
	s.Write(a, rec{words: 24})
	base := d.Stats()
	s.Read(a)
	if got := d.Stats().Sub(base).Reads; got != 0 {
		t.Fatalf("grown object was evicted by its own growth: %d reads", got)
	}
	// At most one of b, c can still be resident (4 frames, a takes 3).
	s.Read(bh)
	s.Read(c)
	if got := d.Stats().Sub(base).Reads; got < 1 {
		t.Fatalf("no eviction happened for growth: %d reads", got)
	}
}

func TestPeekChargesNothing(t *testing.T) {
	d := NewDisk(Config{B: 8, M: 16})
	s := recStore(d)
	h := s.Alloc(rec{words: 8})
	d.DropCache()
	base := d.Stats()
	s.Peek(h)
	if got := d.Stats().Sub(base); got.Reads != 0 || got.Writes != 0 {
		t.Fatalf("peek charged I/O: %+v", got)
	}
}

func TestStatsSubAndIOs(t *testing.T) {
	a := Stats{Reads: 10, Writes: 4, BlocksLive: 7, BlocksPeak: 9}
	b := Stats{Reads: 3, Writes: 1}
	got := a.Sub(b)
	if got.Reads != 7 || got.Writes != 3 || got.IOs() != 10 {
		t.Fatalf("sub: %+v", got)
	}
	if got.BlocksLive != 7 || got.BlocksPeak != 9 {
		t.Fatalf("sub dropped gauges: %+v", got)
	}
}

// Property: space accounting never drifts — after any interleaving of
// alloc/resize/free, BlocksLive equals the sum of spans of live objects.
func TestQuickSpaceAccounting(t *testing.T) {
	f := func(ops []uint16) bool {
		d := NewDisk(Config{B: 8, M: 64})
		s := recStore(d)
		live := map[Handle]int{}
		for _, op := range ops {
			words := int(op%40) + 1
			switch {
			case op%3 == 0 || len(live) == 0:
				h := s.Alloc(rec{words: words})
				live[h] = d.SpanFor(words)
			case op%3 == 1:
				for h := range live {
					s.Write(h, rec{words: words})
					live[h] = d.SpanFor(words)
					break
				}
			default:
				for h := range live {
					s.Free(h)
					delete(live, h)
					break
				}
			}
		}
		var want int64
		for _, sp := range live {
			want += int64(sp)
		}
		return d.Stats().BlocksLive == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the meter is monotone — reads and writes never decrease.
func TestQuickMeterMonotone(t *testing.T) {
	f := func(ops []uint8) bool {
		d := NewDisk(Config{B: 8, M: 16})
		s := recStore(d)
		var hs []Handle
		prev := d.Stats()
		for _, op := range ops {
			switch {
			case op%4 == 0 || len(hs) == 0:
				hs = append(hs, s.Alloc(rec{words: int(op%20) + 1}))
			case op%4 == 1:
				s.Read(hs[int(op)%len(hs)])
			case op%4 == 2:
				s.Write(hs[int(op)%len(hs)], rec{words: int(op%20) + 1})
			default:
				d.DropCache()
			}
			cur := d.Stats()
			if cur.Reads < prev.Reads || cur.Writes < prev.Writes {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkStoreReadHit(b *testing.B) {
	d := NewDisk(Config{B: 64, M: 1024})
	s := recStore(d)
	h := s.Alloc(rec{words: 64})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Read(h)
	}
}

func BenchmarkStoreReadMissEvict(b *testing.B) {
	d := NewDisk(Config{B: 64, M: 128}) // 2 frames
	s := recStore(d)
	hs := []Handle{
		s.Alloc(rec{words: 64}), s.Alloc(rec{words: 64}),
		s.Alloc(rec{words: 64}), s.Alloc(rec{words: 64}),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Read(hs[i%len(hs)])
	}
}
