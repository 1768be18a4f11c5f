package heap

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/em"
)

// memTree is an in-memory heap-ordered binary tree Source that counts
// Children calls (the I/O proxy for selection-cost assertions).
type memTree struct {
	keys     []float64 // array-embedded, heap-ordered
	expanded int
}

func newMemTree(n int, seed int64) *memTree {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]float64, n)
	es := make([]Entry, n)
	for i := range keys {
		keys[i] = rng.Float64()
		es[i] = Entry{Key: keys[i]}
	}
	Init(es)
	for j := range keys {
		keys[j] = es[j].Key
	}
	return &memTree{keys: keys}
}

func (m *memTree) Roots(buf []Entry) []Entry {
	if len(m.keys) == 0 {
		return buf
	}
	return append(buf, Entry{Ref: 0, Key: m.keys[0]})
}

func (m *memTree) Children(ref int64, buf []Entry) []Entry {
	m.expanded++
	for c := 2*ref + 1; c <= 2*ref+2 && c < int64(len(m.keys)); c++ {
		buf = append(buf, Entry{Ref: c, Key: m.keys[c]})
	}
	return buf
}

func sortedDesc(keys []float64) []float64 {
	out := append([]float64(nil), keys...)
	sort.Sort(sort.Reverse(sort.Float64Slice(out)))
	return out
}

func TestSelectTopCorrect(t *testing.T) {
	m := newMemTree(500, 1)
	want := sortedDesc(m.keys)
	for _, tt := range []int{1, 2, 10, 100, 500, 600} {
		got := SelectTop(m, tt)
		wantN := tt
		if wantN > 500 {
			wantN = 500
		}
		if len(got) != wantN {
			t.Fatalf("t=%d: got %d entries", tt, len(got))
		}
		for i, e := range got {
			if e.Key != want[i] {
				t.Fatalf("t=%d: entry %d key %v want %v", tt, i, e.Key, want[i])
			}
		}
	}
}

func TestSelectTopZeroAndEmpty(t *testing.T) {
	m := newMemTree(10, 2)
	if got := SelectTop(m, 0); got != nil {
		t.Fatalf("t=0 returned %v", got)
	}
	empty := &memTree{}
	if got := SelectTop(empty, 5); len(got) != 0 {
		t.Fatalf("empty heap returned %v", got)
	}
}

func TestSelectTopExpansionLinear(t *testing.T) {
	m := newMemTree(100000, 3)
	for _, tt := range []int{1, 16, 256, 4096} {
		m.expanded = 0
		SelectTop(m, tt)
		if m.expanded > tt {
			t.Fatalf("t=%d: %d expansions, want ≤ t", tt, m.expanded)
		}
	}
}

func TestForestMerges(t *testing.T) {
	a, b, c := newMemTree(50, 4), newMemTree(70, 5), newMemTree(30, 6)
	all := append(append(append([]float64(nil), a.keys...), b.keys...), c.keys...)
	want := sortedDesc(all)[:40]
	got := TopKeys(&Forest{Sources: []Source{a, b, c}}, 40)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("forest top-40[%d]=%v want %v", i, got[i], want[i])
		}
	}
}

func TestExternalHeapOrderAndSelect(t *testing.T) {
	d := em.NewDisk(em.Config{B: 16, M: 128})
	rng := rand.New(rand.NewSource(7))
	var entries []Entry
	var keys []float64
	for i := 0; i < 333; i++ {
		k := rng.Float64()
		entries = append(entries, Entry{Ref: int64(i), Key: k})
		keys = append(keys, k)
	}
	h := NewExternal(d, "h", entries)
	if !h.CheckHeapOrder() {
		t.Fatal("heap order violated")
	}
	want := sortedDesc(keys)[:50]
	got := TopKeys(h, 50)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("external top[%d]=%v want %v", i, got[i], want[i])
		}
	}
}

func TestExternalPayloadPreserved(t *testing.T) {
	d := em.NewDisk(em.Config{B: 16, M: 128})
	entries := []Entry{{Ref: 100, Key: 3}, {Ref: 200, Key: 1}, {Ref: 300, Key: 2}}
	h := NewExternal(d, "h", entries)
	top := SelectTop(h, 1)
	if len(top) != 1 || top[0].Key != 3 {
		t.Fatalf("top: %v", top)
	}
	if p := h.Payload(top[0].Ref); p.Ref != 100 {
		t.Fatalf("payload ref %d want 100", p.Ref)
	}
}

func TestExternalSelectionIOCost(t *testing.T) {
	d := em.NewDisk(em.Config{B: 16, M: 64}) // 4 frames: forces misses
	rng := rand.New(rand.NewSource(8))
	var entries []Entry
	for i := 0; i < 4096; i++ {
		entries = append(entries, Entry{Ref: int64(i), Key: rng.Float64()})
	}
	h := NewExternal(d, "h", entries)
	d.DropCache()
	base := d.Stats()
	tSel := 64
	SelectTop(h, tSel)
	reads := d.Stats().Sub(base).Reads
	// Each emitted entry triggers ≤ 1 expansion = ≤ 2 child chunk reads +
	// its own chunk; allow 4·t as the O(t) envelope.
	if reads > int64(4*tSel) {
		t.Fatalf("selection of %d cost %d reads, want O(t)", tSel, reads)
	}
}

func TestConcatFigure2(t *testing.T) {
	// Reproduce Figure 2's shape: heaps rooted at Π nodes, concatenated
	// by a binary heap over their roots; selection sees the union.
	d := em.NewDisk(em.Config{B: 16, M: 256})
	a, b, c, e := newMemTree(40, 9), newMemTree(60, 10), newMemTree(25, 11), newMemTree(90, 12)
	ch := Concat(d, "cat", []Source{a, b, c, e})
	defer ch.Free()
	all := append(append(append(append([]float64(nil), a.keys...), b.keys...), c.keys...), e.keys...)
	want := sortedDesc(all)[:70]
	got := TopKeys(ch, 70)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("concat top[%d]=%v want %v", i, got[i], want[i])
		}
	}
}

func TestConcatEmptySources(t *testing.T) {
	d := em.NewDisk(em.Config{B: 16, M: 128})
	ch := Concat(d, "cat", []Source{&memTree{}, &memTree{}})
	defer ch.Free()
	if got := SelectTop(ch, 3); len(got) != 0 {
		t.Fatalf("empty concat returned %v", got)
	}
}

func TestExternalFreeReleases(t *testing.T) {
	d := em.NewDisk(em.Config{B: 16, M: 128})
	var entries []Entry
	for i := 0; i < 100; i++ {
		entries = append(entries, Entry{Key: float64(i)})
	}
	h := NewExternal(d, "h", entries)
	h.Free()
	if live := d.Stats().BlocksLive; live != 0 {
		t.Fatalf("leaked %d blocks", live)
	}
}

// Property: SelectTop returns exactly the t largest keys for arbitrary
// heap contents and t.
func TestQuickSelectTop(t *testing.T) {
	f := func(raw []float64, tRaw uint8) bool {
		if len(raw) > 300 {
			raw = raw[:300]
		}
		m := &memTree{keys: append([]float64(nil), raw...)}
		es := make([]Entry, len(raw))
		for j, k := range raw {
			es[j] = Entry{Key: k}
		}
		Init(es)
		for j := range m.keys {
			m.keys[j] = es[j].Key
		}
		tt := int(tRaw)%(len(raw)+2) + 1
		got := SelectTop(m, tt)
		want := sortedDesc(m.keys)
		if tt < len(want) {
			want = want[:tt]
		}
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i].Key != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Floyd make-heap always yields a valid max-heap.
func TestQuickMakeHeapValid(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) > 500 {
			raw = raw[:500]
		}
		d := em.NewDisk(em.Config{B: 16, M: 256})
		entries := make([]Entry, len(raw))
		for i, k := range raw {
			entries[i] = Entry{Ref: int64(i), Key: k}
		}
		h := NewExternal(d, "h", entries)
		return h.CheckHeapOrder()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestSelectTopWarmAllocatesNothing: a Selector whose frontier has
// grown once, selecting into a destination with room, allocates
// nothing.
func TestSelectTopWarmAllocatesNothing(t *testing.T) {
	m := newMemTree(4096, 8)
	var s Selector
	dst := s.SelectTop(nil, m, 256)
	want := sortedDesc(m.keys)[:256]
	if allocs := testing.AllocsPerRun(50, func() { dst = s.SelectTop(dst[:0], m, 256) }); allocs != 0 {
		t.Fatalf("warm SelectTop allocates %.1f/op", allocs)
	}
	for i, e := range dst {
		if e.Key != want[i] {
			t.Fatalf("entry %d key %v want %v", i, e.Key, want[i])
		}
	}
}

func BenchmarkSelectTop256(b *testing.B) {
	m := newMemTree(1<<18, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SelectTop(m, 256)
	}
}

func BenchmarkMakeHeap(b *testing.B) {
	d := em.NewDisk(em.Config{B: 64, M: 64 * 64})
	rng := rand.New(rand.NewSource(1))
	entries := make([]Entry, 8192)
	for i := range entries {
		entries[i] = Entry{Ref: int64(i), Key: rng.Float64()}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := NewExternal(d, "h", entries)
		h.Free()
	}
}
