package bitpack

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWidth(t *testing.T) {
	cases := []struct {
		n uint64
		w int
	}{
		{0, 1}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {255, 8}, {256, 9},
		{1<<63 - 1, 63}, {1 << 63, 64}, {^uint64(0), 64},
	}
	for _, c := range cases {
		if got := Width(c.n); got != c.w {
			t.Errorf("Width(%d)=%d, want %d", c.n, got, c.w)
		}
	}
}

func TestRoundTripFixedWidth(t *testing.T) {
	for _, width := range []int{1, 3, 7, 8, 13, 31, 32, 33, 63, 64} {
		var w Writer
		var vals []uint64
		rng := rand.New(rand.NewSource(int64(width)))
		mask := ^uint64(0)
		if width < 64 {
			mask = (1 << uint(width)) - 1
		}
		for i := 0; i < 100; i++ {
			v := rng.Uint64() & mask
			vals = append(vals, v)
			w.Put(v, width)
		}
		r := NewReader(w.Words())
		for i, want := range vals {
			if got := r.Get(width); got != want {
				t.Fatalf("width %d item %d: got %d want %d", width, i, got, want)
			}
		}
	}
}

func TestRoundTripMixedWidths(t *testing.T) {
	type field struct {
		v     uint64
		width int
	}
	rng := rand.New(rand.NewSource(7))
	var fields []field
	var w Writer
	for i := 0; i < 500; i++ {
		width := rng.Intn(64) + 1
		mask := ^uint64(0)
		if width < 64 {
			mask = (1 << uint(width)) - 1
		}
		f := field{rng.Uint64() & mask, width}
		fields = append(fields, f)
		w.Put(f.v, width)
	}
	r := NewReader(w.Words())
	for i, f := range fields {
		if got := r.Get(f.width); got != f.v {
			t.Fatalf("field %d: got %d want %d (width %d)", i, got, f.v, f.width)
		}
	}
}

func TestBitsCount(t *testing.T) {
	var w Writer
	if w.Bits() != 0 {
		t.Fatalf("empty bits=%d", w.Bits())
	}
	w.Put(1, 5)
	if w.Bits() != 5 {
		t.Fatalf("bits=%d want 5", w.Bits())
	}
	w.Put(1, 64)
	if w.Bits() != 69 {
		t.Fatalf("bits=%d want 69", w.Bits())
	}
	if len(w.Words()) != 2 {
		t.Fatalf("words=%d want 2", len(w.Words()))
	}
}

func TestSeek(t *testing.T) {
	var w Writer
	for i := uint64(0); i < 20; i++ {
		w.Put(i, 9)
	}
	r := NewReader(w.Words())
	r.Seek(9 * 13)
	if got := r.Get(9); got != 13 {
		t.Fatalf("seek read got %d want 13", got)
	}
	if r.Pos() != 9*14 {
		t.Fatalf("pos=%d", r.Pos())
	}
}

func TestPutRejectsOversizedValue(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for oversized value")
		}
	}()
	new(Writer).Put(8, 3)
}

func TestPutRejectsBadWidth(t *testing.T) {
	for _, width := range []int{0, -1, 65} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("no panic for width %d", width)
				}
			}()
			new(Writer).Put(0, width)
		}()
	}
}

func TestReadPastEndPanics(t *testing.T) {
	var w Writer
	w.Put(3, 2)
	r := NewReader(w.Words())
	r.Get(2)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic reading past end")
		}
	}()
	r.Get(63)
}

// Property: any sequence of (value, width) pairs round-trips.
func TestQuickRoundTrip(t *testing.T) {
	f := func(raw []uint64, widths []uint8) bool {
		n := len(raw)
		if len(widths) < n {
			n = len(widths)
		}
		var w Writer
		vals := make([]uint64, n)
		ws := make([]int, n)
		for i := 0; i < n; i++ {
			ws[i] = int(widths[i]%64) + 1
			mask := ^uint64(0)
			if ws[i] < 64 {
				mask = (1 << uint(ws[i])) - 1
			}
			vals[i] = raw[i] & mask
			w.Put(vals[i], ws[i])
		}
		r := NewReader(w.Words())
		for i := 0; i < n; i++ {
			if r.Get(ws[i]) != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: storage is tight — total words = ceil(total bits / 64).
func TestQuickTightStorage(t *testing.T) {
	f := func(widths []uint8) bool {
		var w Writer
		bits := 0
		for _, x := range widths {
			width := int(x%64) + 1
			w.Put(0, width)
			bits += width
		}
		want := (bits + 63) / 64
		return len(w.Words()) == want && w.Bits() == bits
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPut(b *testing.B) {
	var w Writer
	for i := 0; i < b.N; i++ {
		w.Put(uint64(i)&1023, 10)
	}
}

func BenchmarkGet(b *testing.B) {
	var w Writer
	for i := 0; i < 4096; i++ {
		w.Put(uint64(i)&1023, 10)
	}
	words := w.Words()
	b.ResetTimer()
	r := NewReader(words)
	for i := 0; i < b.N; i++ {
		if i%4096 == 0 {
			r.Seek(0)
		}
		r.Get(10)
	}
}

func TestResetReusesStorage(t *testing.T) {
	buf := []uint64{^uint64(0), ^uint64(0), ^uint64(0)}
	var w Writer
	w.Put(1, 64)
	w.Reset(buf)
	w.Put(5, 3)
	w.Put(1, 1)
	got := w.Words()
	if len(got) != 1 || got[0] != 5|1<<3 || w.Bits() != 4 {
		t.Fatalf("after Reset: words %x, %d bits", got, w.Bits())
	}
	if &got[0] != &buf[0] {
		t.Fatal("Reset did not pack into the given storage")
	}
}
