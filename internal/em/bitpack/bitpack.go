// Package bitpack encodes sequences of fixed-width unsigned fields into
// machine words. Section 4 of the paper packs a compressed sketch set
// (f·lg l pivots of 2·lg(fl) bits each) and a compressed prefix set
// (f·√B·log_B(fl) entries of O(lg(fl)) bits each) into a single block;
// this package is used to perform that packing for real, so the "fits in
// one block" claims are verified bit-for-bit rather than assumed.
package bitpack

import "fmt"

// Width returns the number of bits needed to represent values in [0, n],
// with a minimum of 1.
func Width(n uint64) int {
	w := 1
	for n >>= 1; n != 0; n >>= 1 {
		w++
	}
	return w
}

// Writer appends fixed- or variable-width fields to a word slice. The
// zero value is an empty writer.
type Writer struct {
	words []uint64
	// bit is the write cursor within the last word, 0..63.
	bit int
}

// Put appends the low width bits of v.
func (w *Writer) Put(v uint64, width int) {
	if width <= 0 || width > 64 {
		panic(fmt.Sprintf("bitpack: invalid width %d", width))
	}
	if width < 64 && v>>uint(width) != 0 {
		panic(fmt.Sprintf("bitpack: value %d does not fit in %d bits", v, width))
	}
	if w.bit == 0 {
		w.words = append(w.words, 0)
	}
	last := len(w.words) - 1
	w.words[last] |= v << uint(w.bit)
	if w.bit+width > 64 {
		w.words = append(w.words, v>>uint(64-w.bit))
	}
	w.bit = (w.bit + width) % 64
}

// Reset empties the writer and makes it pack into buf's storage, so a
// block can be re-encoded in place without allocating; Words then
// aliases buf until it outgrows it.
func (w *Writer) Reset(buf []uint64) { w.words, w.bit = buf[:0], 0 }

// Bits returns the number of bits written so far.
func (w *Writer) Bits() int {
	if len(w.words) == 0 {
		return 0
	}
	if w.bit == 0 {
		return len(w.words) * 64
	}
	return (len(w.words)-1)*64 + w.bit
}

// Words returns the packed words. The slice is owned by the writer; copy
// before further Put calls if retention is needed.
func (w *Writer) Words() []uint64 { return w.words }

// Reader extracts fields written by a Writer, in order.
type Reader struct {
	words []uint64
	pos   int // absolute bit position
}

// NewReader reads from the given packed words.
func NewReader(words []uint64) *Reader { return &Reader{words: words} }

// Get reads the next width-bit field.
func (r *Reader) Get(width int) uint64 {
	if width <= 0 || width > 64 {
		panic(fmt.Sprintf("bitpack: invalid width %d", width))
	}
	word, off := r.pos/64, r.pos%64
	if word >= len(r.words) {
		panic("bitpack: read past end")
	}
	v := r.words[word] >> uint(off)
	if off+width > 64 {
		if word+1 >= len(r.words) {
			panic("bitpack: read past end")
		}
		v |= r.words[word+1] << uint(64-off)
	}
	if width < 64 {
		v &= (1 << uint(width)) - 1
	}
	r.pos += width
	return v
}

// Seek moves the read cursor to an absolute bit position.
func (r *Reader) Seek(bit int) { r.pos = bit }

// Pos returns the current bit position.
func (r *Reader) Pos() int { return r.pos }
