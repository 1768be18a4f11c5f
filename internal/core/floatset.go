package core

import (
	"hash/maphash"
	"math"
)

// FloatSet is a set of float64 keys, the table behind each of Guard's
// two sets and the gateway's registries: an open-addressing hash table
// over one []uint64 of key bits. A key is its math.Float64bits with −0
// folded into +0, because Go maps keyed by float64 treat the two as one
// key and Guard's contract keeps that. Bits 0 therefore mark an empty
// slot, and the one key whose bits are 0 (±0) is held by a flag
// instead. Probing is linear, and a removal shifts the rest of its
// probe run back over the hole, so no tombstone is ever left. The slot
// count is a power of two at load ≤ 3/4: reset sizes it for a known
// count, Add doubles it when it is full, and nothing shrinks it.
//
// Keys are placed by hash/maphash under a random seed that the set
// draws when it first allocates and again whenever reset empties it.
// The keys are a client's coordinates, so an unseeded hash would let a
// client choose keys that share one probe run and make every insert
// scan it, under the lock its owner holds around the set. The Go maps
// this table replaced were seeded against that, so it is too.
//
// The zero value is an empty set. A FloatSet is not safe for
// concurrent use.
type FloatSet struct {
	slots []uint64
	n     int  // keys held in slots
	zero  bool // holds ±0
	seed  maphash.Seed
}

// minSlots is the slot count of a set's first table.
const minSlots = 8

// keyOf returns x's key: its bits, with −0 folded into +0.
func keyOf(x float64) uint64 {
	if x == 0 {
		return 0
	}
	return math.Float64bits(x)
}

// reset empties s and gives it a table for n keys under a fresh seed.
func (s *FloatSet) reset(n int) {
	size := minSlots
	for size/4*3 < n {
		size *= 2
	}
	*s = FloatSet{slots: make([]uint64, size), seed: maphash.MakeSeed()}
}

// len returns the number of keys s holds.
func (s *FloatSet) len() int {
	if s.zero {
		return s.n + 1
	}
	return s.n
}

// Add inserts x and reports whether it was absent. When the table is
// full it first checks for x, so that only a key it takes doubles it.
func (s *FloatSet) Add(x float64) bool {
	k := keyOf(x)
	if k == 0 {
		added := !s.zero
		s.zero = true
		return added
	}
	if s.n >= len(s.slots)/4*3 {
		if s.n > 0 {
			if _, ok := s.find(k); ok {
				return false
			}
		}
		s.grow()
	}
	return s.insert(k)
}

// Remove deletes x from s and reports whether s held it.
func (s *FloatSet) Remove(x float64) bool {
	k := keyOf(x)
	if k == 0 {
		had := s.zero
		s.zero = false
		return had
	}
	return s.n > 0 && s.delete(k)
}

// equal reports whether s and t hold the same keys.
func (s *FloatSet) equal(t *FloatSet) bool {
	if s.n != t.n || s.zero != t.zero {
		return false
	}
	for _, k := range t.slots {
		if k == 0 {
			continue
		}
		if _, ok := s.find(k); !ok {
			return false
		}
	}
	return true
}

// grow doubles the table, or makes the first one, and places every key
// again.
func (s *FloatSet) grow() {
	old := s.slots
	if old == nil {
		s.seed = maphash.MakeSeed()
	}
	s.slots = make([]uint64, max(minSlots, 2*len(old)))
	for _, k := range old {
		if k != 0 {
			i, _ := s.find(k)
			s.slots[i] = k
		}
	}
}

// home returns the slot where k's probe run starts.
//
//topk:nomalloc
func (s *FloatSet) home(k uint64) int {
	return int(maphash.Comparable(s.seed, k) & uint64(len(s.slots)-1))
}

// find returns the slot that holds k, or else the empty slot that ends
// k's probe run. k is not 0, and the table has an empty slot.
//
//topk:nomalloc
func (s *FloatSet) find(k uint64) (int, bool) {
	mask := len(s.slots) - 1
	for i := s.home(k); ; i = (i + 1) & mask {
		switch s.slots[i] {
		case k:
			return i, true
		case 0:
			return i, false
		}
	}
}

// insert places k, which is not 0, in a table with room for it, and
// reports whether it was absent.
//
//topk:nomalloc
func (s *FloatSet) insert(k uint64) bool {
	i, ok := s.find(k)
	if ok {
		return false
	}
	s.slots[i] = k
	s.n++
	return true
}

// delete takes k, which is not 0, out of a table that holds at least
// one key, and reports whether k was there. Each later key of the probe
// run moves back into the hole when the hole lies between its home slot
// and its own slot, and the last hole is emptied, so every probe run
// stays unbroken.
//
//topk:nomalloc
func (s *FloatSet) delete(k uint64) bool {
	i, ok := s.find(k)
	if !ok {
		return false
	}
	mask := len(s.slots) - 1
	for j := (i + 1) & mask; s.slots[j] != 0; j = (j + 1) & mask {
		if (j-s.home(s.slots[j]))&mask >= (j-i)&mask {
			s.slots[i] = s.slots[j]
			i = j
		}
	}
	s.slots[i] = 0
	s.n--
	return true
}
