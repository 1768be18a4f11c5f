package pst

import (
	"repro/internal/heap"
	"repro/internal/point"
)

// queryScratch is a PST's working memory for queries. A PST is
// single-threaded by contract (its queries already move the buffer
// pool's LRU state), and every query resets the scratch before use, so
// the buffers grow to the largest query the structure has answered and
// are reused after that: a warm Query allocates only the answer it
// returns, and a warm AppendQuery into a dst with room allocates
// nothing. Nothing here is charged to the I/O meter; like the meter
// itself, it is CPU-side bookkeeping, and it is bounded by the
// structure's own size.
type queryScratch struct {
	marks        marks
	path1, path2 []vid     // π1, π2
	pi           []vid     // Π: the query's covered hanging children
	piBound      []float64 // each Π node's path parent's representative
	cands        []point.P // Q1 ∪ Q2 ∪ Q3, or a three-sided report
	sortBuf      []point.P // Query's sort scratch
	selected     []heap.Entry
	sel          heap.Selector
	src          heapSrc

	// selectEarly's frontier (a max-heap of refs into fr), its nodes,
	// each bounder's count of nodes still on it, the bounders' bounds
	// (a max-heap of refs into live), the k best candidate scores, and
	// a buffer for one node's children.
	front []heap.Entry
	fr    []frontierNode
	live  []int32
	bnd   []heap.Entry
	kbest []heap.Entry
	kids  []heap.Entry
}

// Visit-mark bits. After Q1 the seen set is exactly π1 ∪ π2, which is
// all the query needs to know about the paths.
const (
	markSeen     uint8 = 1 << iota // pilot collected
	markSelected                   // in the selected set R
)

// marks is an epoch-stamped set of T̂ nodes carrying a few flag bits
// each: open addressing over a power-of-two table whose slots count as
// empty unless stamped with the current epoch, so reset clears it in
// O(1). reset must run before the first set.
type marks struct {
	epoch uint32
	n     int
	slots []markSlot
}

type markSlot struct {
	v     vid
	epoch uint32
	bits  uint8
}

func (m *marks) reset() {
	m.n = 0
	m.epoch++
	if m.epoch == 0 { // wrapped: stale stamps would read as current
		clear(m.slots)
		m.epoch = 1
	}
}

// find returns the slot holding v, or the empty slot where v belongs.
func (m *marks) find(v vid) *markSlot {
	mask := uint64(len(m.slots) - 1)
	i := (uint64(v.t)*0x9e3779b97f4a7c15 ^ uint64(v.idx)*0xc2b2ae3d27d4eb4f) >> 32 & mask
	for {
		s := &m.slots[i]
		if s.epoch != m.epoch || s.v == v {
			return s
		}
		i = (i + 1) & mask
	}
}

// has reports whether v carries bit.
func (m *marks) has(v vid, bit uint8) bool {
	if len(m.slots) == 0 {
		return false
	}
	s := m.find(v)
	return s.epoch == m.epoch && s.bits&bit != 0
}

// set gives v bit, reporting whether it already had it.
func (m *marks) set(v vid, bit uint8) bool {
	if 2*(m.n+1) > len(m.slots) {
		m.grow()
	}
	s := m.find(v)
	if s.epoch != m.epoch {
		*s = markSlot{v: v, epoch: m.epoch}
		m.n++
	}
	had := s.bits&bit != 0
	s.bits |= bit
	return had
}

// grow doubles the table, keeping the current epoch's marks.
func (m *marks) grow() {
	old := m.slots
	m.slots = make([]markSlot, max(16, 2*len(old)))
	for _, s := range old {
		if s.epoch == m.epoch {
			*m.find(s.v) = s
		}
	}
}
