// Package btree implements an external-memory B-tree over float64 keys,
// augmented with subtree counts so that rank and selection queries run in
// O(log_B n) I/Os.
//
// The paper leans on such trees throughout §3 and §4: a B-tree on G to
// convert a global rank to an element (§4.1) and B-trees on each G_i
// for local-rank selection (§4.2), which double as the score B-trees
// of §3.3's update algorithm. This package provides those capabilities:
//
//   - Insert / Delete / Contains           O(log_B n)
//   - RankDesc (rank = |{e' ≥ e}|, as defined in §3.1)
//   - SelectDesc (element of a given descending rank)
//
// The range maximum over G_{u1} ∪ … ∪ G_{uf} that §3.3 asks of "a
// (slightly augmented) B-tree" comes from package flgroup's maxima block
// (Group.MaxIn) instead.
//
// Keys are assumed distinct, matching the paper's distinct-score
// assumption.
//
// The tree is leaf-oriented: internal nodes store, per child, the child's
// maximum key and subtree count. Every node occupies one disk block.
package btree

import (
	"fmt"
	"math"

	"repro/internal/em"
)

// node is one B-tree node. Leaves store data keys in ascending order;
// internal nodes store one router (max key of subtree) and one count per
// child, aligned with kids.
type node struct {
	leaf   bool
	keys   []float64   // leaf: data; internal: per-child max key
	kids   []em.Handle // internal only
	counts []int       // internal only: per-child subtree size
}

func (n *node) size() int {
	if n.leaf {
		return 1 + len(n.keys)
	}
	return 1 + 3*len(n.keys)
}

func (n *node) total() int {
	if n.leaf {
		return len(n.keys)
	}
	t := 0
	for _, c := range n.counts {
		t += c
	}
	return t
}

// Tree is an order-statistic external B-tree. Create with New or Bulk.
type Tree struct {
	store   *em.Store[*node]
	root    em.Handle
	n       int
	leafCap int // max keys in a leaf
	kidCap  int // max children of an internal node
	height  int
}

// New creates an empty tree on d.
func New(d *em.Disk, name string) *Tree { return Bulk(d, name, nil) }

// Bulk builds a tree on d over asc, which must be strictly ascending.
// It fills the leaves and then each internal level evenly up to
// capacity, so every node but the root holds at least the minimum the
// update paths keep, and it writes each node once: O(n/B) I/Os. Node
// capacities are derived from the block size so each node fits in one
// block.
func Bulk(d *em.Disk, name string, asc []float64) *Tree {
	for i := 1; i < len(asc); i++ {
		if asc[i-1] >= asc[i] {
			panic(fmt.Sprintf("btree: bulk input not strictly ascending at %d", i))
		}
	}
	t := &Tree{
		store:   em.NewStore(d, name, func(n *node) int { return n.size() }),
		n:       len(asc),
		leafCap: max(d.B()-1, 4),
		kidCap:  max((d.B()-1)/3, 4),
		height:  1,
	}
	// One level at a time: the nodes' handles, maximum keys and counts.
	m := max(1, ceilDiv(len(asc), t.leafCap))
	kids := make([]em.Handle, m)
	keys := make([]float64, m)
	counts := make([]int, m)
	for j := range m {
		lk := append([]float64(nil), asc[j*len(asc)/m:(j+1)*len(asc)/m]...)
		nd := &node{leaf: true, keys: lk}
		kids[j], keys[j], counts[j] = t.store.Alloc(nd), maxKeyOf(nd), len(lk)
	}
	for len(kids) > 1 {
		m := ceilDiv(len(kids), t.kidCap)
		for j := range m {
			a, b := j*len(kids)/m, (j+1)*len(kids)/m
			nd := &node{
				keys:   append([]float64(nil), keys[a:b]...),
				kids:   append([]em.Handle(nil), kids[a:b]...),
				counts: append([]int(nil), counts[a:b]...),
			}
			kids[j], keys[j], counts[j] = t.store.Alloc(nd), maxKeyOf(nd), nd.total()
		}
		kids, keys, counts = kids[:m], keys[:m], counts[:m]
		t.height++
	}
	t.root = kids[0]
	return t
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// Len returns the number of keys stored.
func (t *Tree) Len() int { return t.n }

// Height returns the number of levels (a lone leaf has height 1).
func (t *Tree) Height() int { return t.height }

// Free releases every node of the tree.
func (t *Tree) Free() {
	var rec func(h em.Handle)
	rec = func(h em.Handle) {
		nd := t.store.Read(h)
		if !nd.leaf {
			for _, k := range nd.kids {
				rec(k)
			}
		}
		t.store.Free(h)
	}
	rec(t.root)
	t.root = em.NilHandle
	t.n = 0
}

// childFor returns the index of the child a key k belongs to: the first
// child whose router (max key) is ≥ k, or the last child.
func childFor(nd *node, k float64) int {
	lo, hi := 0, len(nd.keys)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if nd.keys[mid] >= k {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// leafInsertPos returns the index at which k should sit in a leaf.
func leafInsertPos(nd *node, k float64) int {
	lo, hi := 0, len(nd.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if nd.keys[mid] < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Contains reports whether k is present.
func (t *Tree) Contains(k float64) bool {
	h := t.root
	for {
		nd := t.store.Read(h)
		if nd.leaf {
			i := leafInsertPos(nd, k)
			return i < len(nd.keys) && nd.keys[i] == k
		}
		i := childFor(nd, k)
		h = nd.kids[i]
	}
}

// Insert adds k. It panics if k is already present (keys are distinct by
// the problem's standing assumption; callers enforce it).
func (t *Tree) Insert(k float64) {
	moreKid, grew := t.insertAt(t.root, k)
	if grew {
		old := t.store.Read(t.root)
		more := t.store.Read(moreKid)
		root := &node{
			keys:   []float64{maxKeyOf(old), maxKeyOf(more)},
			kids:   []em.Handle{t.root, moreKid},
			counts: []int{old.total(), more.total()},
		}
		t.root = t.store.Alloc(root)
		t.height++
	}
	t.n++
}

func maxKeyOf(nd *node) float64 {
	if len(nd.keys) == 0 {
		return math.Inf(-1)
	}
	return nd.keys[len(nd.keys)-1]
}

// insertAt inserts k under h. If h splits, the new right sibling's handle
// is returned with grew=true.
func (t *Tree) insertAt(h em.Handle, k float64) (em.Handle, bool) {
	nd := t.store.Read(h)
	if nd.leaf {
		i := leafInsertPos(nd, k)
		if i < len(nd.keys) && nd.keys[i] == k {
			panic(fmt.Sprintf("btree: duplicate key %v", k))
		}
		nd.keys = append(nd.keys, 0)
		copy(nd.keys[i+1:], nd.keys[i:])
		nd.keys[i] = k
		if len(nd.keys) <= t.leafCap {
			t.store.Write(h, nd)
			return em.NilHandle, false
		}
		mid := len(nd.keys) / 2
		right := &node{leaf: true, keys: append([]float64(nil), nd.keys[mid:]...)}
		nd.keys = nd.keys[:mid]
		t.store.Write(h, nd)
		return t.store.Alloc(right), true
	}

	i := childFor(nd, k)
	newKid, grew := t.insertAt(nd.kids[i], k)
	// Refresh router and count for child i.
	child := t.store.Read(nd.kids[i])
	nd.keys[i] = maxKeyOf(child)
	nd.counts[i] = child.total()
	if grew {
		nc := t.store.Read(newKid)
		nd.keys = append(nd.keys, 0)
		nd.kids = append(nd.kids, em.NilHandle)
		nd.counts = append(nd.counts, 0)
		copy(nd.keys[i+2:], nd.keys[i+1:])
		copy(nd.kids[i+2:], nd.kids[i+1:])
		copy(nd.counts[i+2:], nd.counts[i+1:])
		nd.keys[i+1] = maxKeyOf(nc)
		nd.kids[i+1] = newKid
		nd.counts[i+1] = nc.total()
	}
	if len(nd.kids) <= t.kidCap {
		t.store.Write(h, nd)
		return em.NilHandle, false
	}
	mid := len(nd.kids) / 2
	right := &node{
		keys:   append([]float64(nil), nd.keys[mid:]...),
		kids:   append([]em.Handle(nil), nd.kids[mid:]...),
		counts: append([]int(nil), nd.counts[mid:]...),
	}
	nd.keys = nd.keys[:mid]
	nd.kids = nd.kids[:mid]
	nd.counts = nd.counts[:mid]
	t.store.Write(h, nd)
	return t.store.Alloc(right), true
}

// Delete removes k and reports whether it was present.
func (t *Tree) Delete(k float64) bool {
	ok := t.deleteAt(t.root, k)
	if !ok {
		return false
	}
	t.n--
	// Collapse a root with a single child.
	for {
		root := t.store.Read(t.root)
		if root.leaf || len(root.kids) > 1 {
			break
		}
		child := root.kids[0]
		t.store.Free(t.root)
		t.root = child
		t.height--
	}
	return true
}

func (t *Tree) minKids() int { return (t.kidCap + 1) / 2 }
func (t *Tree) minKeys() int { return (t.leafCap + 1) / 2 }

func (t *Tree) deleteAt(h em.Handle, k float64) bool {
	nd := t.store.Read(h)
	if nd.leaf {
		i := leafInsertPos(nd, k)
		if i >= len(nd.keys) || nd.keys[i] != k {
			return false
		}
		nd.keys = append(nd.keys[:i], nd.keys[i+1:]...)
		t.store.Write(h, nd)
		return true
	}
	i := childFor(nd, k)
	if !t.deleteAt(nd.kids[i], k) {
		return false
	}
	child := t.store.Read(nd.kids[i])
	nd.keys[i] = maxKeyOf(child)
	nd.counts[i] = child.total()
	t.rebalanceChild(h, nd, i)
	return true
}

// rebalanceChild restores the minimum-occupancy invariant of child i of
// nd (handle h), borrowing from or merging with a sibling. nd is written
// back in all paths.
func (t *Tree) rebalanceChild(h em.Handle, nd *node, i int) {
	child := t.store.Read(nd.kids[i])
	deficient := false
	if child.leaf {
		deficient = len(child.keys) < t.minKeys()
	} else {
		deficient = len(child.kids) < t.minKids()
	}
	if !deficient || len(nd.kids) == 1 {
		t.store.Write(h, nd)
		return
	}
	// Prefer the left sibling; fall back to the right.
	j := i - 1
	if j < 0 {
		j = i + 1
	}
	sib := t.store.Read(nd.kids[j])
	canBorrow := false
	if sib.leaf {
		canBorrow = len(sib.keys) > t.minKeys()
	} else {
		canBorrow = len(sib.kids) > t.minKids()
	}
	if canBorrow {
		if j < i { // borrow last from left sibling
			if child.leaf {
				last := sib.keys[len(sib.keys)-1]
				sib.keys = sib.keys[:len(sib.keys)-1]
				child.keys = append([]float64{last}, child.keys...)
			} else {
				nk := len(sib.kids) - 1
				child.keys = append([]float64{sib.keys[nk]}, child.keys...)
				child.kids = append([]em.Handle{sib.kids[nk]}, child.kids...)
				child.counts = append([]int{sib.counts[nk]}, child.counts...)
				sib.keys, sib.kids, sib.counts = sib.keys[:nk], sib.kids[:nk], sib.counts[:nk]
			}
		} else { // borrow first from right sibling
			if child.leaf {
				first := sib.keys[0]
				sib.keys = sib.keys[1:]
				child.keys = append(child.keys, first)
			} else {
				child.keys = append(child.keys, sib.keys[0])
				child.kids = append(child.kids, sib.kids[0])
				child.counts = append(child.counts, sib.counts[0])
				sib.keys, sib.kids, sib.counts = sib.keys[1:], sib.kids[1:], sib.counts[1:]
			}
		}
		t.store.Write(nd.kids[i], child)
		t.store.Write(nd.kids[j], sib)
		nd.keys[i] = maxKeyOf(child)
		nd.counts[i] = child.total()
		nd.keys[j] = maxKeyOf(sib)
		nd.counts[j] = sib.total()
		t.store.Write(h, nd)
		return
	}
	// Merge child into sibling (or vice versa): keep the left one.
	l, r := i, j
	if j < i {
		l, r = j, i
	}
	left := t.store.Read(nd.kids[l])
	right := t.store.Read(nd.kids[r])
	left.keys = append(left.keys, right.keys...)
	if !left.leaf {
		left.kids = append(left.kids, right.kids...)
		left.counts = append(left.counts, right.counts...)
	}
	t.store.Write(nd.kids[l], left)
	t.store.Free(nd.kids[r])
	nd.keys[l] = maxKeyOf(left)
	nd.counts[l] = left.total()
	nd.keys = append(nd.keys[:r], nd.keys[r+1:]...)
	nd.kids = append(nd.kids[:r], nd.kids[r+1:]...)
	nd.counts = append(nd.counts[:r], nd.counts[r+1:]...)
	t.store.Write(h, nd)
}

// Max returns the largest key, if any.
func (t *Tree) Max() (float64, bool) {
	if t.n == 0 {
		return 0, false
	}
	h := t.root
	for {
		nd := t.store.Read(h)
		if nd.leaf {
			return nd.keys[len(nd.keys)-1], true
		}
		h = nd.kids[len(nd.kids)-1]
	}
}

// Min returns the smallest key, if any.
func (t *Tree) Min() (float64, bool) {
	if t.n == 0 {
		return 0, false
	}
	h := t.root
	for {
		nd := t.store.Read(h)
		if nd.leaf {
			return nd.keys[0], true
		}
		h = nd.kids[0]
	}
}

// CountGE returns |{e ∈ tree : e ≥ k}|.
func (t *Tree) CountGE(k float64) int {
	h := t.root
	cnt := 0
	for {
		nd := t.store.Read(h)
		if nd.leaf {
			i := leafInsertPos(nd, k)
			return cnt + len(nd.keys) - i
		}
		i := childFor(nd, k)
		for j := i + 1; j < len(nd.counts); j++ {
			cnt += nd.counts[j]
		}
		h = nd.kids[i]
	}
}

// RankDesc returns the rank of k as defined in §3.1: |{e' ≥ k}|. The
// largest element has rank 1. k need not be present (the result is then
// the rank k would have counting strictly greater elements, plus nothing
// for itself).
func (t *Tree) RankDesc(k float64) int { return t.CountGE(k) }

// SelectDesc returns the key of descending rank r (1 = largest).
func (t *Tree) SelectDesc(r int) (float64, bool) {
	if r < 1 || r > t.n {
		return 0, false
	}
	// Descending rank r = ascending index n-r (0-based).
	idx := t.n - r
	h := t.root
	for {
		nd := t.store.Read(h)
		if nd.leaf {
			return nd.keys[idx], true
		}
		for i, c := range nd.counts {
			if idx < c {
				h = nd.kids[i]
				break
			}
			idx -= c
		}
	}
}

// AscendRange visits keys in [lo, hi] in ascending order until visit
// returns false.
func (t *Tree) AscendRange(lo, hi float64, visit func(float64) bool) {
	t.ascend(t.root, lo, hi, visit)
}

func (t *Tree) ascend(h em.Handle, lo, hi float64, visit func(float64) bool) bool {
	nd := t.store.Read(h)
	if nd.leaf {
		for _, k := range nd.keys {
			if k < lo {
				continue
			}
			if k > hi {
				return false
			}
			if !visit(k) {
				return false
			}
		}
		return true
	}
	for i, kid := range nd.kids {
		if nd.keys[i] < lo {
			continue
		}
		if !t.ascend(kid, lo, hi, visit) {
			return false
		}
		if nd.keys[i] > hi {
			return false
		}
	}
	return true
}

// Keys returns all keys ascending (test/debug helper; costs a full scan).
func (t *Tree) Keys() []float64 {
	out := make([]float64, 0, t.n)
	t.AscendRange(math.Inf(-1), math.Inf(1), func(k float64) bool {
		out = append(out, k)
		return true
	})
	return out
}

// CheckInvariants validates structural invariants (router correctness,
// counts, ordering, occupancy) without charging I/Os. Test helper.
func (t *Tree) CheckInvariants() error {
	var rec func(h em.Handle, depth int) (int, float64, error)
	rec = func(h em.Handle, depth int) (int, float64, error) {
		nd := t.store.Peek(h)
		if nd.leaf {
			if depth != t.height {
				return 0, 0, fmt.Errorf("leaf at depth %d, height %d", depth, t.height)
			}
			for i := 1; i < len(nd.keys); i++ {
				if nd.keys[i-1] >= nd.keys[i] {
					return 0, 0, fmt.Errorf("leaf keys out of order")
				}
			}
			if len(nd.keys) > t.leafCap || h != t.root && len(nd.keys) < t.minKeys() {
				return 0, 0, fmt.Errorf("leaf holds %d keys, want [%d,%d]", len(nd.keys), t.minKeys(), t.leafCap)
			}
			return len(nd.keys), maxKeyOf(nd), nil
		}
		if len(nd.kids) != len(nd.keys) || len(nd.kids) != len(nd.counts) {
			return 0, 0, fmt.Errorf("internal arity mismatch")
		}
		if len(nd.kids) > t.kidCap || h != t.root && len(nd.kids) < t.minKids() {
			return 0, 0, fmt.Errorf("internal node has %d children, want [%d,%d]", len(nd.kids), t.minKids(), t.kidCap)
		}
		total := 0
		for i, kid := range nd.kids {
			c, mx, err := rec(kid, depth+1)
			if err != nil {
				return 0, 0, err
			}
			if c != nd.counts[i] {
				return 0, 0, fmt.Errorf("count mismatch: have %d want %d", nd.counts[i], c)
			}
			if mx != nd.keys[i] {
				return 0, 0, fmt.Errorf("router mismatch: have %v want %v", nd.keys[i], mx)
			}
			if i > 0 && nd.keys[i-1] >= nd.keys[i] {
				return 0, 0, fmt.Errorf("routers out of order")
			}
			total += c
		}
		return total, maxKeyOf(nd), nil
	}
	total, _, err := rec(t.root, 1)
	if err != nil {
		return err
	}
	if total != t.n {
		return fmt.Errorf("size mismatch: counted %d, Len=%d", total, t.n)
	}
	return nil
}
