package pst

// tokens implements the conceptual insertion/deletion tokens of the
// Lemma 3 amortization argument as optional instrumentation. Tokens are
// bookkeeping only — they exist to let tests assert Invariants 1 and 2
// after every operation — so they live entirely in Go memory, keyed by
// T̂ node, and are never charged as I/Os. (Not by pilot record: a node
// keeps its tokens while its pilot empties and its record is freed.)
//
// Rules (numbered as in the paper):
//  1. a point inserted into pilot(v) gives v an insertion token;
//  2. a point deleted from pilot(v) gives v a deletion token;
//  3. a push-down moving a point from v to child v' moves one insertion
//     token from v to v';
//  4. a pull-up moving a point from child v' to v moves one deletion
//     token from v to v';
//  5. tokens reaching a leaf disappear;
//  6. a draining pull-up at v destroys all tokens in v's subtree;
//  7. reconstruction of a subtree destroys all tokens inside it.
//
// Rule 5 is automatic here: leaves are excluded from the invariant
// checks. Rule 7 drops the counters of every node whose T-node
// reconstruction frees.

import "repro/internal/em"

type tokens struct {
	ins map[vid]int
	del map[vid]int
}

func newTokens() *tokens {
	return &tokens{ins: map[vid]int{}, del: map[vid]int{}}
}

// onInsert applies rule 1.
func (t *tokens) onInsert(v vid) {
	if t == nil {
		return
	}
	t.ins[v]++
}

// onDelete applies rule 2.
func (t *tokens) onDelete(v vid) {
	if t == nil {
		return
	}
	t.del[v]++
}

// onPushDown applies rule 3 for cnt points moved v → child.
func (t *tokens) onPushDown(v, child vid, cnt int) {
	if t == nil {
		return
	}
	t.ins[v] -= cnt
	t.ins[child] += cnt
}

// onPullUp applies rule 4 for cnt points moved child → v.
func (t *tokens) onPullUp(v, child vid, cnt int) {
	if t == nil {
		return
	}
	t.del[v] -= cnt
	t.del[child] += cnt
}

// drop applies rules 6/7 to one node.
func (t *tokens) drop(v vid) {
	if t == nil {
		return
	}
	delete(t.ins, v)
	delete(t.del, v)
}

// dropSubtree destroys all tokens in the T̂ subtree rooted at v
// (rule 6 after a draining pull-up). Traversal uses Peek: the tokens are
// conceptual, so their maintenance must not distort the I/O meter.
func (p *PST) dropTokensBelow(t em.Handle, idx int) {
	if p.tok == nil {
		return
	}
	nd := p.tstore.Peek(t)
	p.tok.drop(vid{t, idx})
	m := nd.vs[idx]
	if m.left >= 0 {
		p.dropTokensBelow(t, m.left)
		p.dropTokensBelow(t, m.right)
	} else if m.kid >= 0 {
		p.dropTokensBelow(nd.kids[m.kid], 0)
	}
}
