// Testdata for the snapshotpin analyzer: a miniature of the router's
// snapshot-pinned read path. Package path ends in internal/shard so
// the analyzer's scope gate admits it.
package shard

import (
	"sync"

	"a/internal/merge"
)

type topo struct {
	shards []int
}

type Router struct {
	mu  sync.RWMutex
	cur *topo
}

// snapshot is the pin; reads serve from the *topo it returns.
func (r *Router) snapshot() *topo { return r.cur }

// fanOut pins internally and visits every shard of that snapshot.
func (r *Router) fanOut(per func(int)) {
	t := r.snapshot()
	for _, s := range t.shards {
		per(s)
	}
}

// TopK takes the topology lock instead of pinning — both halves of the
// read discipline broken.
func (r *Router) TopK() []int { // want "read method TopK never pins the topology snapshot"
	r.mu.RLock() // want "read method TopK acquires the topology lock"
	defer r.mu.RUnlock()
	return r.cur.shards
}

// Count is the compliant twin: pin once, read the snapshot, no lock.
func (r *Router) Count() int {
	t := r.snapshot()
	return len(t.shards)
}

// QueryBatch is compliant via fanOut (which pins internally).
func (r *Router) QueryBatch() int {
	n := 0
	r.fanOut(func(s int) { n += s })
	return n
}

// rebalance fans into the merge machinery while holding the topology
// write lock.
func (r *Router) rebalance() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cur.shards = merge.TopK(r.cur.shards, nil) // want "rebalance calls TopK while holding the topology lock"
}

// badMerge reaches the shared merge layer directly under the read lock.
func (r *Router) badMerge() []int {
	r.mu.RLock()
	out := merge.TopK(r.cur.shards, nil) // want "badMerge calls TopK while holding the topology lock"
	r.mu.RUnlock()
	return out
}

// goodRebuild releases the lock before merging: pin, unlock, merge.
func (r *Router) goodRebuild() []int {
	r.mu.RLock()
	t := r.cur
	r.mu.RUnlock()
	return merge.TopK(t.shards, nil)
}
