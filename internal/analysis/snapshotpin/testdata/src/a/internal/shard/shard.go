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

// frame is a read's working memory; read and scatter fan it out.
type frame struct{ t *topo }

func (f *frame) read() []int { f.scatter(); return f.t.shards }

func (f *frame) scatter() {}

// rebalance fans a read out while holding the topology write lock.
func (r *Router) rebalance() {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := &frame{t: r.cur}
	r.cur.shards = f.read() // want "rebalance calls read while holding the topology lock"
}

// badScatter reaches the frame's scatter directly under the read lock.
func (r *Router) badScatter() {
	r.mu.RLock()
	f := &frame{t: r.cur}
	f.scatter() // want "badScatter calls scatter while holding the topology lock"
	r.mu.RUnlock()
}

// badCount fans out through fanOut under the read lock.
func (r *Router) badCount() int {
	n := 0
	r.mu.RLock()
	defer r.mu.RUnlock()
	r.fanOut(func(s int) { n += s }) // want "badCount calls fanOut while holding the topology lock"
	return n
}

// goodRebuild releases the lock before fanning out: pin, unlock, read.
func (r *Router) goodRebuild() []int {
	r.mu.RLock()
	t := r.cur
	r.mu.RUnlock()
	f := &frame{t: t}
	return f.read()
}

// applyBatch runs update workers under the read lock through the
// parallel runner, which stays legal.
func (r *Router) applyBatch() {
	r.mu.RLock()
	defer r.mu.RUnlock()
	merge.Parallel([]func(){func() {}})
}
