//go:build race

package shard

// raceEnabled gates allocation-count assertions on pooled paths: the
// race detector makes sync.Pool deliberately drop items to expose
// misuse, so a pooled frame is rebuilt at random under it.
const raceEnabled = true
