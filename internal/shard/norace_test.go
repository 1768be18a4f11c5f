//go:build !race

package shard

// raceEnabled gates allocation-count assertions; see race_test.go.
const raceEnabled = false
