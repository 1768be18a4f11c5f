//go:build !linux

package main

import "time"

// sleepUntil blocks until t.
func sleepUntil(t time.Time) { time.Sleep(time.Until(t)) }

// cpuTime is not measured off Linux.
func cpuTime() time.Duration { return 0 }
