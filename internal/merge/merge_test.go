package merge

import "testing"

// TestParallelPanic checks a worker panic is re-raised on the caller.
func TestParallelPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("worker panic was not propagated")
		}
	}()
	Parallel([]func(){func() {}, func() { panic("boom") }, func() {}})
}
