// Testdata stand-in for the real internal/merge layer.
package merge

// Parallel is the shared parallel runner, legal under the topology
// lock.
func Parallel(fns []func()) {
	for _, f := range fns {
		f()
	}
}
