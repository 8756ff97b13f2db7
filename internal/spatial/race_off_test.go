//go:build !race

package spatial

// raceEnabled reports whether the race detector is active. The allocation
// gates assert exact zero-allocation behaviour, which race instrumentation
// breaks (it allocates shadow state); under -race the tests still execute the
// hot path but skip the numeric assertion.
const raceEnabled = false
