//go:build !race

package serve

// raceEnabled reports whether the race detector is active. Wall-clock bounds
// (the world-build test's) are relaxed under it: instrumentation slows every
// memory access, so only the un-instrumented run holds the bound.
const raceEnabled = false
