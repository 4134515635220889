//go:build !race

package netserve

// raceEnabled reports whether the race detector is compiled in; allocation
// tests skip under it because instrumentation allocates.
const raceEnabled = false
