//go:build race

package server

// raceEnabled reports whether the race detector is compiled in; allocation
// tests skip under it because instrumentation allocates.
const raceEnabled = true
