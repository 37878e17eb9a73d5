//go:build !race

package quant

// raceEnabled reports whether the race detector is active.
const raceEnabled = false
