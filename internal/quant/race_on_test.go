//go:build race

package quant

// raceEnabled reports whether the race detector is active. The exhaustive
// rounding sweep is skipped under -race: it is a billion iterations of
// register arithmetic with no shared memory to check, and instrumentation
// makes it more than ten times slower.
const raceEnabled = true
