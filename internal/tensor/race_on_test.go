//go:build race

package tensor

// raceEnabled reports whether the race detector is active. Allocation
// assertions are skipped under -race: the race runtime makes sync.Pool
// drop items on purpose, so a Get after a Put may allocate.
const raceEnabled = true
