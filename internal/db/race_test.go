//go:build race

package db

// raceEnabled reports that the test binary was built with -race, which
// instruments allocations as well as memory accesses.
const raceEnabled = true
