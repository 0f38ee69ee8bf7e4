//go:build race

package index_test

// raceEnabled reports that the test binary was built with -race, which
// adds shadow memory to every allocation.
const raceEnabled = true
