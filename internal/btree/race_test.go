//go:build race

package btree

// raceEnabled reports that the test binary was built with -race, which
// adds shadow memory to every allocation.
const raceEnabled = true
