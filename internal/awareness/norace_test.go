//go:build !race

package awareness

const raceEnabled = false
