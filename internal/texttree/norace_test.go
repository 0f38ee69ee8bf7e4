//go:build !race

package texttree

const raceEnabled = false
