//go:build !race

package server

const raceEnabled = false
