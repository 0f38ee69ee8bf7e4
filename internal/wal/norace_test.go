//go:build !race

package wal

const raceEnabled = false
