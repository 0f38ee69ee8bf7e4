// Package bench stands for the extra root, a module of its own: it sees
// package a through a second type universe.
package bench

import "lib/internal/a"

func Run() { a.UsedByBench() }
