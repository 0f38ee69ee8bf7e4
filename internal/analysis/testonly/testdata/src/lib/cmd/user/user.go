// Package user is a program of the fixture module: its uses count.
package user

import "lib/internal/a"

func Main() int {
	a.UsedElsewhere()
	a.Entry()
	var t a.Tree[int]
	var s a.Shape = a.Sq{N: 2}
	_ = a.T{}
	return t.Get() + s.Area()
}
