package main

import "testing"

// TestDeleteRefusesMalformedArguments: a position or count that is not a
// number is an error, found before any connection is used (run gets none).
func TestDeleteRefusesMalformedArguments(t *testing.T) {
	for _, args := range [][]string{
		{"delete", "7", "x", "3"},
		{"delete", "7", "3", "many"},
	} {
		if err := run(nil, args); err == nil {
			t.Errorf("run %q: no error", args)
		}
	}
}
