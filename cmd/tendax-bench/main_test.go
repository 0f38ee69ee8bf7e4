package main

import (
	"path/filepath"
	"testing"
)

// TestRegistryQuick runs every registered experiment at smoke scale, so
// each demonstration's shape check is part of the ordinary test run.
func TestRegistryQuick(t *testing.T) {
	out := filepath.Join(t.TempDir(), "lineage.dot")
	for _, r := range runs {
		t.Run(r.id, func(t *testing.T) {
			if err := r.run(true, out); err != nil {
				t.Fatal(err)
			}
		})
	}
}
