package testonly_test

import (
	"testing"

	"tendax/internal/analysis/analysistest"
	"tendax/internal/analysis/testonly"
)

func TestTestonly(t *testing.T) {
	analysistest.RunWithExtraRoot(t, testonly.Analyzer, []string{"bench"}, "lib/internal/a", "lib/cmd/user")
}
