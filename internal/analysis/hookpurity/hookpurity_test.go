package hookpurity_test

import (
	"testing"

	"shootdown/internal/analysis/analysistest"
	"shootdown/internal/analysis/hookpurity"
)

func TestHookPurity(t *testing.T) {
	analysistest.Run(t, "testdata", hookpurity.Analyzer, "sim", "oracle", "trace", "kernel")
}
