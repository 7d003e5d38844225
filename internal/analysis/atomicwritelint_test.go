package analysis_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
)

func TestAtomicwritelint(t *testing.T) {
	for _, pkg := range []string{"repro/internal/blob", "repro/internal/serve"} {
		analysistest.Run(t, analysis.Atomicwritelint, "testdata/src/atomic", pkg)
	}
}
