package main

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/eval"
)

// TestRun runs the attack sweep at the micro preset: every attack of
// Fig. 2 and every preprocessing defense must report a row.
func TestRun(t *testing.T) {
	if testing.Short() {
		t.Skip("trains micro victims; the non-short test job runs it")
	}
	var out bytes.Buffer
	if err := run(context.Background(), &out, eval.Micro()); err != nil {
		t.Fatal(err)
	}
	for _, row := range []string{
		"None ", "FGSM ", "Auto-PGD ", "RP2 ", "Gaussian ", "SimBA ",
		"Median Blurring ", "Randomization ", "Bit Depth ",
	} {
		if !strings.Contains(out.String(), "\n"+row) {
			t.Errorf("no %q row in:\n%s", strings.TrimSpace(row), out.String())
		}
	}
}
