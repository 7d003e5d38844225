package main

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/eval"
)

// TestRun runs the defense comparison at the micro preset: the attack
// must induce a positive distance error, and every defense family must
// report a row.
func TestRun(t *testing.T) {
	if testing.Short() {
		t.Skip("trains micro victims; the non-short test job runs it")
	}
	var out bytes.Buffer
	if err := run(context.Background(), &out, eval.Micro()); err != nil {
		t.Fatal(err)
	}
	var base float64
	if _, err := fmt.Sscanf(out.String(), "no defense             induced error %f m", &base); err != nil {
		t.Fatalf("%v in:\n%s", err, out.String())
	}
	if base <= 0 {
		t.Errorf("Auto-PGD induced %.2f m, want a positive error", base)
	}
	for _, row := range []string{
		"Median Blurring ", "Randomization ", "Bit Depth ",
		"adversarial training ", "Diffusion (DiffPIR) ",
	} {
		if !strings.Contains(out.String(), "\n"+row) {
			t.Errorf("no %q row in:\n%s", strings.TrimSpace(row), out.String())
		}
	}
}
