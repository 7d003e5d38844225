package main

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/eval"
)

// TestRun runs the quickstart at the micro preset: the trained detector
// must find signs, FGSM must not improve detection, and Auto-PGD must
// inflate the predicted distance of the demo frame.
func TestRun(t *testing.T) {
	if testing.Short() {
		t.Skip("trains micro victims; the non-short test job runs it")
	}
	var out bytes.Buffer
	if err := run(context.Background(), &out, eval.Micro()); err != nil {
		t.Fatal(err)
	}
	var clean, fgsm, truth, pred, attacked float64
	scan(t, &out, "detector  clean: mAP50=%f%%", &clean)
	scan(t, &out, "detector   FGSM: mAP50=%f%%", &fgsm)
	scan(t, &out, "regressor attack demo: true=%f m, clean pred=%f m, attacked pred=%f m", &truth, &pred, &attacked)
	if clean <= 0 {
		t.Errorf("clean mAP50 %.1f%%", clean)
	}
	if fgsm > clean {
		t.Errorf("FGSM improved detection: mAP50 %.1f%% -> %.1f%%", clean, fgsm)
	}
	if attacked <= pred {
		t.Errorf("Auto-PGD failed to inflate the predicted distance: %.1f m -> %.1f m", pred, attacked)
	}
}

// scan parses the report line that starts like format into args.
func scan(t *testing.T, out *bytes.Buffer, format string, args ...any) {
	t.Helper()
	prefix := format[:strings.IndexByte(format, '%')]
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(line, prefix) {
			if _, err := fmt.Sscanf(line, format, args...); err != nil {
				t.Fatalf("%q: %v", line, err)
			}
			return
		}
	}
	t.Fatalf("no line starting %q in:\n%s", prefix, out.String())
}
