package main

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/eval"
)

// TestRun runs the three closed loops at the micro preset: each must
// report its safety summary, and CAP-Attack must close the gap further
// than the clean run does.
func TestRun(t *testing.T) {
	if testing.Short() {
		t.Skip("trains micro victims; the non-short test job runs it")
	}
	var out bytes.Buffer
	if err := run(context.Background(), &out, eval.Micro()); err != nil {
		t.Fatal(err)
	}
	var clean, attacked, defended float64
	scan(t, &out, "clean                      min gap %f m", &clean)
	scan(t, &out, "CAP-Attack                 min gap %f m", &attacked)
	scan(t, &out, "CAP-Attack + MedianBlur    min gap %f m", &defended)
	if attacked >= clean {
		t.Errorf("CAP-Attack min gap %.2f m, clean %.2f m: the attack did not close the gap", attacked, clean)
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
