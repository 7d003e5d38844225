// Command advbench is the repository's end-to-end benchmark. It measures
// the closed-loop frame (render, runtime attack, defense, DistNet,
// control), the grid cell and the served spec on four workloads, checks
// every output, and prints one JSON line of metrics. A traced run
// (-trace 1) attributes the time to each layer from outside the program.
//
// Usage, from the repository root:
//
//	go run ./cmd/advbench -workload loop-classical -seed 1 -seconds 25 -trace 0
//
// cmd/advbench/README.md lists the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"syscall"

	"repro/internal/eval"
	"repro/internal/tensor"
)

// e2eMetrics are the end-to-end metrics an untraced run prints; a traced
// run prints every other metric in units.
var e2eMetrics = []string{"setup_s", "ops_per_s", "op_ms_p50", "op_ms_p95", "peak_rss_mb"}

func main() {
	o := options{preset: eval.Quick(), scale: 1, setups: 9, minRounds: 3, log: os.Stderr}
	flag.StringVar(&o.workload, "workload", "", "workload to run: loop-classical, loop-heavy, grid-quick or serve-mixed")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&o.seconds, "seconds", 25, "length of the measured phase")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	flag.StringVar(&o.traceOut, "trace-out", "", "with -trace 1, also write the spans to this file as Chrome trace-event JSON")
	flag.StringVar(&o.workdir, "workdir", ".bench_build", "directory for trained-model artifacts and temporary files")
	update := flag.Bool("update-digests", false, "recompute cmd/advbench/testdata/digests.json at seed 1 and exit")
	flag.Parse()
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	o.trace = *trace == 1

	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	fmt.Fprintf(os.Stderr, "advbench: machine kernel=%s numcpu=%d gomaxprocs=%d %s/%s\n",
		tensor.KMajorKernel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.GOOS, runtime.GOARCH)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *update {
		if err := updateDigests(ctx, o, "cmd/advbench/testdata/digests.json"); err != nil {
			fmt.Fprintln(os.Stderr, "advbench:", err)
			os.Exit(1)
		}
		return
	}
	res, err := run(ctx, o)
	if err == nil {
		var line []byte
		if line, err = encodeResult(res, o.trace); err == nil {
			fmt.Println(string(line))
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "advbench:", err)
		os.Exit(1)
	}
	if res.failed > 0 {
		os.Exit(1)
	}
}

// encodeResult renders the result line: the metrics of the run's mode,
// each with its unit.
func encodeResult(res *result, traced bool) ([]byte, error) {
	names := e2eMetrics
	if traced {
		names = perLayerMetrics()
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]metric{}
	for _, n := range names {
		v, ok := res.metrics[n]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", n)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", n, v)
		}
		metrics[n] = metric{Value: v, Unit: units[n]}
	}
	return json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, metrics})
}

// perLayerMetrics lists the traced run's metrics in name order.
func perLayerMetrics() []string {
	var out []string
	for n := range units {
		e2e := false
		for _, e := range e2eMetrics {
			e2e = e2e || e == n
		}
		if !e2e {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}
