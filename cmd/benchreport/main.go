// Command benchreport runs the repository's benchmark suite with -benchmem,
// parses the output and writes a BENCH_<date>.json snapshot (ns/op, B/op,
// allocs/op per benchmark) — the tracked performance trajectory the ROADMAP
// calls for. With -baseline it embeds a previous snapshot and per-benchmark
// deltas, which is how before/after evidence for a perf PR is recorded.
//
// Usage:
//
//	go run ./cmd/benchreport                         # default micro suite
//	go run ./cmd/benchreport -bench 'MatMulKMajor' -pkg ./internal/tensor
//	go run ./cmd/benchreport -baseline BENCH_old.json -out BENCH_new.json
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/tensor"
)

// defaultBench selects the micro-benchmarks: model forwards, attack steps,
// per-frame defense latency and the tensor/nn kernels. The table/figure
// regeneration benches (minutes each) and DiffPIR (trains a prior) are
// deliberately excluded; pass -bench to override.
const defaultBench = "BenchmarkRegressorForward|BenchmarkRegressorForwardBatch8|" +
	"BenchmarkDetectorForward|BenchmarkDetectorForwardBatch8|BenchmarkAttackFGSM|" +
	"BenchmarkAttackAutoPGD|BenchmarkAttackCAPFrame|BenchmarkDefenseLatencyMedian|" +
	"BenchmarkDefenseLatencyBitDepth|BenchmarkDefenseLatencyRandomization|" +
	"BenchmarkMatMul|BenchmarkMatMulKMajorSerial|BenchmarkMatMulKMajorParallel|" +
	"BenchmarkTranspose2D|BenchmarkSequential"

// Result is one parsed benchmark line.
type Result struct {
	Name        string  `json:"name"`
	Package     string  `json:"package"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// Delta compares a benchmark against the baseline snapshot.
type Delta struct {
	Name       string  `json:"name"`
	NsPct      float64 `json:"ns_per_op_pct"`
	BytesPct   float64 `json:"bytes_per_op_pct"`
	AllocsPct  float64 `json:"allocs_per_op_pct"`
	NsBase     float64 `json:"ns_per_op_base"`
	BytesBase  int64   `json:"bytes_per_op_base"`
	AllocsBase int64   `json:"allocs_per_op_base"`
}

// Machine identifies the hardware/dispatch configuration a snapshot was
// taken on. ns/op numbers are only comparable between runs on the same
// configuration — a baseline recorded on different cores or a different
// SIMD rung measures a different machine, and the -maxregress gate would
// silently absorb the offset in its headroom. The gate therefore refuses
// to compare mismatched machines (see machineMismatch).
type Machine struct {
	KMajorKernel string `json:"kmajor_kernel"`
	NumCPU       int    `json:"num_cpu"`
	GoMaxProcs   int    `json:"gomaxprocs"`
	GOOS         string `json:"goos"`
	GOARCH       string `json:"goarch"`
}

func currentMachine() *Machine {
	return &Machine{
		KMajorKernel: tensor.KMajorKernel(),
		NumCPU:       runtime.NumCPU(),
		GoMaxProcs:   runtime.GOMAXPROCS(0),
		GOOS:         runtime.GOOS,
		GOARCH:       runtime.GOARCH,
	}
}

// machineMismatch explains why base is not comparable to cur, or returns
// "" when the two snapshots came from the same configuration. The SIMD
// rung and the core count are the comparability-critical fields: a kernel
// change rescales every GEMM-bound bench, a core-count change rescales
// every parallel one.
func machineMismatch(cur, base *Machine) string {
	if base == nil {
		return "baseline predates machine metadata (regenerate it on this runner)"
	}
	if cur.KMajorKernel != base.KMajorKernel {
		return fmt.Sprintf("kmajor kernel %q vs baseline %q", cur.KMajorKernel, base.KMajorKernel)
	}
	if cur.NumCPU != base.NumCPU {
		return fmt.Sprintf("%d CPUs vs baseline %d", cur.NumCPU, base.NumCPU)
	}
	if cur.GOOS != base.GOOS || cur.GOARCH != base.GOARCH {
		return fmt.Sprintf("%s/%s vs baseline %s/%s", cur.GOOS, cur.GOARCH, base.GOOS, base.GOARCH)
	}
	return ""
}

// Report is the BENCH_<date>.json schema.
type Report struct {
	Generated string   `json:"generated"`
	Label     string   `json:"label,omitempty"`
	GoVersion string   `json:"go_version"`
	Machine   *Machine `json:"machine,omitempty"`
	BenchRE   string   `json:"bench_regexp"`
	BenchTime string   `json:"benchtime"`
	Results   []Result `json:"results"`
	Baseline  *Report  `json:"baseline,omitempty"`
	Deltas    []Delta  `json:"deltas,omitempty"`
}

func main() {
	var (
		benchRE   = flag.String("bench", defaultBench, "benchmark regexp passed to go test -bench")
		pkgs      = flag.String("pkg", "./...", "package pattern passed to go test")
		benchtime = flag.String("benchtime", "5x", "value passed to -benchtime")
		count     = flag.Int("count", 1, "value passed to -count")
		label     = flag.String("label", "", "free-form label stored in the report")
		baseline  = flag.String("baseline", "", "previous BENCH_*.json to embed and diff against")
		out       = flag.String("out", "", "output path (default BENCH_<date>.json)")
		dry       = flag.Bool("print", false, "print the report to stdout instead of writing a file")
		maxRegr   = flag.Float64("maxregress", 0, "exit non-zero when any benchmark's ns/op regresses more than this percentage vs -baseline (0 disables the gate)")
		skipMach  = flag.Bool("skipmachinecheck", false, "compare against a -baseline from a different machine anyway (deltas become cross-machine offsets, and -maxregress loses meaning)")
	)
	flag.Parse()
	if *maxRegr != 0 && *baseline == "" {
		fmt.Fprintln(os.Stderr, "benchreport: -maxregress requires -baseline")
		os.Exit(2)
	}

	raw, err := runBench(*benchRE, *pkgs, *benchtime, *count)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: %v\n", err)
		os.Exit(1)
	}
	results := parseBench(raw)
	if len(results) == 0 {
		fmt.Fprintln(os.Stderr, "benchreport: no benchmark lines parsed; output was:")
		fmt.Fprintln(os.Stderr, raw)
		os.Exit(1)
	}

	rep := Report{
		Generated: time.Now().UTC().Format(time.RFC3339),
		Label:     *label,
		GoVersion: goVersion(),
		Machine:   currentMachine(),
		BenchRE:   *benchRE,
		BenchTime: *benchtime,
		Results:   results,
	}
	if *baseline != "" {
		base, err := readReport(*baseline)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchreport: baseline: %v\n", err)
			os.Exit(1)
		}
		// A baseline from a different machine/kernel configuration cannot
		// gate this run: the deltas would mix code changes with hardware
		// offsets. Fail loudly when gating (never silently pass) unless the
		// operator explicitly opts into a cross-machine comparison.
		if why := machineMismatch(rep.Machine, base.Machine); why != "" {
			if *skipMach {
				fmt.Fprintf(os.Stderr, "benchreport: WARNING: cross-machine baseline (%s); deltas are offsets, not regressions\n", why)
			} else if *maxRegr != 0 {
				fmt.Fprintf(os.Stderr, "benchreport: FATAL: baseline %s is not from this machine: %s\n", *baseline, why)
				fmt.Fprintln(os.Stderr, "benchreport: refresh the baseline on this runner, or pass -skipmachinecheck to compare anyway (disables the point of the gate)")
				os.Exit(1)
			} else {
				fmt.Fprintf(os.Stderr, "benchreport: note: baseline is from a different machine (%s); deltas are cross-machine offsets\n", why)
			}
		}
		// Drop the baseline's own baseline so snapshots don't nest forever.
		base.Baseline, base.Deltas = nil, nil
		rep.Baseline = base
		rep.Deltas = diff(results, base.Results)
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: marshal: %v\n", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')

	if *dry {
		os.Stdout.Write(buf)
	} else {
		path := *out
		if path == "" {
			path = "BENCH_" + time.Now().UTC().Format("2006-01-02") + ".json"
		}
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "benchreport: write: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("benchreport: wrote %s (%d benchmarks", path, len(rep.Results))
		if rep.Baseline != nil {
			fmt.Printf(", %d deltas vs baseline", len(rep.Deltas))
		}
		fmt.Println(")")
	}

	// The perf gate: with -maxregress set, any benchmark slower than the
	// baseline by more than the threshold fails the run, which is how the
	// CI perf-smoke job turns the printed deltas into a PR gate.
	if *maxRegr != 0 {
		bad := 0
		for _, d := range rep.Deltas {
			if d.NsPct > *maxRegr {
				fmt.Fprintf(os.Stderr, "benchreport: REGRESSION %s: %.1f%% ns/op over baseline %.0f ns (limit %+.1f%%)\n",
					d.Name, d.NsPct, d.NsBase, *maxRegr)
				bad++
			}
		}
		if bad > 0 {
			fmt.Fprintf(os.Stderr, "benchreport: %d benchmark(s) regressed past -maxregress %.1f%%\n", bad, *maxRegr)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "benchreport: perf gate passed (no ns/op regression > %.1f%% across %d deltas)\n", *maxRegr, len(rep.Deltas))
	}
}

// runBench shells out to go test and returns the combined output.
func runBench(benchRE, pkgs, benchtime string, count int) (string, error) {
	args := []string{
		"test", "-run", "^$", "-bench", benchRE,
		"-benchmem", "-benchtime", benchtime,
		"-count", strconv.Itoa(count),
	}
	args = append(args, strings.Fields(pkgs)...)
	cmd := exec.Command("go", args...)
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = os.Stderr
	fmt.Fprintf(os.Stderr, "benchreport: go %s\n", strings.Join(args, " "))
	if err := cmd.Run(); err != nil {
		return buf.String(), fmt.Errorf("go test: %w", err)
	}
	return buf.String(), nil
}

// benchLine matches e.g.
//
//	BenchmarkRegressorForward-8   100  1006564 ns/op  543312 B/op  84 allocs/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([\d.]+) ns/op(?:\s+(\d+) B/op)?(?:\s+(\d+) allocs/op)?`)

// parseBench extracts benchmark results, tracking the current package from
// the "pkg:" header lines go test emits.
func parseBench(out string) []Result {
	var results []Result
	pkg := ""
	for _, line := range strings.Split(out, "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = rest
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		iters, _ := strconv.ParseInt(m[2], 10, 64)
		ns, _ := strconv.ParseFloat(m[3], 64)
		bytesOp, _ := strconv.ParseInt(m[4], 10, 64)
		allocs, _ := strconv.ParseInt(m[5], 10, 64)
		results = append(results, Result{
			Name: m[1], Package: pkg, Iterations: iters,
			NsPerOp: ns, BytesPerOp: bytesOp, AllocsPerOp: allocs,
		})
	}
	return results
}

// diff computes percentage changes for benchmarks present in both runs.
// Benchmarks are keyed by package and name; -count>1 repeats collapse to
// the fastest run on both sides (the usual best-of comparison), so each
// benchmark yields exactly one delta.
func diff(cur, base []Result) []Delta {
	curBest := bestByBench(cur)
	baseBest := bestByBench(base)
	var ds []Delta
	seen := make(map[string]bool, len(cur))
	for _, r := range cur {
		key := r.Package + "\x00" + r.Name
		if seen[key] {
			continue
		}
		seen[key] = true
		b, ok := baseBest[key]
		if !ok && r.Package != "" {
			// Baselines written before packages were recorded (or produced
			// by hand from raw go test output) may carry empty packages.
			b, ok = baseBest["\x00"+r.Name]
		}
		if !ok {
			continue
		}
		c := curBest[key]
		ds = append(ds, Delta{
			Name:       r.Name,
			NsPct:      pct(c.NsPerOp, b.NsPerOp),
			BytesPct:   pct(float64(c.BytesPerOp), float64(b.BytesPerOp)),
			AllocsPct:  pct(float64(c.AllocsPerOp), float64(b.AllocsPerOp)),
			NsBase:     b.NsPerOp,
			BytesBase:  b.BytesPerOp,
			AllocsBase: b.AllocsPerOp,
		})
	}
	return ds
}

// bestByBench indexes results by package+name, keeping the lowest-ns
// repeat for each benchmark.
func bestByBench(rs []Result) map[string]Result {
	idx := make(map[string]Result, len(rs))
	for _, r := range rs {
		key := r.Package + "\x00" + r.Name
		if prev, ok := idx[key]; !ok || r.NsPerOp < prev.NsPerOp {
			idx[key] = r
		}
	}
	return idx
}

// pct returns the relative change from base to cur in percent.
func pct(cur, base float64) float64 {
	if base == 0 {
		return 0
	}
	return (cur - base) / base * 100
}

func readReport(path string) (*Report, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(buf, &r); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &r, nil
}

func goVersion() string {
	out, err := exec.Command("go", "version").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}
