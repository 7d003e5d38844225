package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"syscall"
	"time"

	"repro/internal/defense"
	"repro/internal/eval"
	"repro/internal/exp"
	"repro/internal/nn"
	"repro/internal/pipeline"
	"repro/internal/regress"
	"repro/internal/sim"
	"repro/internal/xrand"
)

// options is one benchmark invocation.
type options struct {
	workload string
	seed     int64
	seconds  float64 // length of the measured phase
	trace    bool    // per-layer run instead of the end-to-end run
	traceOut string  // Chrome trace-event JSON of the traced run ("" = none)
	workdir  string  // trained-model artifacts and temporary files
	preset   eval.Preset
	// scale multiplies every cell duration; the contract smoke test runs
	// the workloads at a tiny scale on the micro preset.
	scale     float64
	setups    int // set-ups per run; setup_s is their median
	minRounds int // fewest rounds a loop or grid run measures
	log       io.Writer
}

// result is what one run prints: the metrics of its mode plus the count
// of operations attempted and failed.
type result struct {
	attempted, failed int
	metrics           map[string]float64
}

// stageKinds are the attack and defense spans with a per-call metric:
// those the workloads run.
var stageKinds = []string{
	"attack.fgsm", "attack.cap", "attack.apgd",
	"defense.median", "defense.bitdepth", "defense.randomization", "defense.diffpir",
}

// serveMetrics are the per-layer metrics only serve-mixed measures.
var serveMetrics = []string{
	"serve.hits", "serve.computes", "serve.joins", "serve.rejected", "serve.hit_ratio",
	"serve.cache_get_us_p50", "serve.cache_get_us_p95", "serve.cache_put_ms_p50",
	"serve.hit_payload_kb", "serve.runner_ms_p50", "serve.miss_overhead_ms_p50",
}

// units is the unit of every metric the benchmark prints. BENCHMARK.json
// declares the same names and units; smoke_test.go keeps the two in step.
var units = func() map[string]string {
	u := map[string]string{
		// End to end, with tracing off.
		"setup_s":     "s",
		"ops_per_s":   "1/s",
		"op_ms_p50":   "ms",
		"op_ms_p95":   "ms",
		"peak_rss_mb": "MB",

		// Per layer, from the traced run.
		"scene.render_ms":             "ms",
		"pipeline.filter_ms":          "ms",
		"regress.predict_ms":          "ms",
		"tensor.conv0_gflops":         "GFLOP/s",
		"tensor.conv2_gflops":         "GFLOP/s",
		"tensor.conv4_gflops":         "GFLOP/s",
		"tensor.dense7_gflops":        "GFLOP/s",
		"sim.control_us":              "us",
		"pipeline.frame_ms":           "ms",
		"pipeline.frames":             "count",
		"pipeline.alloc_kb_per_frame": "kB",
		"trace.overhead_pct":          "%",
		"trace.coverage_pct":          "%",
		"eval.cell_ms_p50":            "ms",
		"eval.cell_ms_p95":            "ms",
		"eval.prelude_ms":             "ms",
		"eval.tail_ms":                "ms",
		"eval.cells":                  "count",
		"eval.worker_busy_ratio":      "ratio",
		"exp.spec_hash_us":            "us",
		"serve.hits":                  "count",
		"serve.computes":              "count",
		"serve.joins":                 "count",
		"serve.rejected":              "count",
		"serve.hit_ratio":             "ratio",
		"serve.cache_get_us_p50":      "us",
		"serve.cache_get_us_p95":      "us",
		"serve.cache_put_ms_p50":      "ms",
		"serve.hit_payload_kb":        "kB",
		"serve.runner_ms_p50":         "ms",
		"serve.miss_overhead_ms_p50":  "ms",
		"setup.env_s":                 "s",
		"setup.diffusion_s":           "s",
		"host.calib_ms":               "ms",
	}
	for _, n := range netLayerNames {
		u[n+"_ms"] = "ms"
	}
	for _, n := range stageKinds {
		u[n+"_ms"] = "ms"
	}
	for _, n := range sec6Metrics() {
		u[n] = "ms"
	}
	return u
}()

// sec6Metrics names the §VI table's metrics: the median traced frame time
// of each attack-defense pair the loop workloads run.
func sec6Metrics() []string {
	seen := map[string]bool{}
	var out []string
	for _, plan := range []loopPlan{loopClassical, loopHeavy} {
		for _, s := range plan(1, 0, 1) {
			for _, at := range s.Matrix.Attacks {
				for _, df := range s.Matrix.Defenses {
					if n := sec6Metric(at, df); !seen[n] {
						seen[n] = true
						out = append(out, n)
					}
				}
			}
		}
	}
	return out
}

func sec6Metric(attack, defense string) string {
	return "sec6." + shortName(attack) + "-" + shortName(defense) + ".frame_ms_p50"
}

// workload is one named input set. Set-up builds what the measured phase
// needs and is timed; measure runs the untraced end-to-end phase; traced
// runs the same load with layer hooks and returns the cells it ran, for
// frame attribution.
type workload struct {
	name      string
	needPrior bool // set-up loads the DiffPIR prior
	daemon    bool // set-up starts and warms the serving daemon
	measure   func(ctx context.Context, b *bench, d time.Duration, out *result) error
	traced    func(ctx context.Context, b *bench, d time.Duration, out *result) ([]cell, error)
	// reference computes the workload's output digests at the digest
	// seed, one per round or spec key.
	reference func(ctx context.Context, b *bench) (digests, error)
}

var workloads = []workload{
	{name: "loop-classical", measure: measureLoop(loopClassical), traced: tracedLoop(loopClassical), reference: referenceLoop(loopClassical)},
	{name: "loop-heavy", needPrior: true, measure: measureLoop(loopHeavy), traced: tracedLoop(loopHeavy), reference: referenceLoop(loopHeavy)},
	{name: "grid-quick", measure: measureGrid, traced: tracedGrid, reference: referenceGrid},
	{name: "serve-mixed", daemon: true, measure: measureServe, traced: tracedServe, reference: referenceServe},
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// bench is the state a measured phase runs against.
type bench struct {
	opts   options
	env    *eval.Env
	prior  *defense.Diffusion // trained DiffPIR prior; nil unless the workload needs it
	daemon *daemon            // serve-mixed only
	check  *checker           // output digests of this workload
	tr     *tracer            // traced runs only
	log    func(format string, args ...any)
}

// close stops what set-up started.
func (b *bench) close() {
	if b.daemon != nil {
		b.daemon.close()
	}
}

// run executes one invocation and returns its result.
func run(ctx context.Context, o options) (*result, error) {
	w, err := findWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	want, err := committedDigests(o)
	if err != nil {
		return nil, err
	}
	logf := func(format string, args ...any) { fmt.Fprintf(o.log, format+"\n", args...) }
	out := &result{metrics: map[string]float64{}}
	calib0 := calibrate()
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}

	// Set up several times and keep the last; setup_s is the median, so
	// the first set-up in a checkout, which trains and stores the
	// models, does not count.
	var setupS, envS, priorS []float64
	var b *bench
	defer func() {
		if b != nil {
			b.close()
		}
	}()
	for i := 0; i < max(o.setups, 1); i++ {
		if b != nil {
			b.close()
			b = nil
		}
		runtime.GC() // garbage of the previous set-up is not this one's cost
		t0 := time.Now()
		nb, st, err := setup(ctx, o, w, tr)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		envS = append(envS, st.env.Seconds())
		priorS = append(priorS, st.prior.Seconds())
		b = nb
	}
	b.log = logf
	b.check = newChecker(want)
	runtime.GC()

	d := time.Duration(o.seconds * float64(time.Second))
	if !o.trace {
		if err := w.measure(ctx, b, d, out); err != nil {
			return nil, err
		}
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			return nil, fmt.Errorf("getrusage: %w", err)
		}
		out.metrics["setup_s"] = median(setupS)
		out.metrics["peak_rss_mb"] = float64(ru.Maxrss) / 1024 // Linux reports kilobytes
		b.log("host calibration: %.2f ms at the start, %.2f ms at the end", calib0, calibrate())
		return out, nil
	}

	// Traced: half the time under the workload's layer hooks, half
	// replaying the cells it ran through the traced pipeline replica.
	cells, err := w.traced(ctx, b, d/2, out)
	if err != nil {
		return nil, err
	}
	if err := b.attribute(cells, time.Now().Add(d/2), out); err != nil {
		return nil, err
	}
	if o.traceOut != "" {
		if err := b.tr.writeChrome(o.traceOut); err != nil {
			return nil, err
		}
	}
	if !w.daemon {
		for _, k := range serveMetrics {
			out.metrics[k] = 0 // the workload sends no requests
		}
	}
	out.metrics["setup.env_s"] = median(envS)
	out.metrics["setup.diffusion_s"] = median(priorS)
	out.metrics["host.calib_ms"] = (calib0 + calibrate()) / 2
	return out, nil
}

// setupTime is what one set-up spent, by part.
type setupTime struct {
	env   time.Duration // the environment, or the daemon and its Warm
	prior time.Duration // loading the DiffPIR prior
}

// setup builds one environment: datasets plus victims warm-started from
// the artifact store (trained and stored on the first run in a checkout);
// on serve-mixed through the daemon's Warm. It adds the DiffPIR prior
// when the workload restores frames with it.
func setup(ctx context.Context, o options, w workload, tr *tracer) (*bench, setupTime, error) {
	var st setupTime
	store, err := eval.NewModelStore(filepath.Join(o.workdir, "artifacts"))
	if err != nil {
		return nil, st, err
	}
	b := &bench{opts: o, tr: tr}
	t0 := time.Now()
	if w.daemon {
		if b.daemon, err = startDaemon(ctx, o, store, tr); err == nil {
			b.env = b.daemon.env
		}
	} else {
		b.env, err = eval.NewEnvCached(ctx, o.preset, nil, store)
	}
	if err != nil {
		return nil, st, err
	}
	st.env = time.Since(t0)
	if w.needPrior {
		t0 = time.Now()
		if b.prior, err = loadPrior(b.env, store.Dir()); err != nil {
			b.close()
			return nil, st, err
		}
		st.prior = time.Since(t0)
	}
	return b, st, nil
}

// loadPrior returns the env's trained diffusion prior from the artifact
// store, training and storing it when absent. The eval artifact store
// keeps only the victims, and training the prior takes half a minute on
// the quick preset, far more than one run can spend on set-up.
func loadPrior(env *eval.Env, dir string) (*defense.Diffusion, error) {
	path := filepath.Join(dir, priorKey(env.Preset))
	if data, err := os.ReadFile(path); err == nil {
		d := newPrior(env.Preset)
		if err := nn.DecodeParams(data, d.Net.Params()); err != nil {
			return nil, fmt.Errorf("prior artifact %s: %w", path, err)
		}
		return d, nil
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("prior artifact: %w", err)
	}
	d := env.Diffusion()
	data, err := nn.EncodeParams(d.Net.Params())
	if err != nil {
		return nil, err
	}
	tmp, err := os.CreateTemp(dir, "prior-*.tmp")
	if err != nil {
		return nil, fmt.Errorf("prior artifact: %w", err)
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return nil, fmt.Errorf("prior artifact: %v", errors.Join(werr, cerr))
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return nil, fmt.Errorf("prior artifact: %w", err)
	}
	return d, nil
}

// newPrior builds an untrained prior with the architecture and noise
// schedule eval.Env.Diffusion trains.
func newPrior(p eval.Preset) *defense.Diffusion {
	cfg := defense.DefaultDiffusionConfig()
	cfg.TrainSteps = p.DiffusionSteps
	return defense.NewDiffusion(xrand.New(p.Seed+4).Split(), cfg)
}

// priorKey names the prior artifact: the preset's name, seed and a digest
// of every field, like the victims' keys.
func priorKey(p eval.Preset) string {
	return fmt.Sprintf("prior_%s_seed%d_%s.weights", p.Name, p.Seed, digestJSON(p)[:16])
}

// cell is one closed-loop grid point: its identity plus the timing the
// spec gave it.
type cell struct {
	id           eval.CellID
	duration, dt float64
	// want, when set, is the result the workload's own run produced; the
	// attribution replay must reproduce it.
	want *sim.Result
}

// specCells expands a matrix spec into its cells.
func specCells(s exp.Spec) ([]cell, error) {
	ids, err := s.CellIDs()
	if err != nil {
		return nil, err
	}
	out := make([]cell, len(ids))
	for i, id := range ids {
		out[i] = cell{id: id, duration: s.Matrix.Duration, dt: s.Matrix.DT}
	}
	return out, nil
}

// specsCells expands matrix specs into their cells, in order.
func specsCells(specs []exp.Spec) ([]cell, error) {
	var out []cell
	for _, s := range specs {
		cs, err := specCells(s)
		if err != nil {
			return nil, err
		}
		out = append(out, cs...)
	}
	return out, nil
}

// config builds the pipeline config of one cell the way the grid runner
// does (eval's runMatrixCell), with fresh attacker and defense state.
// DiffPIR restores through the bench's loaded prior, which is the same
// trained model the registry's factory would train.
func (b *bench) config(reg *regress.Regressor, c cell) (pipeline.Config, error) {
	sc, ok := exp.LookupScenario(c.id.Scenario)
	if !ok {
		return pipeline.Config{}, fmt.Errorf("unknown scenario %q", c.id.Scenario)
	}
	at, ok := exp.LookupAttack(c.id.Attack)
	if !ok {
		return pipeline.Config{}, fmt.Errorf("unknown attack %q", c.id.Attack)
	}
	df, ok := exp.LookupDefense(c.id.Defense)
	if !ok {
		return pipeline.Config{}, fmt.Errorf("unknown defense %q", c.id.Defense)
	}
	base := pipeline.DefaultConfig(reg)
	base.Drive = b.env.DriveCfg
	cfg := sc.Apply(base)
	if c.duration > 0 {
		cfg.Duration = c.duration
	}
	if c.dt > 0 {
		cfg.DT = c.dt
	}
	cfg.Seed = c.id.Seed
	if at.Runtime != nil {
		cfg.Attacker = at.Runtime(b.env, reg, c.id.Seed+1)
	}
	switch {
	case df.Name == "DiffPIR" && b.prior != nil:
		dc := defense.DefaultDiffPIRConfig()
		dc.Steps = b.env.Preset.DiffPIRSteps
		dc.Seed = c.id.Seed + 2
		cfg.Defense = &defense.DiffPIRDefense{Model: b.prior.Clone(), Cfg: dc}
	case df.New != nil:
		cfg.Defense = df.New(b.env, c.id.Seed+2)
	}
	return cfg, nil
}

// attribute replays cells until the deadline (at least minAttributed
// frames) twice each: untraced through pipeline.Run, then through the
// traced replica. The two results must be DeepEqual, and equal to the
// workload's own result when it recorded one. From the spans it fills
// the frame, stage, layer and trace-overhead metrics.
func (b *bench) attribute(cells []cell, deadline time.Time, out *result) error {
	if len(cells) == 0 {
		return fmt.Errorf("no cells to attribute")
	}
	reg := b.env.Reg.Clone()
	var frameID int64
	nextID := func() int64 { frameID++; return frameID }
	var plain, traced time.Duration
	var frames int
	var allocBytes uint64
	var ms runtime.MemStats
	frameMS := map[string][]float64{} // traced frame times by §VI metric
	stride := spreadStride(len(cells))
	for i := 0; i < len(cells) && (i == 0 || time.Now().Before(deadline) || frames < minAttributed); i++ {
		c := cells[i*stride%len(cells)]
		cfg, err := b.config(reg, c)
		if err != nil {
			return err
		}
		runtime.ReadMemStats(&ms)
		alloc0 := ms.TotalAlloc
		t0 := time.Now()
		want := pipeline.Run(cfg)
		plain += time.Since(t0)
		runtime.ReadMemStats(&ms)
		allocBytes += ms.TotalAlloc - alloc0

		if cfg, err = b.config(reg, c); err != nil {
			return err
		}
		mark := b.tr.mark()
		t0 = time.Now()
		got := tracedRun(cfg, cellSpans(c.id), b.tr, nextID)
		traced += time.Since(t0)
		frames += len(got.Times)
		pair := sec6Metric(c.id.Attack, c.id.Defense)
		frameMS[pair] = append(frameMS[pair], b.tr.durations(mark, spanFrame)...)

		out.attempted++
		if !reflect.DeepEqual(got, want) || (c.want != nil && !reflect.DeepEqual(want, *c.want)) {
			out.failed++
			b.log("FAIL replica: cell %d (%s / %s / %s) does not reproduce pipeline.Run",
				c.id.Index, c.id.Scenario, c.id.Attack, c.id.Defense)
		}
	}
	if frames == 0 {
		return fmt.Errorf("attribution ran no frames")
	}
	lt := b.tr.layers()
	perFrame := func(d time.Duration) float64 { return d.Seconds() * 1e3 / float64(frames) }
	get := func(name string) *layerTime {
		if l := lt[name]; l != nil {
			return l
		}
		return &layerTime{}
	}
	frame := get(spanFrame)
	m := out.metrics
	m["pipeline.frames"] = float64(frames)
	m["pipeline.frame_ms"] = perFrame(frame.total)
	m["pipeline.alloc_kb_per_frame"] = float64(allocBytes) / 1024 / float64(frames)
	m["trace.overhead_pct"] = 100 * (traced.Seconds()/plain.Seconds() - 1)
	m["scene.render_ms"] = perFrame(get(spanRender).self)
	m["pipeline.filter_ms"] = perFrame(get(spanFilter).self)
	m["regress.predict_ms"] = perFrame(get(spanPredict).total)
	m["sim.control_us"] = 1e3 * perFrame(get(spanControl).self)
	// Attacks and defenses per call, not per frame: each runs only in
	// its own cells.
	for _, name := range stageKinds {
		m[name+"_ms"] = 0
		if l := get(name); l.calls > 0 {
			m[name+"_ms"] = l.self.Seconds() * 1e3 / float64(l.calls)
		}
	}
	for _, name := range sec6Metrics() {
		m[name] = median(frameMS[name]) // 0 for a pair the workload does not run
	}
	var stageSelf time.Duration
	for name, l := range lt {
		if isFrameStage(name) {
			stageSelf += l.self
		}
	}
	m["trace.coverage_pct"] = 100 * stageSelf.Seconds() / frame.total.Seconds()
	flops := layerFlops(reg, b.env.DriveCfg.Size)
	for i, name := range netLayerNames {
		l := get(name)
		m[name+"_ms"] = perFrame(l.total)
		if f, ok := flops[i]; ok {
			m["tensor."+name[len("nn."):]+"_gflops"] = f * float64(l.calls) / float64(l.total.Nanoseconds())
		}
	}
	return nil
}

// spreadStride returns a step coprime to n near n/φ: visiting cells
// i·step mod n reaches every cell once, and a time-limited prefix of that
// order samples the whole cell list instead of its first configurations.
func spreadStride(n int) int {
	gcd := func(a, b int) int {
		for b != 0 {
			a, b = b, a%b
		}
		return a
	}
	s := max(int(float64(n)*0.618), 1)
	for gcd(s, n) != 1 {
		s++
	}
	return s
}

// minAttributed is the fewest frames the attribution replays, so the
// per-frame figures rest on enough frames on a slow host.
const minAttributed = 50

// layerFlops returns the multiply-add FLOPs of one forward of each GEMM
// layer of DistNet (keyed by layer index), from the layer shapes and the
// input side. Dividing by measured layer time gives a lower bound on the
// GEMM rate, since the layer time also covers lowering and bias.
func layerFlops(reg *regress.Regressor, size int) map[int]float64 {
	out := map[int]float64{}
	h := size
	for i, l := range reg.Net.Layers() {
		switch l := l.(type) {
		case *nn.Conv2D:
			oh := (h+2*l.Pad-l.K)/l.Stride + 1
			out[i] = 2 * float64(oh*oh) * float64(l.InC*l.K*l.K) * float64(l.OutC)
			h = oh
		case *nn.Linear:
			out[i] = 2 * float64(l.In) * float64(l.Out)
		}
	}
	return out
}

// calibrate times a fixed pure-Go work unit: a witness of host speed at
// the start and end of a run that no change to the repository can move.
// It sweeps a 256 KB buffer with a load and a store per element: on a
// shared host, the phases that slow the workloads down slow such sweeps
// by up to 60 %, while a loop that stays in registers barely notices them.
func calibrate() float64 {
	buf := make([]float32, 64<<10)
	t0 := time.Now()
	var s float32
	for r := 0; r < 64; r++ {
		for i := range buf {
			s += buf[i]
			buf[i] = s * 0.5
		}
	}
	calibSink = float64(s)
	return time.Since(t0).Seconds() * 1e3
}

var calibSink float64
