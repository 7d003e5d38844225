package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"time"

	"repro/internal/eval"
	"repro/internal/exp"
	"repro/internal/serve"
	"repro/internal/xrand"
)

// The serve-mixed traffic: serveClients closed-loop clients, each sending
// its next request only once the previous reply has arrived (as `run
// -remote` and dispatch callers do). Every coldEvery-th request of a
// client is a miss: a spec from the client's own share of serveCold cold
// specs, whose cache entry the client evicts after each reply, so it
// computes again next time. Every other request draws one of serveHot hot
// specs by a seeded Zipf(zipfS) law; the hot specs are computed before the
// timed phase, so those requests are hits. The clients move in rounds of
// coldEvery requests: all their hits, then all their misses. One request
// in ten missing puts the p50 inside the hits and the p95 in the middle of
// the misses, not on the boundary between them.
const (
	serveClients = 2
	serveHot     = 16
	serveCold    = 8
	coldEvery    = 10
	zipfS        = 1.1
)

var (
	serveScenarios = []string{"highway-cruise", "gentle-brake", "hard-brake", "stop-and-go",
		"cut-in", "night-brake", "fog-brake", "rain-cruise"}
	serveAttacks  = [][]string{{"None", "FGSM"}, {"None", "CAP-Attack"}, {"FGSM", "CAP-Attack"}}
	serveDefenses = [][]string{{"None", "Median Blurring"}, {"Bit Depth", "Randomization"},
		{"None", "Bit Depth"}, {"Median Blurring", "Randomization"}}
)

// hotSpec is hot spec i of the request mix: 4 cells of 20 frames.
func hotSpec(seed int64, i int, scale float64) exp.Spec {
	return matrixSpec(
		[]string{serveScenarios[i%len(serveScenarios)]},
		serveAttacks[(i/len(serveScenarios))%len(serveAttacks)],
		serveDefenses[(i/(len(serveScenarios)*len(serveAttacks)))%len(serveDefenses)],
		1.0*scale, seed*1_000_003+500_009+int64(i)*7_919)
}

// coldSpec is cold spec j: 4 cells of 20 frames with the same attacks and
// defenses for every j, so the misses cost about the same.
func coldSpec(seed int64, j int, scale float64) exp.Spec {
	return matrixSpec(
		[]string{serveScenarios[j%len(serveScenarios)]},
		[]string{"None", "FGSM"}, []string{"None", "Median Blurring"},
		1.0*scale, seed*1_000_003+700_001+int64(j)*7_919)
}

// zipfStream draws hot spec indices: rank k is drawn with probability
// proportional to 1/(k+1)^s, and ranks map to specs through a permutation
// shared by every client of one seed, so clients agree on the popular
// specs but draw independent streams.
type zipfStream struct {
	rng  *xrand.RNG
	cdf  []float64
	perm []int
}

func newZipfStream(seed int64, client, n int, s float64) *zipfStream {
	cdf := make([]float64, n)
	var sum float64
	for k := range cdf {
		sum += 1 / math.Pow(float64(k+1), s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return &zipfStream{
		rng:  xrand.New(seed*7_919 + int64(client) + 1),
		cdf:  cdf,
		perm: xrand.New(seed).Perm(n),
	}
}

func (z *zipfStream) next() int {
	k := sort.SearchFloat64s(z.cdf, z.rng.Float64())
	if k >= len(z.cdf) {
		k = len(z.cdf) - 1
	}
	return z.perm[k]
}

// servedSpec is one spec of the request mix, encoded once.
type servedSpec struct {
	name string // digest key: spec/hot/<i> or spec/cold/<j>
	spec exp.Spec
	json []byte
	key  string // canonical spec hash: the result cache's key
}

func newServedSpec(name string, s exp.Spec) (servedSpec, error) {
	data, err := json.Marshal(s)
	if err != nil {
		return servedSpec{}, err
	}
	key, err := exp.SpecHash(s)
	if err != nil {
		return servedSpec{}, err
	}
	return servedSpec{name: name, spec: s, json: data, key: key}, nil
}

// requestMix returns the hot and the cold specs of one seed.
func requestMix(seed int64, scale float64) (hot, cold []servedSpec, err error) {
	for i := 0; i < serveHot; i++ {
		s, err := newServedSpec(fmt.Sprintf("spec/hot/%d", i), hotSpec(seed, i, scale))
		if err != nil {
			return nil, nil, err
		}
		hot = append(hot, s)
	}
	for j := 0; j < serveCold; j++ {
		s, err := newServedSpec(fmt.Sprintf("spec/cold/%d", j), coldSpec(seed, j, scale))
		if err != nil {
			return nil, nil, err
		}
		cold = append(cold, s)
	}
	return hot, cold, nil
}

// daemon is the serve-mixed server: built and warmed during set-up, on a
// disk result cache in a fresh directory under the workdir; it listens
// only in the measured phase.
type daemon struct {
	srv  *serve.Server
	dir  string // the disk cache's directory, where cold entries are evicted
	stop context.CancelFunc
	env  *eval.Env // the environment its runner built; set by Warm

	rec serveRecord // traced runs only
}

// startDaemon builds the daemon and runs its Warm, which builds the
// runner's environment from the artifact store, as `advrepro serve
// -artifacts DIR -warm quick` does. The runner is an Experiment over the
// bench's preset with one eval worker per flight, like the default runner
// factory with -workers 1: two clients keep at most two flights, so at
// most two cells compute at once. With a tracer the cache and the runner
// are wrapped to record spans.
func startDaemon(ctx context.Context, o options, store *eval.ModelStore, tr *tracer) (*daemon, error) {
	dir, err := os.MkdirTemp(o.workdir, "serve-cache-")
	if err != nil {
		return nil, err
	}
	disk, err := serve.NewDiskCache(dir, nil)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	d := &daemon{dir: dir}
	var cache exp.ResultCache = disk
	if tr != nil {
		cache = &tracedCache{c: disk, tr: tr, rec: &d.rec}
	}
	factory := func(ctx context.Context, _ string, logf func(string, ...any)) (serve.Runner, error) {
		x, err := exp.New(ctx, exp.WithPreset(o.preset), exp.WithArtifacts(store), exp.WithWorkers(1), exp.WithLogger(logf))
		if err != nil {
			return nil, err
		}
		d.env = x.Env()
		if tr == nil {
			return x, nil
		}
		return &tracedRunner{x: x, tr: tr, rec: &d.rec}, nil
	}
	srvCtx, stop := context.WithCancel(ctx)
	d.srv, d.stop = serve.New(srvCtx, serve.Config{Cache: cache, NewRunner: factory}), stop
	if err := d.srv.Warm(ctx, "quick"); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

func (d *daemon) close() {
	d.stop()
	os.RemoveAll(d.dir)
}

// evict removes a spec's entry from the disk cache, so its next request
// misses.
func (d *daemon) evict(key string) error {
	if err := os.Remove(filepath.Join(d.dir, key+".json")); err != nil {
		return fmt.Errorf("evict cold spec: %w", err)
	}
	return nil
}

// request is one served request as its client saw it.
type request struct {
	key string
	ms  float64
	hit bool
}

// serveRun is one timed serving phase.
type serveRun struct {
	reqs   []request
	wall   time.Duration
	health healthz
	missed []exp.Spec // specs of the replies that were not hits, prefill included
}

// healthz is the part of the daemon's /healthz reply the benchmark reads.
type healthz struct {
	Computes int64 `json:"computes"`
	Hits     int64 `json:"hits"`
	Rejected int64 `json:"rejected"`
}

// runServe puts the daemon on a loopback listener, computes the hot specs
// (untimed: two clients, half the specs each), then drives the timed
// closed-loop traffic until the deadline and at least minSamples requests.
// It stops the listener before returning.
func (b *bench) runServe(ctx context.Context, d time.Duration, out *result) (*serveRun, error) {
	hot, cold, err := requestMix(b.opts.seed, b.opts.scale)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: b.daemon.srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	transport := &http.Transport{MaxConnsPerHost: serveClients, MaxIdleConnsPerHost: serveClients}
	client := &http.Client{Transport: transport}
	base := "http://" + ln.Addr().String()
	defer func() {
		transport.CloseIdleConnections()
		hs.Shutdown(context.Background())
		<-served
	}()

	run := &serveRun{}
	var (
		mu    sync.Mutex
		first = map[string]*serve.ResultPayload{}
	)
	// do sends one request and checks its reply: the CSV against its
	// digest, the payload against the first one for the spec, and the
	// hit or miss against what the request was meant to be.
	do := func(s servedSpec, wantHit bool) (request, error) {
		r0 := time.Now()
		payload, hit, err := serve.StreamSpec(ctx, base, s.json, serve.StreamConfig{Client: client})
		ms := time.Since(r0).Seconds() * 1e3
		if err != nil {
			return request{}, err
		}
		if hit != wantHit {
			return request{}, fmt.Errorf("%s: served as hit=%v, want hit=%v", s.name, hit, wantHit)
		}
		ok := b.check.check(s.name, digestBytes([]byte(payload.CSV)))
		mu.Lock()
		if p, seen := first[s.key]; seen {
			ok = ok && reflect.DeepEqual(p, payload)
		} else {
			first[s.key] = payload
		}
		if !hit {
			run.missed = append(run.missed, s.spec)
		}
		if !ok {
			out.failed++
		}
		mu.Unlock()
		if !ok {
			b.log("FAIL serve request for %s (hit=%v): payload differs from the first reply or the digest", s.name, hit)
		}
		return request{key: s.key, ms: ms, hit: hit}, nil
	}

	// Prefill: each client computes every other hot spec.
	errs := make([]error, serveClients)
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(hot) && errs[c] == nil; i += serveClients {
				_, errs[c] = do(hot[i], false)
			}
		}(c)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, fmt.Errorf("prefill: %w", err)
	}
	prefilled := len(run.missed)
	b.daemon.rec.reset() // the layer records cover the timed phase only

	// phase sends requests [from, to) of every client at once and waits
	// for all of them.
	zipf := make([]*zipfStream, serveClients)
	for c := range zipf {
		zipf[c] = newZipfStream(b.opts.seed, c, len(hot), zipfS)
	}
	phase := func(from, to int) error {
		for c := 0; c < serveClients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for n := from; n < to; n++ {
					s, isCold := clientSpec(hot, cold, zipf[c], c, n)
					r, err := do(s, !isCold)
					if err == nil && isCold {
						err = b.daemon.evict(s.key)
					}
					if err != nil {
						errs[c] = err
						return
					}
					mu.Lock()
					run.reqs = append(run.reqs, r)
					mu.Unlock()
				}
			}(c)
		}
		wg.Wait()
		return errors.Join(errs...)
	}
	// Rounds until the deadline and at least minSamples requests: every
	// client's hits, then every client's miss. Hits never wait behind a
	// computing miss for a CPU, so the hit latency measures the serving
	// path rather than the scheduler of a loaded host.
	deadline := time.Now().Add(d)
	t0 := time.Now()
	for n := 0; len(run.reqs) < minSamples || time.Now().Before(deadline); n += coldEvery {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := phase(n, n+coldEvery-1); err != nil {
			return nil, err
		}
		if err := phase(n+coldEvery-1, n+coldEvery); err != nil {
			return nil, err
		}
	}
	run.wall = time.Since(t0)
	out.attempted += prefilled + len(run.reqs)

	resp, err := client.Get(base + "/healthz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&run.health); err != nil {
		return nil, fmt.Errorf("healthz: %w", err)
	}
	return run, nil
}

// clientSpec is request n of client c: every coldEvery-th request is the
// client's next cold spec (clients own alternate cold specs, so no two
// clients ever wait on one flight), the others a Zipf-drawn hot spec.
func clientSpec(hot, cold []servedSpec, z *zipfStream, c, n int) (servedSpec, bool) {
	if n%coldEvery != coldEvery-1 {
		return hot[z.next()], false
	}
	own := len(cold) / serveClients
	return cold[c+serveClients*((n/coldEvery)%own)], true
}

func measureServe(ctx context.Context, b *bench, d time.Duration, out *result) error {
	run, err := b.runServe(ctx, d, out)
	if err != nil {
		return err
	}
	var all, hits, misses []float64
	for _, r := range run.reqs {
		all = append(all, r.ms)
		if r.hit {
			hits = append(hits, r.ms)
		} else {
			misses = append(misses, r.ms)
		}
	}
	out.metrics["ops_per_s"] = float64(len(run.reqs)) / run.wall.Seconds()
	b.log("%d requests in %.1f s: %d hits (%.1f%%, p50 %.3f ms), %d misses (%.1f%%, p50 %.1f ms); daemon: %d computes, %d hits",
		len(all), run.wall.Seconds(), len(hits), 100*float64(len(hits))/float64(len(all)), median(hits),
		len(misses), 100*float64(len(misses))/float64(len(all)), median(misses), run.health.Computes, run.health.Hits)
	return latencyMetrics(all, out)
}

func tracedServe(ctx context.Context, b *bench, d time.Duration, out *result) ([]cell, error) {
	run, err := b.runServe(ctx, d, out)
	if err != nil {
		return nil, err
	}
	var hits int
	missMS := map[string][]float64{}
	for _, r := range run.reqs {
		if r.hit {
			hits++
		} else {
			missMS[r.key] = append(missMS[r.key], r.ms)
		}
	}
	rec := &b.daemon.rec
	rec.mu.Lock()
	defer rec.mu.Unlock()
	// Timed misses are cold specs, which one client requests one at a
	// time: the k-th miss of a key is the k-th runner call for it.
	var overhead, runner []float64
	for key, runs := range rec.runnerMS {
		runner = append(runner, runs...)
		for k, ms := range missMS[key] {
			if k < len(runs) {
				overhead = append(overhead, ms-runs[k])
			}
		}
	}
	m := out.metrics
	m["serve.hits"] = float64(hits)
	m["serve.computes"] = float64(run.health.Computes)
	m["serve.joins"] = float64(int64(len(run.missed)) - run.health.Computes)
	m["serve.rejected"] = float64(run.health.Rejected)
	m["serve.hit_ratio"] = float64(hits) / float64(len(run.reqs))
	m["serve.cache_get_us_p50"] = 1e3 * median(rec.getMS)
	m["serve.cache_get_us_p95"] = 1e3 * b.tail(rec.getMS, 0.95, "serve.cache_get_us_p95")
	m["serve.cache_put_ms_p50"] = median(rec.putMS)
	m["serve.hit_payload_kb"] = median(rec.hitKB)
	m["serve.runner_ms_p50"] = median(runner)
	m["serve.miss_overhead_ms_p50"] = median(overhead)

	cells, err := specsCells(run.missed)
	if err != nil {
		return nil, err
	}
	return cells, b.evalMetrics(rec.eval, run.missed, out)
}

// serveRecord is what the traced cache and runner recorded.
type serveRecord struct {
	mu       sync.Mutex
	getMS    []float64
	putMS    []float64
	hitKB    []float64            // sizes of the payloads Get found
	runnerMS map[string][]float64 // by spec key, in run order
	eval     evalStats
}

func (r *serveRecord) reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.getMS, r.putMS, r.hitKB, r.runnerMS, r.eval = nil, nil, nil, nil, evalStats{}
}

// tracedCache records a span around each result-cache call.
type tracedCache struct {
	c   exp.ResultCache
	tr  *tracer
	rec *serveRecord
}

func (t *tracedCache) Get(key string) ([]byte, bool) {
	s := t.tr.begin("serve.cache_get", 0, -1)
	v, ok := t.c.Get(key)
	ms := t.tr.end(s)
	t.rec.mu.Lock()
	t.rec.getMS = append(t.rec.getMS, ms)
	if ok {
		t.rec.hitKB = append(t.rec.hitKB, float64(len(v))/1024)
	}
	t.rec.mu.Unlock()
	return v, ok
}

func (t *tracedCache) Put(key string, val []byte) {
	s := t.tr.begin("serve.cache_put", 0, -1)
	t.c.Put(key, val)
	ms := t.tr.end(s)
	t.rec.mu.Lock()
	t.rec.putMS = append(t.rec.putMS, ms)
	t.rec.mu.Unlock()
}

// tracedRunner records a span around each computed spec and one per cell
// through the run's observer.
type tracedRunner struct {
	x   *exp.Experiment
	tr  *tracer
	rec *serveRecord
}

func (t *tracedRunner) RunObserved(ctx context.Context, s exp.Spec, obs exp.Observer) (*exp.Result, error) {
	key, err := exp.SpecHash(s)
	if err != nil {
		return nil, err
	}
	sp := t.tr.begin("serve.runner", 0, -1)
	timer := newCellTimer(t.tr, sp)
	res, err := t.x.RunObserved(ctx, s, exp.MultiObserver(obs, timer))
	ms := t.tr.end(sp)
	t.rec.mu.Lock()
	if t.rec.runnerMS == nil {
		t.rec.runnerMS = map[string][]float64{}
	}
	t.rec.runnerMS[key] = append(t.rec.runnerMS[key], ms)
	timer.addTo(&t.rec.eval, 1)
	t.rec.mu.Unlock()
	return res, err
}

// referenceServe digests the report of every spec of the request mix,
// computed without the daemon: a served miss must return the same CSV.
func referenceServe(ctx context.Context, b *bench) (digests, error) {
	x, err := exp.New(ctx, exp.WithEnv(b.env), exp.WithWorkers(gridWorkers))
	if err != nil {
		return nil, err
	}
	hot, cold, err := requestMix(b.opts.seed, b.opts.scale)
	if err != nil {
		return nil, err
	}
	d := digests{}
	for _, s := range append(hot, cold...) {
		res, err := x.Run(ctx, s.spec)
		if err != nil {
			return nil, err
		}
		d[s.name] = digestBytes([]byte(res.Matrix.CSV()))
	}
	return d, nil
}
