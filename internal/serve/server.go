package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/blob"
	"repro/internal/exp"
)

// Runner executes validated specs; *exp.Experiment is the production
// implementation. Tests substitute fakes to pin the serving semantics
// (dedup, disconnect, caching) without training victims.
type Runner interface {
	RunObserved(ctx context.Context, s exp.Spec, obs exp.Observer) (*exp.Result, error)
}

// RunnerFactory builds the Runner for one preset. The factory runs under
// the server's context (not a request's): a client disconnecting during
// victim training must not abort the build other requests will share.
// Build-time progress goes to logf.
type RunnerFactory func(ctx context.Context, preset string, logf func(format string, args ...any)) (Runner, error)

// Config configures a Server.
type Config struct {
	// Cache stores serialized result payloads by canonical spec hash.
	// Nil selects a BlobCache over a fresh blob.MemStore — never over
	// Store, or a client's PUT /store/<hash>.json would be served as a
	// result.
	Cache exp.ResultCache
	// ArtifactDir, when set, backs runner construction with a
	// trained-model artifact store (warm environment starts).
	ArtifactDir string
	// Workers caps each runner's worker pool (0 = GOMAXPROCS).
	Workers int
	// MaxRuns bounds how many flights may compute at once (0 =
	// unbounded). A request that would START a new flight beyond the
	// bound is refused with 503 + Retry-After; joining an existing
	// flight and cache hits are always served — they add no compute.
	MaxRuns int
	// Store backs the /store object endpoints the fleet dispatcher's
	// store checkpoint transport streams lane segments into. Nil selects
	// an in-memory store; point it at a blob.DirStore for durability
	// across daemon restarts.
	Store blob.ObjectStore
	// Logf receives server lifecycle logs (nil = silent).
	Logf func(format string, args ...any)
	// NewRunner overrides the runner factory (tests); nil builds real
	// Experiments via exp.New.
	NewRunner RunnerFactory
}

// BlobCache is the daemon's exp.ResultCache over a blob.ObjectStore: the
// payload of spec hash <key> is the object <key>.json. Over a DirStore
// (NewDiskCache) a restarted daemon answers repeat queries with the exact
// bytes the pre-restart compute produced. Entries are write-once:
// equal hashes denote bit-identical results, so the first published
// payload is already the only possible value. Keys that are not plain
// hashes miss, and an I/O error logs and degrades to a miss — never an
// error on the serving path.
type BlobCache struct {
	store blob.ObjectStore
	logf  func(format string, args ...any)
}

// NewDiskCache opens (creating if needed) a result cache persisted as
// <dir>/<key>.json. logf, when non-nil, receives I/O degradation notices.
func NewDiskCache(dir string, logf func(format string, args ...any)) (*BlobCache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: cache dir: %w", err)
	}
	return NewBlobCache(blob.NewDirStore(dir), logf), nil
}

// NewBlobCache returns a result cache over store. It must not be the
// daemon's /store backing, or client uploads would be served as results.
func NewBlobCache(store blob.ObjectStore, logf func(format string, args ...any)) *BlobCache {
	return &BlobCache{store: store, logf: logf}
}

// object maps a cache key to its blob key; false for keys that are not
// plausible spec hashes (real keys are hex SHA-256).
func (c *BlobCache) object(key string) (string, bool) {
	if len(key) > 128 || strings.Contains(key, "/") || !blob.ValidStoreKey(key) {
		return "", false
	}
	return key + ".json", true
}

// Get implements exp.ResultCache.
func (c *BlobCache) Get(key string) ([]byte, bool) {
	obj, ok := c.object(key)
	if !ok {
		return nil, false
	}
	data, err := c.store.Get(obj)
	if err != nil {
		if !errors.Is(err, blob.ErrNoObject) {
			c.log("serve: result cache read %s: %v", key, err)
		}
		return nil, false
	}
	return data, true
}

// Put implements exp.ResultCache.
func (c *BlobCache) Put(key string, val []byte) {
	obj, ok := c.object(key)
	if !ok {
		return
	}
	if _, err := c.store.Get(obj); err == nil {
		return // write-once: the entry can only ever hold these bytes
	}
	if err := c.store.Put(obj, val); err != nil {
		c.log("serve: result cache write %s: %v", key, err)
	}
}

// Len returns the number of cached results (diagnostics and tests).
func (c *BlobCache) Len() int {
	keys, err := c.store.List("")
	if err != nil {
		c.log("serve: result cache list: %v", err)
	}
	n := 0
	for _, k := range keys {
		if strings.HasSuffix(k, ".json") && !strings.Contains(k, "/") {
			n++
		}
	}
	return n
}

func (c *BlobCache) log(format string, args ...any) {
	if c.logf != nil {
		c.logf(format, args...)
	}
}

// Server is the advrepro daemon: it validates posted specs, deduplicates
// concurrent submissions single-flight by canonical spec hash, streams
// Observer events to every subscriber as NDJSON, and serves repeat
// queries from the content-addressed result cache with zero compute.
type Server struct {
	ctx   context.Context
	cfg   Config
	cache exp.ResultCache
	store blob.ObjectStore

	mu      sync.Mutex
	flights map[string]*flight
	runners map[string]*runnerFuture

	computes atomic.Int64
	hits     atomic.Int64
	rejected atomic.Int64
}

// New builds a Server. ctx scopes every computation and runner build:
// cancelling it shuts the serving core down.
func New(ctx context.Context, cfg Config) *Server {
	if cfg.Cache == nil {
		cfg.Cache = NewBlobCache(blob.NewMemStore(), nil)
	}
	if cfg.Store == nil {
		cfg.Store = blob.NewMemStore()
	}
	if cfg.NewRunner == nil {
		cfg.NewRunner = experimentFactory(cfg)
	}
	return &Server{
		ctx:     ctx,
		cfg:     cfg,
		cache:   cfg.Cache,
		store:   cfg.Store,
		flights: map[string]*flight{},
		runners: map[string]*runnerFuture{},
	}
}

// experimentFactory is the production RunnerFactory: a real Experiment
// per preset, artifact-store-backed when configured.
func experimentFactory(cfg Config) RunnerFactory {
	return func(ctx context.Context, preset string, logf func(format string, args ...any)) (Runner, error) {
		opts := []exp.Option{
			exp.WithPresetName(preset),
			exp.WithLogger(logf),
			exp.WithWorkers(cfg.Workers),
		}
		if cfg.ArtifactDir != "" {
			opts = append(opts, exp.WithArtifactDir(cfg.ArtifactDir))
		}
		return exp.New(ctx, opts...)
	}
}

// Stats reports serving counters: completed computations, cache hits,
// and currently in-flight runs.
func (s *Server) Stats() (computes, hits int64, flights int) {
	s.mu.Lock()
	flights = len(s.flights)
	s.mu.Unlock()
	return s.computes.Load(), s.hits.Load(), flights
}

// Warm builds the runner for a preset eagerly (datasets + victim
// training, or an artifact-store warm start), so the first /run request
// pays no construction cost.
func (s *Server) Warm(ctx context.Context, preset string) error {
	p, err := exp.PresetByName(preset)
	if err != nil {
		return err
	}
	_, err = s.runner(ctx, p.Name, nil)
	return err
}

// Handler returns the daemon's HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /run", s.handleRun)
	mux.HandleFunc("POST /validate", s.handleValidate)
	mux.HandleFunc("GET /results/{key}", s.handleResult)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("PUT /store/{key...}", s.handleStorePut)
	mux.HandleFunc("GET /store/{key...}", s.handleStoreGet)
	mux.HandleFunc("DELETE /store/{key...}", s.handleStoreDelete)
	mux.HandleFunc("GET /storelist", s.handleStoreList)
	return mux
}

// readSpec decodes and validates the request body as a Spec, returning
// the spec and its canonical hash.
func readSpec(w http.ResponseWriter, r *http.Request) (exp.Spec, string, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		http.Error(w, fmt.Sprintf("read spec: %v", err), http.StatusBadRequest)
		return exp.Spec{}, "", false
	}
	spec, err := exp.ParseSpec(body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return exp.Spec{}, "", false
	}
	key, err := exp.SpecHash(spec)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return exp.Spec{}, "", false
	}
	return spec, key, true
}

// handleRun is the core endpoint: POST a spec, stream the run as NDJSON.
// A cached result streams just the terminal section (cache marker +
// payload); otherwise the request joins or starts the single flight for
// the spec's hash and streams its event broadcast.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	spec, key, ok := readSpec(w, r)
	if !ok {
		return
	}

	fl, cached, rejected := s.joinFlight(key, spec)
	if rejected {
		s.rejected.Add(1)
		w.Header().Set("Retry-After", "5")
		http.Error(w, fmt.Sprintf("serve: at capacity (%d runs in flight, -maxruns %d); retry later",
			s.cfg.MaxRuns, s.cfg.MaxRuns), http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Spec-Hash", key)
	if cached != nil {
		s.hits.Add(1)
		writeLine(w, cacheLine(key, true))
		writeLine(w, cached)
		return
	}

	sub := fl.subscribe()
	defer fl.unsubscribe(sub)
	for {
		line, more, err := sub.next(r.Context())
		if err != nil || !more {
			return // client gone, or stream complete
		}
		writeLine(w, line)
	}
}

// writeLine emits one NDJSON line and flushes it to the client so
// progress streams in real time.
func writeLine(w http.ResponseWriter, line []byte) {
	w.Write(line)
	io.WriteString(w, "\n")
	if f, ok := w.(http.Flusher); ok {
		f.Flush()
	}
}

// joinFlight returns either the cached payload for key, or the flight
// computing it — joining the in-flight computation if one exists,
// starting one otherwise. Cache lookup and flight lookup happen under
// one mutex hold, and the compute path inserts into the cache and
// removes the flight under the same mutex, so every request lands on
// exactly one of the two: there is no window where a finished result is
// neither cached nor in flight. With MaxRuns set, a request that would
// have to start a NEW flight past the bound is rejected instead (cache
// hits and joins always succeed: they cost no compute).
func (s *Server) joinFlight(key string, spec exp.Spec) (fl *flight, cached []byte, rejected bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if payload, ok := s.cache.Get(key); ok {
		return nil, payload, false
	}
	if fl, ok := s.flights[key]; ok {
		return fl, nil, false
	}
	if s.cfg.MaxRuns > 0 && len(s.flights) >= s.cfg.MaxRuns {
		return nil, nil, true
	}
	fctx, cancel := context.WithCancel(s.ctx)
	fl = newFlight(key, cancel)
	s.flights[key] = fl
	go s.compute(fctx, fl, spec)
	return fl, nil, false
}

// compute runs one flight to completion: resolve the preset's runner
// (shared, built under the server context), execute the spec with an
// observer broadcasting every event to the flight's subscribers, and
// finish with either the terminal result section (cached) or an error
// line (never cached — a failed or client-abandoned run cannot poison
// the cache).
func (s *Server) compute(fctx context.Context, fl *flight, spec exp.Spec) {
	res, err := s.computeResult(fctx, fl, spec)
	if err != nil {
		s.logf("serve: run %s failed: %v", fl.key[:12], err)
		s.dropFlight(fl.key)
		fl.finish(errorLine(err))
		return
	}
	payload, err := EncodeResult(fl.key, res)
	if err != nil {
		s.dropFlight(fl.key)
		fl.finish(errorLine(err))
		return
	}
	s.computes.Add(1)
	s.mu.Lock()
	s.cache.Put(fl.key, payload)
	delete(s.flights, fl.key)
	s.mu.Unlock()
	fl.finish(cacheLine(fl.key, false), payload)
}

// computeResult resolves the runner and executes the spec under the
// flight context.
func (s *Server) computeResult(fctx context.Context, fl *flight, spec exp.Spec) (*exp.Result, error) {
	p, err := exp.PresetByName(spec.Preset)
	if err != nil {
		return nil, err
	}
	// Runner build logs (dataset generation, victim training or warm
	// start) stream to this flight's subscribers while they wait.
	runner, err := s.runner(fctx, p.Name, func(format string, args ...any) {
		fl.broadcast(mustMarshal(WireEvent{Event: "log", Msg: fmt.Sprintf(format, args...)}))
	})
	if err != nil {
		return nil, err
	}
	// Grid kinds stream full checkpoint records on every cell-done, so
	// remote clients can maintain a resumable local lane file.
	g, err := specGrid(spec)
	if err != nil {
		return nil, err
	}
	obs := exp.ObserverFunc(func(ev exp.Event) { fl.broadcast(encodeEventLine(ev, g)) })
	return runner.RunObserved(fctx, spec, obs)
}

// dropFlight removes a flight from the map (failed runs only; successful
// runs are removed by compute under the same lock as the cache insert).
func (s *Server) dropFlight(key string) {
	s.mu.Lock()
	delete(s.flights, key)
	s.mu.Unlock()
}

// runnerFuture is the once-per-preset runner build. The log sink is
// detachable: the flight that initiated the build streams its progress,
// and detaches once the build resolves.
type runnerFuture struct {
	done   chan struct{}
	runner Runner
	err    error

	mu   sync.Mutex
	sink func(format string, args ...any)
}

func (rf *runnerFuture) logf(format string, args ...any) {
	rf.mu.Lock()
	sink := rf.sink
	rf.mu.Unlock()
	if sink != nil {
		sink(format, args...)
	}
}

func (rf *runnerFuture) detach() {
	rf.mu.Lock()
	rf.sink = nil
	rf.mu.Unlock()
}

// runner resolves the shared Runner for a preset, building it on first
// use under the SERVER context — a request vanishing mid-build must not
// abort a build other requests will reuse. The waiter respects its own
// ctx: it can give up while the build continues for the next caller. A
// failed build is forgotten so a later request can retry.
func (s *Server) runner(ctx context.Context, preset string, sink func(format string, args ...any)) (Runner, error) {
	s.mu.Lock()
	rf, ok := s.runners[preset]
	if !ok {
		rf = &runnerFuture{done: make(chan struct{}), sink: sink}
		s.runners[preset] = rf
		// Build logs tee to the daemon log (operators watch training and
		// warm starts there) and to the initiating flight's subscribers.
		buildLogf := func(format string, args ...any) {
			s.logf(format, args...)
			rf.logf(format, args...)
		}
		go func() {
			s.logf("serve: building %s runner", preset)
			rf.runner, rf.err = s.cfg.NewRunner(s.ctx, preset, buildLogf)
			rf.detach()
			if rf.err != nil {
				s.mu.Lock()
				delete(s.runners, preset)
				s.mu.Unlock()
			}
			close(rf.done)
		}()
	}
	s.mu.Unlock()

	select {
	case <-rf.done:
		return rf.runner, rf.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// handleStorePut stores one object under a validated key — a lane
// segment streamed off-machine by the dispatcher's store transport.
func (s *Server) handleStorePut(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !blob.ValidStoreKey(key) {
		http.Error(w, fmt.Sprintf("bad object key %q", key), http.StatusBadRequest)
		return
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 32<<20))
	if err != nil {
		http.Error(w, fmt.Sprintf("read object: %v", err), http.StatusBadRequest)
		return
	}
	if err := s.store.Put(key, data); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleStoreGet serves one stored object.
func (s *Server) handleStoreGet(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !blob.ValidStoreKey(key) {
		http.Error(w, fmt.Sprintf("bad object key %q", key), http.StatusBadRequest)
		return
	}
	data, err := s.store.Get(key)
	if err != nil {
		if errors.Is(err, blob.ErrNoObject) {
			http.Error(w, "no such object", http.StatusNotFound)
			return
		}
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(data)
}

// handleStoreDelete removes one stored object (idempotent).
func (s *Server) handleStoreDelete(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !blob.ValidStoreKey(key) {
		http.Error(w, fmt.Sprintf("bad object key %q", key), http.StatusBadRequest)
		return
	}
	if err := s.store.Delete(key); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleStoreList enumerates stored keys under ?prefix= as a JSON array.
func (s *Server) handleStoreList(w http.ResponseWriter, r *http.Request) {
	keys, err := s.store.List(r.URL.Query().Get("prefix"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if keys == nil {
		keys = []string{}
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(mustMarshal(keys), '\n'))
}

// handleValidate checks a spec without running it, returning its
// canonical hash and whether the result is already cached.
func (s *Server) handleValidate(w http.ResponseWriter, r *http.Request) {
	_, key, ok := readSpec(w, r)
	if !ok {
		return
	}
	_, hit := s.cache.Get(key)
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(mustMarshal(struct {
		Key    string `json:"key"`
		Cached bool   `json:"cached"`
	}{key, hit}), '\n'))
}

// handleResult serves a cached result payload by content address.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	payload, ok := s.cache.Get(key)
	if !ok {
		http.Error(w, "no cached result for key", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(payload, '\n'))
}

// handleHealthz reports liveness, serving counters and load state: the
// in-flight run count against the -maxruns bound and how many requests
// have been shed, so a dispatcher (or an operator) can read back-pressure
// without probing /run.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	computes, hits, flights := s.Stats()
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(mustMarshal(struct {
		Status   string `json:"status"`
		Computes int64  `json:"computes"`
		Hits     int64  `json:"hits"`
		Flights  int    `json:"flights"`
		InFlight int    `json:"in_flight"`
		MaxRuns  int    `json:"max_runs"`
		Rejected int64  `json:"rejected"`
	}{"ok", computes, hits, flights, flights, s.cfg.MaxRuns, s.rejected.Load()}), '\n'))
}

// logf logs through the configured sink.
func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}
