// Package dispatch is the fault-tolerant fleet orchestrator for sweep
// grids: it fans shard specs out over pluggable worker transports
// (in-process pool, subprocess, HTTP daemon), monitors per-shard
// liveness through the cell event stream, and recovers from failure
// automatically — crashed shards re-dispatch with capped exponential
// backoff and resume from their surviving lane file, stragglers are
// hedged to a second worker with first-writer-wins dedup by cell index,
// and repeat offenders are quarantined so the sweep degrades gracefully
// down to one healthy worker. On completion the lane files pass the
// Grid.Merge coverage/seed verification, so the final report is
// byte-identical to an unsharded run no matter how many failures
// occurred along the way.
package dispatch

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/eval"
	"repro/internal/exp"
	"repro/internal/xrand"
)

// Worker is one dispatch target: a transport plus a stable name for
// logs, strikes and quarantine decisions.
type Worker struct {
	Name      string
	Transport Transport
}

// Config configures a dispatch run.
type Config struct {
	// Spec is the grid to execute (matrix or sweep kind). The
	// dispatcher owns the shard decomposition: any shard/num_shards/
	// jsonl/resume in the spec's sweep section is replaced per lane,
	// exactly as `advrepro run -shard i/n -jsonl f` overrides them.
	Spec exp.Spec
	// Workers are the dispatch targets (at least one).
	Workers []Worker
	// NumShards is the grid decomposition width (0 = len(Workers)).
	// More shards than workers gives finer-grained recovery units.
	NumShards int
	// Dir holds the per-shard lane files (shard_<s>_of_<n>.jsonl and
	// their _hedge twins). Created if missing.
	Dir string
	// Resume recovers a crashed dispatch session: surviving lane files
	// are validated against the grid and their cells are not re-run.
	// Without it, stale lane files are removed first. With a checkpoint
	// replica configured, lanes surviving only in the replica are
	// reconstructed locally first — resume works even when Dir is empty.
	Resume bool
	// Checkpoints is the off-machine lane replica (nil = local lane
	// files only). Every observed cell record is also published to it,
	// and lanes reconcile with the replica at resume and merge time.
	Checkpoints *StoreTransport
	// Heartbeat is the per-attempt liveness timeout: an attempt that
	// emits no event for this long is presumed hung, killed, and its
	// shard re-dispatched (default 2m).
	Heartbeat time.Duration
	// MaxAttempts bounds per-shard dispatch attempts before the run
	// fails (default 4).
	MaxAttempts int
	// BackoffBase/BackoffMax shape the capped exponential re-dispatch
	// backoff (defaults 250ms / 30s); jitter of ±50% is applied.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// HedgeAfter is the completed-shard fraction after which straggler
	// hedging arms (default 0.5); 1 or more disables hedging.
	HedgeAfter float64
	// HedgeFactor: a running shard is a straggler once its elapsed time
	// exceeds the median completed-shard duration times this factor
	// (default 2.0).
	HedgeFactor float64
	// MaxStrikes quarantines a worker after this many failed attempts,
	// unless it is the last healthy one (default 2).
	MaxStrikes int
	// Seed feeds the backoff jitter (default 1). The jitter never
	// affects results — only timing.
	Seed int64
	// Observer receives the merged progress stream: one run-start, a
	// deduplicated cell-done per grid cell (Done counts fresh cells),
	// cell-start/log pass-through, one run-done.
	Observer eval.Observer
	// Logf narrates dispatch decisions (retries, hedges, quarantines).
	Logf func(format string, args ...any)
}

// Report is the outcome of a dispatch run.
type Report struct {
	// Matrix is the merged, fully verified grid — bit-identical to an
	// unsharded run of the same spec.
	Matrix eval.MatrixReport
	// Text and CSV render Matrix exactly as `advrepro run` would.
	Text string
	CSV  string

	Shards      int      // shard count the grid was decomposed into
	Resumed     int      // cells recovered from lane files at startup
	Fetched     int      // cells recovered from the checkpoint replica
	Retries     int      // failed attempts that were re-dispatched
	Hedges      int      // straggler hedges launched
	Quarantined []string // workers benched for repeat failures
	Files       []string // lane files that contributed cells to the merge
	Transport   string   // "store" when lanes replicated through Checkpoints, else "fs"
}

func (c *Config) withDefaults() Config {
	cfg := *c
	if cfg.NumShards <= 0 {
		cfg.NumShards = len(cfg.Workers)
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = 2 * time.Minute
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 4
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 250 * time.Millisecond
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = 30 * time.Second
	}
	if cfg.HedgeAfter <= 0 {
		cfg.HedgeAfter = 0.5
	}
	if cfg.HedgeFactor <= 0 {
		cfg.HedgeFactor = 2.0
	}
	if cfg.MaxStrikes <= 0 {
		cfg.MaxStrikes = 2
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	return cfg
}

// shardState tracks one shard's recovery lifecycle.
type shardState struct {
	index     int
	cellIdx   []int // global grid indices owned by this shard
	lane      string
	hedgeLn   string
	attempts  int // failed attempts so far
	lastErr   error
	notBefore time.Time
	running   []*attempt
	hedged    bool
	complete  bool
	started   time.Time // first attempt launch
	duration  time.Duration
}

// workerState tracks one worker's health.
type workerState struct {
	w           Worker
	busy        bool
	strikes     int
	quarantined bool
}

// attempt is one transport execution of one shard.
type attempt struct {
	shard    *shardState
	worker   *workerState
	hedge    bool
	cancel   context.CancelFunc
	lastBeat time.Time // guarded by dispatcher.mu
	// superseded marks an attempt cancelled because its shard finished
	// elsewhere: its failure is expected and earns no strike.
	superseded bool
	// timedOut records a heartbeat kill for the failure message.
	timedOut bool
}

type attemptResult struct {
	a   *attempt
	err error
}

type dispatcher struct {
	cfg  Config
	grid eval.Grid

	mu      sync.Mutex
	cells   map[int]eval.MatrixCell
	fresh   int
	fatal   error
	shards  []*shardState
	workers []*workerState
	retries int
	hedges  int
	fetched int
	rng     *xrand.RNG
}

// Run executes the grid across the configured workers and returns the
// merged, verified report.
func Run(ctx context.Context, c Config) (*Report, error) {
	if len(c.Workers) == 0 {
		return nil, fmt.Errorf("dispatch: no workers configured")
	}
	if c.Dir == "" {
		return nil, fmt.Errorf("dispatch: lane directory required")
	}
	cfg := c.withDefaults()

	spec := cfg.Spec
	if spec.Kind == exp.KindMatrix {
		spec.Kind = exp.KindSweep // same grid, checkpointable decomposition
	}
	if spec.Kind != exp.KindSweep {
		return nil, fmt.Errorf("dispatch: spec kind %q has no grid to shard", cfg.Spec.Kind)
	}
	cfg.Spec = spec
	grid, err := spec.Grid()
	if err != nil {
		return nil, err
	}
	if cfg.NumShards > len(grid.IDs) {
		cfg.NumShards = len(grid.IDs)
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("dispatch: lane dir: %w", err)
	}
	transport := "fs"
	if cfg.Checkpoints != nil {
		if err := cfg.Checkpoints.Bind(spec, grid); err != nil {
			return nil, err
		}
		transport = "store"
	}

	d := &dispatcher{
		cfg:   cfg,
		grid:  grid,
		cells: map[int]eval.MatrixCell{},
		rng:   xrand.New(cfg.Seed),
	}
	for i, w := range cfg.Workers {
		if w.Name == "" {
			w.Name = fmt.Sprintf("worker%d", i)
		}
		d.workers = append(d.workers, &workerState{w: w})
	}
	for s := 0; s < cfg.NumShards; s++ {
		st := &shardState{
			index:   s,
			lane:    filepath.Join(cfg.Dir, fmt.Sprintf("shard_%d_of_%d.jsonl", s, cfg.NumShards)),
			hedgeLn: filepath.Join(cfg.Dir, fmt.Sprintf("shard_%d_of_%d_hedge.jsonl", s, cfg.NumShards)),
		}
		for _, id := range grid.IDs {
			if id.Index%cfg.NumShards == s {
				st.cellIdx = append(st.cellIdx, id.Index)
			}
		}
		d.shards = append(d.shards, st)
	}

	resumed, err := d.recoverLanes()
	if err != nil {
		return nil, err
	}

	d.observe(eval.Event{Kind: eval.EventRunStart, Total: len(grid.IDs)})
	runErr := d.loop(ctx)
	d.observe(eval.Event{Kind: eval.EventRunDone, Total: len(grid.IDs), Err: runErr})
	if runErr != nil {
		return nil, runErr
	}

	rep, files, err := d.merge()
	if err != nil {
		return nil, err
	}
	var quarantined []string
	for _, w := range d.workers {
		if w.quarantined {
			quarantined = append(quarantined, w.w.Name)
		}
	}
	return &Report{
		Matrix: rep, Text: rep.Format(), CSV: rep.CSV(),
		Shards: cfg.NumShards, Resumed: resumed, Fetched: d.fetched,
		Retries: d.retries, Hedges: d.hedges,
		Quarantined: quarantined, Files: files,
		Transport: transport,
	}, nil
}

// recoverLanes scans lane files before dispatching: with Resume, each
// lane first reconciles with its checkpoint replica (so lanes surviving
// only off-machine are rebuilt locally), then its cells are validated,
// prefilled, and fully-covered shards are marked complete; without
// Resume, stale lanes are deleted — local file AND replica — so the run
// starts clean.
func (d *dispatcher) recoverLanes() (int, error) {
	if !d.cfg.Resume {
		for _, s := range d.shards {
			for _, p := range []string{s.lane, s.hedgeLn} {
				if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
					return 0, fmt.Errorf("dispatch: clear lane %s: %w", p, err)
				}
				if d.cfg.Checkpoints == nil {
					continue
				}
				if err := d.cfg.Checkpoints.Clear(filepath.Base(p)); err != nil {
					return 0, fmt.Errorf("dispatch: clear replica lane %s: %w", filepath.Base(p), err)
				}
			}
		}
		return 0, nil
	}
	if d.cfg.Checkpoints != nil {
		lanes, err := d.cfg.Checkpoints.List()
		if err != nil {
			return 0, fmt.Errorf("dispatch: resume: %w", err)
		}
		if len(lanes) > 0 {
			d.logf("dispatch: store replica holds %d lane(s)", len(lanes))
		}
	}
	resumed := 0
	for _, s := range d.shards {
		for _, p := range []string{s.lane, s.hedgeLn} {
			fetched, err := syncLane(d.cfg.Checkpoints, filepath.Base(p), p, d.grid)
			if err != nil {
				return 0, fmt.Errorf("dispatch: resume: %w", err)
			}
			d.fetched += fetched
			done, _, err := d.grid.Load(p)
			if err != nil {
				return 0, fmt.Errorf("dispatch: resume: %w", err)
			}
			// Fold in grid order so a divergence between lane files
			// always reports the same (lowest) cell.
			added, bad := d.grid.Fold(d.cells, done)
			if bad >= 0 {
				return 0, fmt.Errorf("dispatch: resume: cell %d differs between lane files — lanes from diverging runs?", bad)
			}
			resumed += len(added)
		}
		if d.shardCovered(s) {
			s.complete = true
		}
	}
	if resumed > 0 {
		d.logf("dispatch: resumed %d cells from %s (%d fetched from the replica)",
			resumed, d.cfg.Dir, d.fetched)
	}
	return resumed, nil
}

// shardCovered reports whether every cell of s is in the global map.
// Callers hold no lock during init; the loop calls it under mu.
func (d *dispatcher) shardCovered(s *shardState) bool {
	for _, idx := range s.cellIdx {
		if _, ok := d.cells[idx]; !ok {
			return false
		}
	}
	return true
}

// loop is the scheduling core: launch attempts, watch liveness, hedge
// stragglers, retire failures with backoff, until every shard completes
// or the run becomes unwinnable.
func (d *dispatcher) loop(ctx context.Context) error {
	results := make(chan attemptResult, 4*len(d.workers)+4)
	outstanding := 0

	tick := d.cfg.Heartbeat / 4
	if tick > 250*time.Millisecond {
		tick = 250 * time.Millisecond
	}
	if tick < 5*time.Millisecond {
		tick = 5 * time.Millisecond
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()

	drain := func() {
		d.mu.Lock()
		for _, s := range d.shards {
			for _, a := range s.running {
				a.superseded = true
				a.cancel()
			}
		}
		d.mu.Unlock()
		for outstanding > 0 {
			r := <-results
			outstanding--
			_ = r
		}
	}

	for {
		d.mu.Lock()
		fatal := d.fatal
		allDone := true
		for _, s := range d.shards {
			if !s.complete {
				allDone = false
				break
			}
		}
		d.mu.Unlock()
		if fatal != nil {
			drain()
			return fatal
		}
		if allDone && outstanding == 0 {
			return nil
		}
		if allDone {
			drain()
			return nil
		}

		launched, err := d.schedule(ctx, results)
		if err != nil {
			drain()
			return err
		}
		outstanding += launched

		select {
		case r := <-results:
			outstanding--
			d.handleResult(r)
		case <-ticker.C:
			d.checkLiveness()
		case <-ctx.Done():
			drain()
			return ctx.Err()
		}
	}
}

// schedule launches work that is due: primary attempts for idle
// incomplete shards past their backoff, and hedge attempts for armed
// stragglers. Returns how many attempts were launched, or an error when
// a shard has exhausted its attempt budget.
func (d *dispatcher) schedule(ctx context.Context, results chan<- attemptResult) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	now := time.Now() //advlint:wallclock-ok retry/backoff scheduling only; never feeds results
	launched := 0

	for _, s := range d.shards {
		if s.complete || len(s.running) > 0 {
			continue
		}
		if s.attempts >= d.cfg.MaxAttempts {
			return launched, fmt.Errorf("dispatch: shard %d failed %d attempts, giving up: %w", s.index, s.attempts, s.lastErr)
		}
		if now.Before(s.notBefore) {
			continue
		}
		w := d.pickWorkerLocked(nil)
		if w == nil {
			continue // every healthy worker is busy; wait
		}
		d.launchLocked(ctx, s, w, false, results)
		launched++
	}

	// Hedging: once enough shards have completed to establish a typical
	// duration, shards running far past the median get a second lane on
	// a different worker — first writer wins per cell.
	if deadline, armed := d.hedgeDeadlineLocked(); armed {
		for _, s := range d.shards {
			if s.complete || s.hedged || len(s.running) != 1 || s.running[0].hedge {
				continue
			}
			if now.Sub(s.started) <= deadline {
				continue
			}
			w := d.pickWorkerLocked(s.running[0].worker)
			if w == nil {
				continue
			}
			s.hedged = true
			d.hedges++
			d.logf("dispatch: shard %d straggling (%.1fs > %.1fs); hedging to %s",
				s.index, now.Sub(s.started).Seconds(), deadline.Seconds(), w.w.Name)
			d.launchLocked(ctx, s, w, true, results)
			launched++
		}
	}
	return launched, nil
}

// hedgeDeadlineLocked computes the straggler threshold: armed once the
// completed-shard fraction reaches HedgeAfter, with the deadline at
// median completed duration × HedgeFactor.
func (d *dispatcher) hedgeDeadlineLocked() (time.Duration, bool) {
	if d.cfg.HedgeAfter >= 1 || len(d.workers) < 2 {
		return 0, false
	}
	var durations []time.Duration
	for _, s := range d.shards {
		if s.complete && s.duration > 0 {
			durations = append(durations, s.duration)
		}
	}
	if float64(len(durations)) < d.cfg.HedgeAfter*float64(len(d.shards)) || len(durations) == 0 {
		return 0, false
	}
	sort.Slice(durations, func(i, j int) bool { return durations[i] < durations[j] })
	median := durations[len(durations)/2]
	deadline := time.Duration(float64(median) * d.cfg.HedgeFactor)
	// Never hedge below one heartbeat: sub-heartbeat silence is the
	// liveness monitor's call, and a near-zero median (tiny shards)
	// would otherwise hedge everything.
	if deadline < d.cfg.Heartbeat {
		deadline = d.cfg.Heartbeat
	}
	return deadline, true
}

// pickWorkerLocked selects a free, healthy worker (fewest strikes wins;
// avoid, when set, excludes the straggler's own worker). When every free
// worker is quarantined and none is healthy-but-busy, the least-bad
// quarantined worker is drafted — graceful degradation beats deadlock.
func (d *dispatcher) pickWorkerLocked(avoid *workerState) *workerState {
	var best *workerState
	for _, w := range d.workers {
		if w.busy || w == avoid || w.quarantined {
			continue
		}
		if best == nil || w.strikes < best.strikes {
			best = w
		}
	}
	if best != nil {
		return best
	}
	// No healthy free worker. If a healthy worker exists but is busy,
	// wait for it; only when ALL workers are quarantined draft one back.
	for _, w := range d.workers {
		if !w.quarantined {
			return nil // healthy capacity exists; be patient
		}
	}
	for _, w := range d.workers {
		if w.busy || w == avoid {
			continue
		}
		if best == nil || w.strikes < best.strikes {
			best = w
		}
	}
	if best != nil {
		d.logf("dispatch: all workers quarantined; drafting %s back", best.w.Name)
	}
	return best
}

// launchLocked starts one attempt goroutine. Callers hold d.mu.
func (d *dispatcher) launchLocked(ctx context.Context, s *shardState, w *workerState, hedge bool, results chan<- attemptResult) {
	actx, cancel := context.WithCancel(ctx)
	//advlint:wallclock-ok heartbeat liveness timestamps only; never feed results
	a := &attempt{shard: s, worker: w, hedge: hedge, cancel: cancel, lastBeat: time.Now()}
	w.busy = true
	s.running = append(s.running, a)
	if s.started.IsZero() {
		s.started = time.Now() //advlint:wallclock-ok hedge straggler timing only; never feeds results
	}

	spec := d.shardSpec(s, hedge)
	obs := eval.ObserverFunc(func(ev eval.Event) { d.onEvent(a, ev) })
	lane := s.lane
	if hedge {
		lane = s.hedgeLn
	}
	d.logf("dispatch: shard %d -> %s (attempt %d%s, lane %s)",
		s.index, w.w.Name, s.attempts+1, map[bool]string{true: ", hedge"}[hedge], filepath.Base(lane))
	go func() {
		err := w.w.Transport.Run(actx, spec, obs)
		cancel()
		results <- attemptResult{a: a, err: err}
	}()
}

// shardSpec derives the spec one attempt executes: the grid spec with
// the dispatcher's own shard decomposition and lane file. Resume is
// always on — a retry must pick up the surviving tail, and
// Grid.OpenLane repairs a torn tail under Resume.
func (d *dispatcher) shardSpec(s *shardState, hedge bool) exp.Spec {
	spec := d.cfg.Spec
	lane := s.lane
	if hedge {
		lane = s.hedgeLn
	}
	spec.Sweep = &exp.SweepSpec{
		Shard: s.index, NumShards: d.cfg.NumShards,
		JSONL: lane, Resume: true,
	}
	return spec
}

// onEvent is the per-attempt observer: every event refreshes the
// attempt's heartbeat; cell completions dedup into the global map
// (first writer wins) and forward to the configured observer with a
// deduplicated Done counter.
func (d *dispatcher) onEvent(a *attempt, ev eval.Event) {
	d.mu.Lock()
	a.lastBeat = time.Now() //advlint:wallclock-ok heartbeat liveness timestamp only; never feeds results
	switch ev.Kind {
	case eval.EventCellDone:
		if ev.Result == nil {
			d.mu.Unlock()
			return
		}
		idx := ev.Cell.Index
		if idx < 0 || idx >= len(d.grid.IDs) {
			d.fatal = fmt.Errorf("dispatch: worker %s reported cell %d outside the grid", a.worker.w.Name, idx)
			d.mu.Unlock()
			return
		}
		if prev, dup := d.cells[idx]; dup {
			// A hedged or resumed cell arriving again must be the same
			// record — anything else is a determinism violation that
			// would silently corrupt the merged grid.
			if !d.grid.SameCell(prev, *ev.Result) {
				d.fatal = fmt.Errorf("dispatch: cell %d from %s differs from the first-written result — non-deterministic worker?", idx, a.worker.w.Name)
			}
			d.mu.Unlock()
			return
		}
		d.cells[idx] = *ev.Result
		d.fresh++
		out := eval.Event{
			Kind: eval.EventCellDone, Total: len(d.grid.IDs), Done: d.fresh,
			Cell: d.grid.IDs[idx], Result: ev.Result,
		}
		lane := a.shard.lane
		if a.hedge {
			lane = a.shard.hedgeLn
		}
		d.mu.Unlock()
		// Replicate outside the lock: the store may sleep through a
		// retry window, and the other workers' events must keep flowing
		// while it does. The record is durable before the event passes
		// on, so an observer never sees a cell the replica lacks.
		if d.cfg.Checkpoints != nil {
			if err := d.cfg.Checkpoints.Publish(filepath.Base(lane), d.grid.Record(idx, *ev.Result)); err != nil {
				d.mu.Lock()
				if d.fatal == nil {
					d.fatal = err
				}
				d.mu.Unlock()
			}
		}
		d.observe(out)
		return
	case eval.EventCellStart, eval.EventLog:
		d.mu.Unlock()
		d.observe(ev)
		return
	}
	d.mu.Unlock()
}

// handleResult retires one finished attempt: completion closes the
// shard (and supersedes its sibling attempts); failure earns the worker
// a strike and schedules the shard's re-dispatch with backoff.
func (d *dispatcher) handleResult(r attemptResult) {
	d.mu.Lock()
	defer d.mu.Unlock()
	a := r.a
	s := a.shard
	a.worker.busy = false
	for i, run := range s.running {
		if run == a {
			s.running = append(s.running[:i], s.running[i+1:]...)
			break
		}
	}

	if !s.complete && d.shardCovered(s) {
		s.complete = true
		s.duration = time.Since(s.started)
		for _, sib := range s.running {
			sib.superseded = true
			sib.cancel()
		}
		return
	}
	if s.complete || a.superseded {
		return // shard already done elsewhere; this attempt owes nothing
	}

	err := r.err
	if err == nil {
		err = fmt.Errorf("transport returned without completing shard %d", s.index)
	}
	if a.timedOut {
		err = fmt.Errorf("no progress for %v (heartbeat timeout): %w", d.cfg.Heartbeat, err)
	}
	s.attempts++
	s.lastErr = err
	d.retries++
	d.strikeLocked(a.worker, err)
	if s.attempts < d.cfg.MaxAttempts {
		delay := d.backoff(s.attempts)
		s.notBefore = time.Now().Add(delay) //advlint:wallclock-ok retry backoff scheduling only; never feeds results
		d.logf("dispatch: shard %d attempt %d failed on %s: %v; retrying in %v",
			s.index, s.attempts, a.worker.w.Name, err, delay.Round(time.Millisecond))
	}
}

// strikeLocked records a failure against a worker, quarantining repeat
// offenders unless it is the last healthy worker.
func (d *dispatcher) strikeLocked(w *workerState, err error) {
	w.strikes++
	if w.quarantined || w.strikes < d.cfg.MaxStrikes {
		return
	}
	healthy := 0
	for _, o := range d.workers {
		if !o.quarantined {
			healthy++
		}
	}
	if healthy <= 1 {
		d.logf("dispatch: %s has %d strikes but is the last healthy worker; keeping it", w.w.Name, w.strikes)
		return
	}
	w.quarantined = true
	d.logf("dispatch: quarantining %s after %d strikes (last: %v)", w.w.Name, w.strikes, err)
}

// checkLiveness kills attempts whose event stream has gone silent past
// the heartbeat timeout; the cancellation surfaces as the attempt's
// failure and rides the normal retry path.
func (d *dispatcher) checkLiveness() {
	d.mu.Lock()
	defer d.mu.Unlock()
	now := time.Now() //advlint:wallclock-ok heartbeat liveness check only; never feeds results
	for _, s := range d.shards {
		for _, a := range s.running {
			if a.timedOut || now.Sub(a.lastBeat) <= d.cfg.Heartbeat {
				continue
			}
			a.timedOut = true
			d.logf("dispatch: shard %d on %s silent for %v; killing attempt", s.index, a.worker.w.Name, d.cfg.Heartbeat)
			a.cancel()
		}
	}
}

// backoff computes the capped exponential re-dispatch delay with ±50%
// deterministic jitter.
func (d *dispatcher) backoff(attempts int) time.Duration {
	delay := d.cfg.BackoffBase
	for i := 1; i < attempts && delay < d.cfg.BackoffMax; i++ {
		delay *= 2
	}
	if delay > d.cfg.BackoffMax {
		delay = d.cfg.BackoffMax
	}
	return time.Duration(float64(delay) * (0.5 + 0.5*d.rng.Float64()))
}

// merge joins every contributing lane file through the Grid.Merge
// coverage/seed verification into the final grid. Each lane first
// reconciles with the replica — replica-only records (a worker whose
// local writes were lost) land in the local file, and local-only records
// publish out.
func (d *dispatcher) merge() (eval.MatrixReport, []string, error) {
	var files []string
	for _, s := range d.shards {
		for _, p := range []string{s.lane, s.hedgeLn} {
			fetched, err := syncLane(d.cfg.Checkpoints, filepath.Base(p), p, d.grid)
			if err != nil {
				return eval.MatrixReport{}, nil, fmt.Errorf("dispatch: merge: %w", err)
			}
			d.fetched += fetched
			done, _, err := d.grid.Load(p)
			if err != nil {
				return eval.MatrixReport{}, nil, fmt.Errorf("dispatch: probe lane: %w", err)
			}
			if len(done) > 0 {
				files = append(files, p)
			}
		}
	}
	rep, err := d.grid.Merge(files)
	if err != nil {
		return eval.MatrixReport{}, nil, fmt.Errorf("dispatch: merge: %w", err)
	}
	return rep, files, nil
}

func (d *dispatcher) observe(ev eval.Event) { emit(d.cfg.Observer, ev) }

func (d *dispatcher) logf(format string, args ...any) {
	if d.cfg.Logf != nil {
		d.cfg.Logf(format, args...)
	}
}

// emit forwards ev to obs when one is subscribed.
func emit(obs eval.Observer, ev eval.Event) {
	if obs != nil {
		obs.Observe(ev)
	}
}
