package dispatch

// StoreTransport: lane durability over a content-addressed object store.
// Every published record is durable when Publish returns: it is appended
// to the lane's open segment, and the whole segment is re-Put under
// lanes/<grid-hash>/<lane>/seg_N. A segment that reaches 64 KiB is
// closed and the next record opens seg_N+1; a process only ever re-Puts
// a segment it opened itself (a resumed dispatch numbers after the
// highest existing segment). <grid-hash> is the canonical spec hash of
// the dispatched grid (shard selection stripped) — so every lane of one
// dispatch shares a prefix, a different grid can never collide with it,
// and a stale replica is structurally invisible before it is even
// validated. Every store operation runs under capped jittered retry, so
// a transiently unavailable store (daemon restart, network blip) delays
// the sweep instead of failing it; a store that stays down past the
// budget surfaces as an error, never as silent data loss.
//
// Fetching reassembles segments in order, tolerating the faults an
// at-least-once uploader produces: a torn segment (partial upload that
// reported success) contributes its valid prefix and costs only the
// damaged records' recomputation; duplicate segment delivery
// deduplicates by grid index; records from a different run configuration
// under our prefix are rejected loudly.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/blob"
	"repro/internal/eval"
	"repro/internal/exp"
	"repro/internal/xrand"
)

// StoreTransport is the checkpoint replica of a dispatch: every cell
// record the dispatcher observes is published through it, and at resume
// and merge time each local lane reconciles with it (syncLane). It is
// safe for concurrent use — the dispatcher publishes from several worker
// goroutines at once.
type StoreTransport struct {
	// Store is the blob backend (blob.DirStore, serve.HTTPStore, or a
	// fault-injection wrapper around either).
	Store blob.ObjectStore
	// Retries bounds attempts per store operation (default 4).
	Retries int
	// RetryBase/RetryMax shape the capped exponential retry backoff
	// (defaults 50ms / 2s); jitter of ±50% is applied.
	RetryBase time.Duration
	RetryMax  time.Duration
	// Seed feeds the retry jitter (default 1); timing only.
	Seed int64
	// Logf narrates retries (nil = silent).
	Logf func(format string, args ...any)

	// segmentBytes is the roll size: a segment this large takes no more
	// records (default 64 KiB).
	segmentBytes int

	mu     sync.Mutex
	grid   eval.Grid
	prefix string
	rng    *xrand.RNG
	lanes  map[string]*storeLane
}

// storeLane is the upload state of one lane.
type storeLane struct {
	buf  bytes.Buffer // the open segment's records
	seen map[int]bool
	seg  int // the open segment's number
}

// Bind prepares the transport for one dispatch session over the given
// grid, deriving the content-address prefix from the grid spec. It must
// be called before any other method.
func (t *StoreTransport) Bind(spec exp.Spec, grid eval.Grid) error {
	if t.Store == nil {
		return fmt.Errorf("dispatch: store transport needs an object store")
	}
	whole := spec
	whole.Sweep = nil // the prefix addresses the GRID; lanes carry the shards
	hash, err := exp.SpecHash(whole)
	if err != nil {
		return fmt.Errorf("dispatch: store transport: %w", err)
	}
	t.mu.Lock()
	t.grid = grid
	t.prefix = "lanes/" + hash + "/"
	if t.segmentBytes <= 0 {
		t.segmentBytes = 64 << 10
	}
	if t.Retries <= 0 {
		t.Retries = 4
	}
	if t.RetryBase <= 0 {
		t.RetryBase = 50 * time.Millisecond
	}
	if t.RetryMax <= 0 {
		t.RetryMax = 2 * time.Second
	}
	seed := t.Seed
	if seed == 0 {
		seed = 1
	}
	t.rng = xrand.New(seed)
	t.lanes = map[string]*storeLane{}
	t.mu.Unlock()
	return nil
}

// segKey names one segment object.
func (t *StoreTransport) segKey(lane string, seg int) string {
	return fmt.Sprintf("%s%s/seg_%06d", t.prefix, lane, seg)
}

// withRetryLocked runs one store operation under capped jittered
// exponential backoff. Callers hold t.mu; the sleep intentionally holds
// it too — during an outage every publisher is blocked on the same store
// anyway, and serialising them keeps segment numbering coherent.
func (t *StoreTransport) withRetryLocked(op string, f func() error) error {
	var err error
	for attempt := 1; ; attempt++ {
		if err = f(); err == nil {
			return nil
		}
		if attempt >= t.Retries {
			return fmt.Errorf("dispatch: store %s failed after %d attempts: %w", op, attempt, err)
		}
		delay := t.RetryBase
		for i := 1; i < attempt && delay < t.RetryMax; i++ {
			delay *= 2
		}
		if delay > t.RetryMax {
			delay = t.RetryMax
		}
		delay = time.Duration(float64(delay) * (0.5 + 0.5*t.rng.Float64()))
		if t.Logf != nil {
			t.Logf("dispatch: store %s attempt %d failed (%v); retrying in %v", op, attempt, err, delay.Round(time.Millisecond))
		}
		time.Sleep(delay)
	}
}

// fetchLaneLocked reads and validates every stored segment of a lane,
// returning the deduplicated records and the highest segment number seen
// (-1 when the lane has no segments).
func (t *StoreTransport) fetchLaneLocked(lane string) (map[int]eval.MatrixCell, int, error) {
	var keys []string
	err := t.withRetryLocked("list", func() error {
		var lerr error
		keys, lerr = t.Store.List(t.prefix + lane + "/")
		return lerr
	})
	if err != nil {
		return nil, -1, err
	}
	segs := make([]int, 0, len(keys))
	byNum := map[int]string{}
	for _, key := range keys {
		base := key[strings.LastIndexByte(key, '/')+1:]
		numStr, ok := strings.CutPrefix(base, "seg_")
		if !ok {
			continue
		}
		n, err := strconv.Atoi(numStr)
		if err != nil {
			continue
		}
		// Duplicate delivery can land one segment number twice under
		// at-least-once semantics; the map keeps one key, and the record
		// dedup below absorbs the rest.
		if _, dup := byNum[n]; !dup {
			segs = append(segs, n)
			byNum[n] = key
		}
	}
	sort.Ints(segs)

	recs := map[int]eval.MatrixCell{}
	maxSeg := -1
	for _, n := range segs {
		key := byNum[n]
		var data []byte
		err := t.withRetryLocked("get "+key, func() error {
			var gerr error
			data, gerr = t.Store.Get(key)
			return gerr
		})
		if err != nil {
			return nil, -1, err
		}
		// Grid.LoadBytes gives exactly the semantics a remote
		// segment needs: grid validation per record, hard rejection of
		// stale content, and a torn (partially uploaded) tail degrading
		// to the valid prefix instead of an error.
		done, _, err := t.grid.LoadBytes(data)
		if err != nil {
			return nil, -1, fmt.Errorf("dispatch: store segment %s: %w", key, err)
		}
		// Fold in grid order so a divergence between segments always
		// reports the same (lowest) cell.
		if _, bad := t.grid.Fold(recs, done); bad >= 0 {
			return nil, -1, fmt.Errorf("dispatch: store lane %s cell %d differs between segments — replicas from diverging runs?", lane, bad)
		}
		maxSeg = n
	}
	return recs, maxSeg, nil
}

// laneLocked returns the upload state of a lane, discovering existing
// segments (a resumed dispatch continues numbering after them and never
// re-publishes records they hold).
func (t *StoreTransport) laneLocked(lane string) (*storeLane, error) {
	if l, ok := t.lanes[lane]; ok {
		return l, nil
	}
	recs, maxSeg, err := t.fetchLaneLocked(lane)
	if err != nil {
		return nil, err
	}
	l := &storeLane{seen: make(map[int]bool, len(recs)), seg: maxSeg + 1}
	//advlint:ordered-ok map-to-set fold keyed by grid index; order-free
	for idx := range recs {
		l.seen[idx] = true
	}
	t.lanes[lane] = l
	return l, nil
}

// Publish replicates one finished-cell record of the named lane: the
// record joins the lane's open segment and the whole segment is re-Put,
// so the record is durable in the store when Publish returns. Records
// may arrive more than once (hedges, resumes, duplicate delivery); they
// deduplicate by grid index.
func (t *StoreTransport) Publish(lane string, rec eval.SweepRecord) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	l, err := t.laneLocked(lane)
	if err != nil {
		return err
	}
	if l.seen[rec.Index] {
		return nil
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("dispatch: store lane %s: %w", lane, err)
	}
	prev := l.buf.Len()
	l.buf.Write(line)
	l.buf.WriteByte('\n')
	key := t.segKey(lane, l.seg)
	data := bytes.Clone(l.buf.Bytes()) // the store may keep data; buf is reused
	if err := t.withRetryLocked("put "+key, func() error { return t.Store.Put(key, data) }); err != nil {
		l.buf.Truncate(prev)
		return err
	}
	l.seen[rec.Index] = true
	if l.buf.Len() >= t.segmentBytes {
		l.seg++
		l.buf.Reset()
	}
	return nil
}

// Clear removes the replica of the named lane — the fresh-run path,
// matching the local lane removal.
func (t *StoreTransport) Clear(lane string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.lanes, lane)
	var keys []string
	err := t.withRetryLocked("list", func() error {
		var lerr error
		keys, lerr = t.Store.List(t.prefix + lane + "/")
		return lerr
	})
	if err != nil {
		return err
	}
	for _, key := range keys {
		k := key
		if err := t.withRetryLocked("delete "+k, func() error { return t.Store.Delete(k) }); err != nil {
			return err
		}
	}
	return nil
}

// List enumerates the lanes the replica holds records for.
func (t *StoreTransport) List() ([]string, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var keys []string
	err := t.withRetryLocked("list", func() error {
		var lerr error
		keys, lerr = t.Store.List(t.prefix)
		return lerr
	})
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	var lanes []string
	for _, key := range keys {
		rest := strings.TrimPrefix(key, t.prefix)
		lane, _, ok := strings.Cut(rest, "/")
		if ok && !seen[lane] {
			seen[lane] = true
			lanes = append(lanes, lane)
		}
	}
	sort.Strings(lanes)
	return lanes, nil
}

// Load fetches the replica's records for the named lane — every record
// published so far, by this process or an earlier one — validated
// against the bound grid. Torn content is tolerated (the damaged tail
// records are simply absent); records from a different grid or run
// configuration are an error. A missing replica is an empty map.
func (t *StoreTransport) Load(lane string) (map[int]eval.MatrixCell, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	recs, _, err := t.fetchLaneLocked(lane)
	return recs, err
}
