package dispatch

// Checkpoint transports: the lane durability layer. The dispatcher's
// worker transports persist finished cells to LOCAL lane files — that is
// what survives a process crash. A CheckpointTransport decides what
// survives a MACHINE crash: every fresh cell record the dispatcher
// observes is also published through the transport, and at resume and
// merge time the local file and the transport replica are reconciled
// (syncLane), so a dispatch whose lane data exists only off-machine is
// reconstructed without recomputing a single finished cell.
//
// Three implementations cover the durability ladder:
//
//   - FSTransport: no replication — the local filesystem is the only
//     copy. The PR 7 behavior, byte for byte.
//   - MirrorTransport: every record streams into a second directory tree
//     with atomic temp+rename publication — the rsync/scp stand-in. The
//     mirror file is always a complete record set (the writer can never
//     tear it), so a worker's lost disk is recoverable from the mirror.
//   - StoreTransport (store.go): chunked lane segments in a
//     content-addressed object store keyed by grid spec hash + lane +
//     segment, backed by a directory or a serve daemon — the true
//     off-machine path, with capped jittered retry around every store
//     operation.
//
// Whatever the backend, the byte-identity gate holds: replica records
// are validated against the grid before they are trusted, torn remote
// content degrades to recomputation (never corruption), and stale
// replicas (a different grid, preset or run configuration) are rejected
// loudly.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"

	"repro/internal/eval"
	"repro/internal/exp"
	"repro/internal/serve"
)

// CheckpointTransport is the durability backend for shard lane files.
// Lanes are addressed by base name (shard_i_of_n.jsonl and hedge twins);
// implementations must be safe for concurrent use — the dispatcher
// publishes from several worker goroutines at once.
type CheckpointTransport interface {
	// String names the transport configuration for logs and the report.
	String() string
	// Bind prepares the transport for one dispatch session over the
	// given grid: the store transport derives its content-address prefix
	// from the spec here, the mirror creates its tree. Must be called
	// before any other method.
	Bind(spec exp.Spec, grid eval.Grid) error
	// Publish replicates one finished-cell checkpoint record of the
	// named lane. Records may arrive more than once (hedges, resumes,
	// duplicate delivery); implementations deduplicate by grid index.
	Publish(lane string, rec eval.SweepRecord) error
	// Sync forces everything Published so far durable (uploads partial
	// store segments; a no-op for per-record backends).
	Sync(lane string) error
	// Clear removes the replica of the named lane — the fresh-run path,
	// mirroring the local lane removal.
	Clear(lane string) error
	// List enumerates lane names the transport holds records for.
	List() ([]string, error)
	// Load fetches the replica's records for the named lane, validated
	// against the bound grid. Torn content is tolerated (the damaged
	// tail records are simply absent); records from a different grid or
	// run configuration are an error. A missing replica is an empty map.
	Load(lane string) (map[int]eval.MatrixCell, error)
}

// ParseCheckpointTransport parses the -transport grammar:
//
//	fs               local filesystem only (default)
//	mirror:DIR       per-record atomic replication into DIR
//	store:DIR        object-store segments in a local directory
//	store:http://…   object-store segments on a serve daemon
func ParseCheckpointTransport(s string) (CheckpointTransport, error) {
	switch {
	case s == "" || s == "fs":
		return &FSTransport{}, nil
	case strings.HasPrefix(s, "mirror:"):
		dir := s[len("mirror:"):]
		if dir == "" {
			return nil, fmt.Errorf("dispatch: -transport %q: mirror wants a directory", s)
		}
		return &MirrorTransport{Dir: dir}, nil
	case strings.HasPrefix(s, "store:"):
		v := s[len("store:"):]
		if v == "" {
			return nil, fmt.Errorf("dispatch: -transport %q: store wants a directory or daemon URL", s)
		}
		if strings.HasPrefix(v, "http://") || strings.HasPrefix(v, "https://") {
			return &StoreTransport{Store: &serve.HTTPStore{Base: v}}, nil
		}
		return &StoreTransport{Store: serve.NewDirStore(v)}, nil
	default:
		return nil, fmt.Errorf("dispatch: -transport %q: want fs, mirror:DIR or store:DIR|URL", s)
	}
}

// syncLane reconciles one lane between its local file and the transport
// replica until both hold the union: replica records the local file lacks
// are merged in (atomic temp+rename rewrite, which also repairs a torn
// local tail), local records the replica lacks are published. Returns how
// many records were recovered FROM the replica — the cells a lost local
// disk would otherwise have cost.
func syncLane(ct CheckpointTransport, lane, path string, grid eval.Grid) (int, error) {
	remote, err := ct.Load(lane)
	if err != nil {
		return 0, err
	}
	local, validLen, err := grid.Load(path)
	if err != nil {
		return 0, err
	}

	// Push local-only records out in grid order — publish order shapes
	// replica segment layout and which divergence reports first — and
	// verify overlap is bit-identical (a divergence here means
	// non-deterministic workers or a foreign replica — merging silently
	// would corrupt the grid).
	push := make([]int, 0, len(local))
	for idx := range local {
		push = append(push, idx)
	}
	sort.Ints(push)
	for _, idx := range push {
		cell := local[idx]
		if prev, dup := remote[idx]; dup {
			if !reflect.DeepEqual(prev, cell) {
				return 0, fmt.Errorf("dispatch: lane %s cell %d differs between the local file and the %s replica — lanes from diverging runs?", lane, idx, ct)
			}
			continue
		}
		if err := ct.Publish(lane, grid.Record(idx, cell)); err != nil {
			return 0, err
		}
	}

	// Pull replica-only records in.
	var add []int
	//advlint:ordered-ok key collection with a membership filter; add is sorted below
	for idx := range remote {
		if _, dup := local[idx]; !dup {
			add = append(add, idx)
		}
	}
	if len(add) == 0 {
		return 0, nil
	}
	sort.Ints(add)
	var buf bytes.Buffer
	if validLen > 0 {
		prev, err := os.ReadFile(path)
		if err != nil {
			return 0, fmt.Errorf("dispatch: sync lane %s: %w", lane, err)
		}
		buf.Write(prev[:validLen])
	}
	for _, idx := range add {
		line, err := json.Marshal(grid.Record(idx, remote[idx]))
		if err != nil {
			return 0, fmt.Errorf("dispatch: sync lane %s: %w", lane, err)
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	if err := atomicWriteFile(path, buf.Bytes()); err != nil {
		return 0, fmt.Errorf("dispatch: sync lane %s: %w", lane, err)
	}
	return len(add), nil
}

// laneProgress is the union view of a lane's finished cells: the local
// file plus, when a checkpoint transport is configured, its replica. The
// exec transport's liveness poll reads this instead of the local tail
// alone, so a worker streaming results off-machine is not declared hung
// while it is making progress.
func laneProgress(path string, grid eval.Grid, ct CheckpointTransport) map[int]eval.MatrixCell {
	done, _, err := grid.Load(path)
	if err != nil {
		done = map[int]eval.MatrixCell{}
	}
	if ct != nil {
		if remote, rerr := ct.Load(filepath.Base(path)); rerr == nil {
			//advlint:ordered-ok map-to-map fold keyed by grid index; order-free
			for idx, cell := range remote {
				if _, dup := done[idx]; !dup {
					done[idx] = cell
				}
			}
		}
	}
	return done
}

// atomicWriteFile publishes data at path via temp+rename in the same
// directory, so readers see the old content or the new, never a tear.
func atomicWriteFile(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".lane_*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close() //advlint:close-ok error-path cleanup; the write failure is returned
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// FSTransport is the no-replication transport: lane files live on the
// local filesystem and nowhere else — exactly the PR 7 dispatcher.
type FSTransport struct{}

// String implements CheckpointTransport.
func (t *FSTransport) String() string { return "fs" }

// Bind implements CheckpointTransport.
func (t *FSTransport) Bind(spec exp.Spec, grid eval.Grid) error { return nil }

// Publish implements CheckpointTransport.
func (t *FSTransport) Publish(lane string, rec eval.SweepRecord) error { return nil }

// Sync implements CheckpointTransport.
func (t *FSTransport) Sync(lane string) error { return nil }

// Clear implements CheckpointTransport.
func (t *FSTransport) Clear(lane string) error { return nil }

// List implements CheckpointTransport.
func (t *FSTransport) List() ([]string, error) { return nil, nil }

// Load implements CheckpointTransport.
func (t *FSTransport) Load(lane string) (map[int]eval.MatrixCell, error) {
	return map[int]eval.MatrixCell{}, nil
}

// MirrorTransport streams every published record into a second directory
// tree: after each Publish the lane's full record set is rewritten to a
// temp file and renamed over the published copy, so the mirror never
// holds a torn file of this writer's making and a reader (a recovering
// dispatcher on another machine, an rsync of the tree) always sees a
// complete prefix of the lane. Loading still tolerates a torn tail — a
// mirror populated by a cruder copier than us remains usable.
type MirrorTransport struct {
	// Dir is the mirror root; lane files appear under their base names.
	Dir string

	mu    sync.Mutex
	grid  eval.Grid
	lanes map[string]*mirrorLane
}

// mirrorLane is the in-memory image of one mirrored lane.
type mirrorLane struct {
	lines [][]byte
	recs  map[int]eval.MatrixCell
}

// String implements CheckpointTransport.
func (t *MirrorTransport) String() string { return "mirror:" + t.Dir }

// Bind implements CheckpointTransport.
func (t *MirrorTransport) Bind(spec exp.Spec, grid eval.Grid) error {
	if t.Dir == "" {
		return fmt.Errorf("dispatch: mirror transport needs a directory")
	}
	if err := os.MkdirAll(t.Dir, 0o755); err != nil {
		return fmt.Errorf("dispatch: mirror dir: %w", err)
	}
	t.mu.Lock()
	t.grid = grid
	t.lanes = map[string]*mirrorLane{}
	t.mu.Unlock()
	return nil
}

// laneLocked returns the cached image of a lane, loading (and
// validating) any existing mirror file on first touch.
func (t *MirrorTransport) laneLocked(lane string) (*mirrorLane, error) {
	if l, ok := t.lanes[lane]; ok {
		return l, nil
	}
	l := &mirrorLane{recs: map[int]eval.MatrixCell{}}
	buf, err := os.ReadFile(filepath.Join(t.Dir, lane))
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("dispatch: mirror lane %s: %w", lane, err)
	}
	if len(buf) > 0 {
		done, validLen, err := t.grid.LoadBytes(buf)
		if err != nil {
			return nil, fmt.Errorf("dispatch: mirror lane %s: %w", lane, err)
		}
		for _, line := range bytes.Split(bytes.TrimRight(buf[:validLen], "\n"), []byte("\n")) {
			if len(line) > 0 {
				l.lines = append(l.lines, append([]byte(nil), line...))
			}
		}
		//advlint:ordered-ok map-to-map copy keyed by grid index; order-free
		for idx, cell := range done {
			l.recs[idx] = cell
		}
	}
	t.lanes[lane] = l
	return l, nil
}

// Publish implements CheckpointTransport.
func (t *MirrorTransport) Publish(lane string, rec eval.SweepRecord) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	l, err := t.laneLocked(lane)
	if err != nil {
		return err
	}
	if _, dup := l.recs[rec.Index]; dup {
		return nil
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("dispatch: mirror lane %s: %w", lane, err)
	}
	l.lines = append(l.lines, line)
	l.recs[rec.Index] = rec.Cell
	var buf bytes.Buffer
	for _, ln := range l.lines {
		buf.Write(ln)
		buf.WriteByte('\n')
	}
	if err := atomicWriteFile(filepath.Join(t.Dir, lane), buf.Bytes()); err != nil {
		return fmt.Errorf("dispatch: mirror lane %s: %w", lane, err)
	}
	return nil
}

// Sync implements CheckpointTransport: every Publish is already durable.
func (t *MirrorTransport) Sync(lane string) error { return nil }

// Clear implements CheckpointTransport.
func (t *MirrorTransport) Clear(lane string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.lanes, lane)
	if err := os.Remove(filepath.Join(t.Dir, lane)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("dispatch: clear mirror lane %s: %w", lane, err)
	}
	return nil
}

// List implements CheckpointTransport.
func (t *MirrorTransport) List() ([]string, error) {
	entries, err := os.ReadDir(t.Dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("dispatch: list mirror: %w", err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && !strings.HasPrefix(e.Name(), ".") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// Load implements CheckpointTransport.
func (t *MirrorTransport) Load(lane string) (map[int]eval.MatrixCell, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	l, err := t.laneLocked(lane)
	if err != nil {
		return nil, err
	}
	out := make(map[int]eval.MatrixCell, len(l.recs))
	//advlint:ordered-ok map-to-map copy keyed by grid index; order-free
	for idx, cell := range l.recs {
		out[idx] = cell
	}
	return out, nil
}
