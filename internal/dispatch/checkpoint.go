package dispatch

// Checkpoint replica: the lane durability layer. The dispatcher's worker
// transports persist finished cells to LOCAL lane files — that is what
// survives a process crash. The store replica (StoreTransport, store.go)
// is what survives a MACHINE crash: every fresh cell record the
// dispatcher observes is also published to it, durably before the
// dispatcher moves on, and at resume and merge time the local file and
// the replica are reconciled (syncLane), so a dispatch whose lane data
// exists only off-machine is reconstructed without recomputing a single
// finished cell. Without a replica (-transport fs) the local lane files
// are the only copy.
//
// The byte-identity gate holds either way: replica records are validated
// against the grid before they are trusted, torn remote content degrades
// to recomputation (never corruption), and stale replicas (a different
// grid, preset or run configuration) are rejected loudly.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"

	"repro/internal/eval"
	"repro/internal/serve"
)

// ParseCheckpointTransport parses the -transport grammar:
//
//	fs               local lane files only (default; returns nil)
//	store:DIR        object-store segments in a local directory
//	store:http://…   object-store segments on a serve daemon
func ParseCheckpointTransport(s string) (*StoreTransport, error) {
	switch {
	case s == "" || s == "fs":
		return nil, nil
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
		return nil, fmt.Errorf("dispatch: -transport %q: want fs or store:DIR|URL", s)
	}
}

// syncLane reconciles one lane between its local file and the replica
// until both hold the union: replica records the local file lacks are
// merged in (atomic temp+rename rewrite, which also repairs a torn local
// tail), local records the replica lacks are published. Returns how many
// records were recovered FROM the replica — the cells a lost local disk
// would otherwise have cost. Without a replica there is nothing to
// reconcile.
func syncLane(ct *StoreTransport, lane, path string, grid eval.Grid) (int, error) {
	if ct == nil {
		return 0, nil
	}
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
				return 0, fmt.Errorf("dispatch: lane %s cell %d differs between the local file and the store replica — lanes from diverging runs?", lane, idx)
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
// file plus, when a replica is configured, its records. The exec
// transport's liveness poll reads this instead of the local tail alone,
// so a worker streaming results off-machine is not declared hung while
// it is making progress.
func laneProgress(path string, grid eval.Grid, ct *StoreTransport) map[int]eval.MatrixCell {
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
