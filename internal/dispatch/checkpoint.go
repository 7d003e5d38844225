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
	"fmt"
	"maps"
	"path/filepath"
	"strings"

	"repro/internal/blob"
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
		return &StoreTransport{Store: blob.NewDirStore(v)}, nil
	default:
		return nil, fmt.Errorf("dispatch: -transport %q: want fs or store:DIR|URL", s)
	}
}

// syncLane reconciles one lane between its local file and the replica
// until both hold the union: local records the replica lacks are
// published, and replica records the local file lacks are appended to it
// (the append also repairs a torn local tail). Returns how many records
// were recovered FROM the replica — the cells a lost local disk would
// otherwise have cost. Without a replica there is nothing to reconcile.
func syncLane(ct *StoreTransport, lane, path string, grid eval.Grid) (int, error) {
	if ct == nil {
		return 0, nil
	}
	remote, err := ct.Load(lane)
	if err != nil {
		return 0, err
	}
	local, _, err := grid.Load(path)
	if err != nil {
		return 0, err
	}

	// Push local-only records out in grid order — publish order shapes
	// replica segment layout — after checking the overlap holds the same
	// records (a divergence here means non-deterministic workers or a
	// foreign replica; merging silently would corrupt the grid).
	push, bad := grid.Fold(maps.Clone(remote), local)
	if bad >= 0 {
		return 0, fmt.Errorf("dispatch: lane %s cell %d differs between the local file and the store replica — lanes from diverging runs?", lane, bad)
	}
	for _, idx := range push {
		if err := ct.Publish(lane, grid.Record(idx, local[idx])); err != nil {
			return 0, err
		}
	}

	// Pull replica-only records in.
	pull, _ := grid.Fold(local, remote)
	if len(pull) == 0 {
		return 0, nil
	}
	w, _, err := grid.OpenLane(path, true)
	if err != nil {
		return 0, fmt.Errorf("dispatch: sync lane %s: %w", lane, err)
	}
	for _, idx := range pull {
		if _, err := w.Append(idx, remote[idx]); err != nil {
			break // Close reports the write error
		}
	}
	if err := w.Close(); err != nil {
		return 0, fmt.Errorf("dispatch: sync lane %s: %w", lane, err)
	}
	return len(pull), nil
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
