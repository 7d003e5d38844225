package eval

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/blob"
	"repro/internal/detect"
	"repro/internal/nn"
	"repro/internal/regress"
)

// This file implements the trained-model artifact store: victim weights
// cached on disk, keyed by model kind + architecture version + the full
// preset (name, seed, dataset sizes and training schedule — everything
// the trained weights depend on). A warm hit lets env construction skip
// training entirely, which is the dominant cold-start cost of every run;
// a load is bit-identical to the training it replaces because the
// training path is deterministic and the store round-trips exact float32
// data. Invalidation is by key: bump detect.ArchVersion /
// regress.ArchVersion when an architecture changes, and any preset field
// change (including the seed) re-keys automatically.

// ModelStore is a directory of serialized victim-model weights, each the
// blob <dir>/<key> of a blob.DirStore. The zero-value (nil) store
// disables caching. Publication is atomic, so concurrent writers of the
// same key are safe and readers never observe a partial artifact.
// Ensure* additionally serialise the training itself across processes
// through a lock file, so a fleet of workers sharing one store trains
// each preset once.
type ModelStore struct {
	dir   string
	blobs *blob.DirStore

	// lockPoll is the wait-loop interval of Ensure* when another process
	// holds the training lock (tests shorten it).
	lockPoll time.Duration
}

// NewModelStore opens (creating if needed) the artifact directory.
func NewModelStore(dir string) (*ModelStore, error) {
	if dir == "" {
		return nil, fmt.Errorf("eval: artifact store needs a directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("eval: artifact store: %w", err)
	}
	return &ModelStore{dir: dir, blobs: blob.NewDirStore(dir), lockPoll: 200 * time.Millisecond}, nil
}

// Dir returns the store's directory.
func (s *ModelStore) Dir() string { return s.dir }

// artifactKey derives the content key of one victim model: kind and
// architecture version name the network, and the SHA-256 of the preset's
// JSON encoding captures every training input (seed, dataset sizes,
// epochs). The readable prefix keeps the directory browsable; the hash
// carries the identity. So that any preset yields a valid blob key, the
// name in the prefix keeps only key-alphabet characters (others become
// '_') and at most 64 of them.
func artifactKey(kind string, arch int, p Preset) string {
	buf, err := json.Marshal(p)
	if err != nil {
		// Unreachable: Preset is a flat struct of strings and numbers.
		panic(err)
	}
	sum := sha256.Sum256(buf)
	name := blob.KeySafe(p.Name)
	if len(name) > 64 {
		name = name[:64]
	}
	return fmt.Sprintf("%s_v%d_%s_seed%d_%s.weights", kind, arch, name, p.Seed, hex.EncodeToString(sum[:])[:16])
}

// DetectorKey names the detector artifact of a preset.
func (s *ModelStore) DetectorKey(p Preset) string {
	return artifactKey("det", detect.ArchVersion, p)
}

// RegressorKey names the regressor artifact of a preset.
func (s *ModelStore) RegressorKey(p Preset) string {
	return artifactKey("reg", regress.ArchVersion, p)
}

// load reads the artifact under key into params. A missing artifact is a
// cold miss (false, nil); a present-but-incompatible one is an error —
// the key scheme should have prevented it, so failing loudly beats
// silently retraining over a corrupt store.
func (s *ModelStore) load(key string, params []*nn.Param) (bool, error) {
	buf, err := s.blobs.Get(key)
	if errors.Is(err, blob.ErrNoObject) {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("eval: artifact %s: %w", key, err)
	}
	if err := nn.DecodeParams(buf, params); err != nil {
		return false, fmt.Errorf("eval: artifact %s: %w", key, err)
	}
	return true, nil
}

// save publishes params under key. Concurrent savers of one key race
// benignly — both publish identical bytes (the key pins the training
// inputs and training is deterministic) and the blob store's publish is
// atomic.
func (s *ModelStore) save(key string, params []*nn.Param) error {
	buf, err := nn.EncodeParams(params)
	if err != nil {
		return fmt.Errorf("eval: artifact %s: %w", key, err)
	}
	if err := s.blobs.Put(key, buf); err != nil {
		return fmt.Errorf("eval: artifact %s: %w", key, err)
	}
	return nil
}

// LoadDetector restores cached detector weights for the preset into d,
// reporting whether a warm artifact existed.
func (s *ModelStore) LoadDetector(d *detect.Detector, p Preset) (bool, error) {
	return s.load(s.DetectorKey(p), d.Net.Params())
}

// SaveDetector stores the trained detector weights under the preset key.
func (s *ModelStore) SaveDetector(d *detect.Detector, p Preset) error {
	return s.save(s.DetectorKey(p), d.Net.Params())
}

// LoadRegressor restores cached regressor weights for the preset into r,
// reporting whether a warm artifact existed.
func (s *ModelStore) LoadRegressor(r *regress.Regressor, p Preset) (bool, error) {
	return s.load(s.RegressorKey(p), r.Net.Params())
}

// SaveRegressor stores the trained regressor weights under the preset key.
func (s *ModelStore) SaveRegressor(r *regress.Regressor, p Preset) error {
	return s.save(s.RegressorKey(p), r.Net.Params())
}

// Cross-process training guard. Two workers sharing an artifact dir both
// see a cold miss for the same preset and both pay the training cost; the
// results are bit-identical (training is deterministic), so correctness
// never depended on exclusion — only wall-clock and CPU do. Ensure*
// serialise the work: the first process to create <key>.lock (O_EXCL,
// owner pid inside) trains and saves; everyone else polls until the
// artifact appears, then warm-starts. A lock whose owner pid is dead is
// stale and is stolen; a lock with an unreadable pid falls back to an age
// heuristic so a crashed-and-rebooted owner can't wedge the store forever.

const lockStaleAge = 10 * time.Minute

func (s *ModelStore) lockPath(key string) string {
	return filepath.Join(s.dir, key+".lock")
}

// acquireTrainLock attempts to create the lock file exclusively, writing
// the owner pid. Returns true if this process now holds the lock.
func (s *ModelStore) acquireTrainLock(key string) (bool, error) {
	f, err := os.OpenFile(s.lockPath(key), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if errors.Is(err, os.ErrExist) {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("eval: train lock %s: %w", key, err)
	}
	_, werr := fmt.Fprintf(f, "%d\n", os.Getpid())
	cerr := f.Close()
	if werr != nil || cerr != nil {
		os.Remove(s.lockPath(key))
		return false, fmt.Errorf("eval: train lock %s: write failed", key)
	}
	return true, nil
}

func (s *ModelStore) releaseTrainLock(key string) {
	os.Remove(s.lockPath(key))
}

// lockIsStale reports whether the lock's owner is gone. The primary
// signal is the recorded pid: if that process no longer exists, the owner
// crashed without releasing and the lock is dead weight. Only when the
// pid can't be read (torn write, manual tampering) does the mtime age
// backstop apply — a live long-training owner keeps its lock no matter
// how long the epochs take.
func (s *ModelStore) lockIsStale(key string) bool {
	path := s.lockPath(key)
	buf, err := os.ReadFile(path)
	if err != nil {
		return false // gone already, or unreadable: let the caller re-poll
	}
	pid, perr := strconv.Atoi(strings.TrimSpace(string(buf)))
	if perr != nil || pid <= 0 {
		st, serr := os.Stat(path)
		return serr == nil && time.Since(st.ModTime()) > lockStaleAge
	}
	if pid == os.Getpid() {
		return false
	}
	proc, err := os.FindProcess(pid)
	if err != nil {
		return true // FindProcess only fails on unix if the pid is invalid
	}
	// Signal 0 probes existence without delivering anything. ESRCH means
	// the owner died; EPERM means it exists under another uid — alive.
	err = proc.Signal(syscall.Signal(0))
	return errors.Is(err, syscall.ESRCH) || errors.Is(err, os.ErrProcessDone)
}

// ensure makes the artifact under key exist and be loaded into params:
// warm-start if present, else train exactly once across every process
// polling this store. train must fill the networks behind params; logf
// (optional) narrates lock waits. The returned flag reports whether THIS
// process ran train (false: warm-started from another's artifact).
func (s *ModelStore) ensure(key string, params []*nn.Param, train func() error, logf func(string, ...any)) (bool, error) {
	say := func(format string, args ...any) {
		if logf != nil {
			logf(format, args...)
		}
	}
	poll := s.lockPoll
	if poll <= 0 {
		poll = 200 * time.Millisecond
	}
	for {
		if ok, err := s.load(key, params); err != nil {
			return false, err
		} else if ok {
			return false, nil
		}
		got, err := s.acquireTrainLock(key)
		if err != nil {
			return false, err
		}
		if got {
			// Double-check under the lock: the previous holder may have
			// saved between our load miss and our acquire.
			if ok, err := s.load(key, params); err != nil {
				s.releaseTrainLock(key)
				return false, err
			} else if ok {
				s.releaseTrainLock(key)
				return false, nil
			}
			if err := train(); err != nil {
				s.releaseTrainLock(key)
				return false, err
			}
			err := s.save(key, params)
			s.releaseTrainLock(key)
			return true, err
		}
		say("env: artifact %s is being trained by another process; waiting", key)
		for {
			time.Sleep(poll)
			if ok, err := s.load(key, params); err != nil {
				return false, err
			} else if ok {
				return false, nil
			}
			if _, err := os.Stat(s.lockPath(key)); errors.Is(err, os.ErrNotExist) {
				break // holder released (or died mid-train): re-contend
			}
			if s.lockIsStale(key) {
				say("env: stealing stale train lock %s (owner dead)", key)
				s.releaseTrainLock(key)
				break
			}
		}
	}
}

// EnsureDetector loads the preset's detector weights into d, training via
// train (which must leave d trained) if no process has produced them yet.
// Exactly one process trains per key; the rest wait and warm-start. The
// returned flag reports whether this process did the training.
func (s *ModelStore) EnsureDetector(d *detect.Detector, p Preset, train func() error, logf func(string, ...any)) (bool, error) {
	return s.ensure(s.DetectorKey(p), d.Net.Params(), train, logf)
}

// EnsureRegressor is EnsureDetector for the TTC regressor.
func (s *ModelStore) EnsureRegressor(r *regress.Regressor, p Preset, train func() error, logf func(string, ...any)) (bool, error) {
	return s.ensure(s.RegressorKey(p), r.Net.Params(), train, logf)
}
