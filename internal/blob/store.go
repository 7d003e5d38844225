// Package blob is the repository's one keyed byte store: every piece of
// state that outlives a process — lane segments of the store checkpoint
// transport, the daemon's result cache and the trained-model artifacts —
// is published and read back through it. Keys are slash-separated paths
// (lanes/<grid-hash>/<lane>/seg_N, <spec-hash>.json, <model>.weights);
// values are opaque. Two implementations cover local use: MemStore
// (in-process, tests and default daemon state) and DirStore (a directory
// tree with atomic temp+rename publication — an object is either absent
// or complete, never torn by the writer). The daemon's /store endpoints
// and their HTTP client live in the serve package.
package blob

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// ErrNoObject marks a Get against a key the store holds no object for.
var ErrNoObject = errors.New("blob: no such object")

// ObjectStore is the minimal blob API. Put overwrites (re-delivery of a
// segment is idempotent when the bytes match and self-healing when a
// retry replaces a torn upload); Get returns ErrNoObject for absent keys;
// List enumerates keys under a prefix in lexical order; Delete is
// idempotent (absent keys succeed). Implementations must be safe for
// concurrent use.
type ObjectStore interface {
	Put(key string, data []byte) error
	Get(key string) ([]byte, error)
	List(prefix string) ([]string, error)
	Delete(key string) error
}

// ValidStoreKey reports whether key is an acceptable object key: one or
// more non-empty slash-separated segments, none of them path-traversal
// tokens, drawn from a filesystem- and URL-safe alphabet. Both the
// DirStore (which maps keys to paths) and the daemon endpoints enforce
// this before touching storage.
func ValidStoreKey(key string) bool {
	if key == "" || len(key) > 512 {
		return false
	}
	for _, seg := range strings.Split(key, "/") {
		if seg == "" || seg == "." || seg == ".." {
			return false
		}
		for _, r := range seg {
			if !keyRune(r) {
				return false
			}
		}
	}
	return true
}

// keyRune reports whether r belongs to the key alphabet (the '/'
// separator aside).
func keyRune(r rune) bool {
	return r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' ||
		r == '.' || r == '_' || r == '-'
}

// KeySafe maps every character of s outside the key alphabet (the '/'
// separator included) to '_', so s can be embedded as the readable part
// of a single-segment key.
func KeySafe(s string) string {
	return strings.Map(func(r rune) rune {
		if keyRune(r) {
			return r
		}
		return '_'
	}, s)
}

// MemStore is the in-process ObjectStore: a mutex-guarded map. It backs
// the daemon's /store endpoints and result cache when no directory is
// configured, and the unit tests.
type MemStore struct {
	mu sync.RWMutex
	m  map[string][]byte
}

// NewMemStore returns an empty in-memory object store.
func NewMemStore() *MemStore { return &MemStore{m: map[string][]byte{}} }

// Put implements ObjectStore.
func (s *MemStore) Put(key string, data []byte) error {
	if !ValidStoreKey(key) {
		return fmt.Errorf("blob: bad object key %q", key)
	}
	s.mu.Lock()
	s.m[key] = append([]byte(nil), data...)
	s.mu.Unlock()
	return nil
}

// Get implements ObjectStore.
func (s *MemStore) Get(key string) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	v, ok := s.m[key]
	if !ok {
		return nil, ErrNoObject
	}
	return append([]byte(nil), v...), nil
}

// List implements ObjectStore.
func (s *MemStore) List(prefix string) ([]string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var keys []string
	for k := range s.m {
		if strings.HasPrefix(k, prefix) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys, nil
}

// Delete implements ObjectStore.
func (s *MemStore) Delete(key string) error {
	s.mu.Lock()
	delete(s.m, key)
	s.mu.Unlock()
	return nil
}

// DirStore is a directory-tree ObjectStore: each key maps to the file
// <root>/<key>, published atomically (temp file + rename), so a reader
// never observes a half-written object from this writer — the only torn
// segments are ones a faulty uploader stored torn, which the checkpoint
// load path tolerates. Concurrent Puts of one key race benignly: each
// rename replaces the file whole. The root is created lazily on first
// Put.
type DirStore struct {
	root string
}

// NewDirStore returns a DirStore rooted at dir.
func NewDirStore(dir string) *DirStore { return &DirStore{root: dir} }

func (s *DirStore) path(key string) (string, error) {
	if !ValidStoreKey(key) {
		return "", fmt.Errorf("blob: bad object key %q", key)
	}
	return filepath.Join(s.root, filepath.FromSlash(key)), nil
}

// Put implements ObjectStore. It is the repository's one temp+rename
// writer.
func (s *DirStore) Put(key string, data []byte) error {
	p, err := s.path(key)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return fmt.Errorf("blob: put: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(p), ".obj_*")
	if err != nil {
		return fmt.Errorf("blob: put: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close() //advlint:close-ok error-path cleanup; the write failure is returned
		os.Remove(tmp.Name())
		return fmt.Errorf("blob: put: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("blob: put: %w", err)
	}
	if err := os.Rename(tmp.Name(), p); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("blob: put: %w", err)
	}
	return nil
}

// Get implements ObjectStore.
func (s *DirStore) Get(key string) ([]byte, error) {
	p, err := s.path(key)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(p)
	if errors.Is(err, os.ErrNotExist) {
		return nil, ErrNoObject
	}
	if err != nil {
		return nil, fmt.Errorf("blob: get: %w", err)
	}
	return data, nil
}

// List implements ObjectStore.
func (s *DirStore) List(prefix string) ([]string, error) {
	var keys []string
	err := filepath.WalkDir(s.root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			if errors.Is(err, os.ErrNotExist) {
				return nil // empty store
			}
			return err
		}
		if d.IsDir() || strings.HasPrefix(d.Name(), ".obj_") {
			return nil
		}
		rel, err := filepath.Rel(s.root, p)
		if err != nil {
			return err
		}
		if key := filepath.ToSlash(rel); strings.HasPrefix(key, prefix) {
			keys = append(keys, key)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("blob: list: %w", err)
	}
	sort.Strings(keys)
	return keys, nil
}

// Delete implements ObjectStore.
func (s *DirStore) Delete(key string) error {
	p, err := s.path(key)
	if err != nil {
		return err
	}
	if err := os.Remove(p); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("blob: delete: %w", err)
	}
	return nil
}
