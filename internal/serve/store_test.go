package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/blob"
	"repro/internal/exp"
)

// TestObjectStoreConformance drives the shared ObjectStore contract
// through every implementation: put/get round-trip, overwrite semantics,
// ErrNoObject, prefix listing in lexical order, idempotent delete, and
// key validation. The HTTP store runs against a real daemon handler, so
// the /store endpoints are covered by the same table.
func TestObjectStoreConformance(t *testing.T) {
	srv := New(context.Background(), Config{})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	stores := map[string]blob.ObjectStore{
		"mem":  blob.NewMemStore(),
		"dir":  blob.NewDirStore(filepath.Join(t.TempDir(), "objects")),
		"http": &HTTPStore{Base: hs.URL},
	}
	for name, s := range stores {
		t.Run(name, func(t *testing.T) {
			if _, err := s.Get("lanes/none/seg_000000"); !errors.Is(err, blob.ErrNoObject) {
				t.Fatalf("absent key: err = %v, want ErrNoObject", err)
			}
			if err := s.Put("lanes/h1/a/seg_000000", []byte("one")); err != nil {
				t.Fatal(err)
			}
			if err := s.Put("lanes/h1/a/seg_000001", []byte("two")); err != nil {
				t.Fatal(err)
			}
			if err := s.Put("lanes/h1/b/seg_000000", []byte("three")); err != nil {
				t.Fatal(err)
			}
			got, err := s.Get("lanes/h1/a/seg_000000")
			if err != nil || !bytes.Equal(got, []byte("one")) {
				t.Fatalf("get = %q, %v", got, err)
			}
			// Put overwrites: re-delivery self-heals a torn upload.
			if err := s.Put("lanes/h1/a/seg_000000", []byte("one-again")); err != nil {
				t.Fatal(err)
			}
			if got, _ := s.Get("lanes/h1/a/seg_000000"); !bytes.Equal(got, []byte("one-again")) {
				t.Fatalf("overwrite lost: %q", got)
			}
			keys, err := s.List("lanes/h1/a/")
			if err != nil {
				t.Fatal(err)
			}
			want := []string{"lanes/h1/a/seg_000000", "lanes/h1/a/seg_000001"}
			if !reflect.DeepEqual(keys, want) {
				t.Fatalf("list = %v, want %v", keys, want)
			}
			if err := s.Delete("lanes/h1/a/seg_000001"); err != nil {
				t.Fatal(err)
			}
			if err := s.Delete("lanes/h1/a/seg_000001"); err != nil {
				t.Fatalf("second delete: %v, want idempotent nil", err)
			}
			if keys, _ := s.List("lanes/h1/a/"); len(keys) != 1 {
				t.Fatalf("after delete, list = %v", keys)
			}
			for _, bad := range []string{"", "a//b", "../escape", "a/../b", "sp ace"} {
				if err := s.Put(bad, []byte("x")); err == nil {
					t.Fatalf("bad key %q accepted", bad)
				}
			}
		})
	}
}

// TestStoreEndpointsRejectBadKeys: the daemon refuses malformed keys at
// the edge, before touching its backend.
func TestStoreEndpointsRejectBadKeys(t *testing.T) {
	srv := New(context.Background(), Config{})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	req, err := http.NewRequest(http.MethodPut, hs.URL+"/store/bad%2F..%2Fkey", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("traversal key: %s, want 400", resp.Status)
	}
}

// TestServeDiskCacheSurvivesRestart is the daemon-level restart test: a
// second server generation over the same -cachedir answers the repeat
// query from disk with zero computes and byte-identical text.
func TestServeDiskCacheSurvivesRestart(t *testing.T) {
	cacheDir := t.TempDir()
	run := func(fake *fakeRunner) [][]byte {
		dc, err := NewDiskCache(cacheDir, t.Logf)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		srv := New(ctx, Config{
			Cache: dc,
			NewRunner: func(context.Context, string, func(string, ...any)) (Runner, error) {
				return fake, nil
			},
		})
		hs := httptest.NewServer(srv.Handler())
		defer hs.Close()
		return postRun(t, hs.URL, testSpecJSON)
	}

	gen1 := &fakeRunner{}
	lines1 := run(gen1)
	if gen1.count() != 1 {
		t.Fatalf("first generation computed %d times, want 1", gen1.count())
	}

	gen2 := &fakeRunner{}
	lines2 := run(gen2)
	if gen2.count() != 0 {
		t.Fatalf("second generation computed %d times, want 0 (disk cache hit)", gen2.count())
	}
	// The terminal result line must be byte-identical across the restart.
	last1, last2 := lines1[len(lines1)-1], lines2[len(lines2)-1]
	if !bytes.Equal(last1, last2) {
		t.Fatalf("result diverged across restart:\ngen1: %s\ngen2: %s", last1, last2)
	}
}

// TestDiskCacheRestartRoundTrip: a result cache reopened over the same
// directory (a daemon restart) returns the exact pre-restart bytes, stays
// write-once, and never persists a hostile key.
func TestDiskCacheRestartRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c1, err := NewDiskCache(dir, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	key := strings.Repeat("ab", 32) // hash-shaped
	payload := []byte(`{"text":"result payload"}`)
	c1.Put(key, payload)
	if got, ok := c1.Get(key); !ok || !bytes.Equal(got, payload) {
		t.Fatalf("same-instance get = %q, %v", got, ok)
	}

	c2, err := NewDiskCache(dir, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := c2.Get(key)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("post-restart get = %q, %v; want the exact pre-restart bytes", got, ok)
	}
	if c2.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c2.Len())
	}

	// Write-once: equal hashes denote identical payloads, so the first
	// write is final.
	c2.Put(key, []byte("imposter"))
	if got, _ := c2.Get(key); !bytes.Equal(got, payload) {
		t.Fatalf("write-once violated: %q", got)
	}

	// Hostile keys never touch the filesystem.
	c2.Put("../escape", payload)
	if _, ok := c2.Get("../escape"); ok {
		t.Fatal("path-traversal key round-tripped")
	}
	if c2.Len() != 1 {
		t.Fatalf("hostile key persisted: Len = %d", c2.Len())
	}
}

// TestResultCache drives the BlobCache contract over both backings: a
// miss then a hit with the exact bytes, Put copying its buffer,
// write-once, hostile keys missing without writing anything, a restart
// round-trip, and concurrent use. On disk an entry is the file
// <dir>/<key>.json.
func TestResultCache(t *testing.T) {
	mem := blob.NewMemStore()
	dir := t.TempDir()
	backings := []struct {
		name string
		open func(t *testing.T) *BlobCache // a fresh handle on the same backing
	}{
		{"mem", func(*testing.T) *BlobCache { return NewBlobCache(mem, nil) }},
		{"dir", func(t *testing.T) *BlobCache {
			c, err := NewDiskCache(dir, t.Logf)
			if err != nil {
				t.Fatal(err)
			}
			return c
		}},
	}
	for _, b := range backings {
		t.Run(b.name, func(t *testing.T) {
			c := b.open(t)
			key := strings.Repeat("ab", 32) // hash-shaped
			payload := []byte(`{"text":"result payload"}`)
			if _, ok := c.Get(key); ok {
				t.Fatal("empty cache hit")
			}
			buf := append([]byte(nil), payload...)
			c.Put(key, buf)
			buf[0] = 'X' // Put must copy the caller's buffer
			if got, ok := c.Get(key); !ok || !bytes.Equal(got, payload) {
				t.Fatalf("get = %q, %v; want the exact put bytes", got, ok)
			}
			c.Put(key, []byte("imposter"))
			if got, _ := c.Get(key); !bytes.Equal(got, payload) {
				t.Fatalf("write-once violated: %q", got)
			}

			for _, bad := range []string{"a/b", "..", strings.Repeat("a", 129)} {
				c.Put(bad, payload)
				if _, ok := c.Get(bad); ok {
					t.Fatalf("key %q hit", bad)
				}
			}
			if n := c.Len(); n != 1 {
				t.Fatalf("Len = %d after hostile puts, want 1", n)
			}

			restarted := b.open(t)
			if got, ok := restarted.Get(key); !ok || !bytes.Equal(got, payload) {
				t.Fatalf("after restart get = %q, %v; want the exact pre-restart bytes", got, ok)
			}

			if b.name == "dir" {
				entries, err := os.ReadDir(dir)
				if err != nil {
					t.Fatal(err)
				}
				var names []string
				for _, e := range entries {
					names = append(names, e.Name())
				}
				if want := []string{key + ".json"}; !reflect.DeepEqual(names, want) {
					t.Fatalf("cache dir holds %v, want %v", names, want)
				}
			}

			// Concurrent writers and readers over a shared key set (-race).
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					keys := []string{"a", "b", "c", "d"}
					for i := 0; i < 50; i++ {
						k := keys[(g+i)%len(keys)]
						restarted.Put(k, []byte(k))
						if v, ok := restarted.Get(k); ok && string(v) != k {
							t.Errorf("key %s holds %q", k, v)
							return
						}
					}
				}(g)
			}
			wg.Wait()
			if n := restarted.Len(); n != 1+4 {
				t.Fatalf("cache holds %d entries, want 5", n)
			}
		})
	}
}

// TestResultCacheApartFromStore: the default result cache never shares
// the /store backing, so bytes a client PUTs under <hash>.json are not a
// cached result.
func TestResultCacheApartFromStore(t *testing.T) {
	fake := &fakeRunner{}
	_, hs := newFakeServer(t, fake)
	spec, err := exp.ParseSpec([]byte(testSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	key, err := exp.SpecHash(spec)
	if err != nil {
		t.Fatal(err)
	}
	store := &HTTPStore{Base: hs.URL}
	if err := store.Put(key+".json", []byte(`{"text":"forged"}`)); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Post(hs.URL+"/validate", "application/json", strings.NewReader(testSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	var v struct {
		Key    string `json:"key"`
		Cached bool   `json:"cached"`
	}
	err = json.NewDecoder(resp.Body).Decode(&v)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if v.Key != key || v.Cached {
		t.Fatalf("validate after a /store PUT: %+v, want key %s uncached", v, key)
	}
	resp, err = http.Get(hs.URL + "/results/" + key)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /results after a /store PUT: %s, want 404", resp.Status)
	}
	if keys, _ := store.List(""); len(keys) != 1 {
		t.Fatalf("store holds %v, want only the PUT object", keys)
	}
}
