package exp_test

import (
	"sync"
	"testing"

	"repro/internal/blob"
	"repro/internal/exp"
	"repro/internal/serve"
)

// TestMemoryCacheWriteOnceAndConcurrency checks the exp.ResultCache
// contract on the in-memory cache a daemon builds when given none: a
// serve.BlobCache over a blob.MemStore.
func TestMemoryCacheWriteOnceAndConcurrency(t *testing.T) {
	c := serve.NewBlobCache(blob.NewMemStore(), nil)
	var _ exp.ResultCache = c
	c.Put("k", []byte("first"))
	c.Put("k", []byte("second"))
	if v, ok := c.Get("k"); !ok || string(v) != "first" {
		t.Fatalf("write-once violated: got %q ok=%v", v, ok)
	}
	if _, ok := c.Get("missing"); ok {
		t.Fatal("missing key reported present")
	}

	// Put must copy: mutating the caller's buffer after Put must not
	// change the cached bytes.
	buf := []byte("payload")
	c.Put("copy", buf)
	buf[0] = 'X'
	if v, _ := c.Get("copy"); string(v) != "payload" {
		t.Fatalf("cache aliases the caller's buffer: %q", v)
	}

	// Concurrent writers and readers over a shared key set (-race).
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			keys := []string{"a", "b", "c", "d"}
			for i := 0; i < 200; i++ {
				k := keys[(g+i)%len(keys)]
				c.Put(k, []byte(k))
				if v, ok := c.Get(k); ok && string(v) != k {
					t.Errorf("key %s holds %q", k, v)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() != 4+2 {
		t.Fatalf("cache holds %d entries, want 6", c.Len())
	}
}
