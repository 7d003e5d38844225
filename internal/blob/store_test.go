package blob

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestValidStoreKey pins the key alphabet down.
func TestValidStoreKey(t *testing.T) {
	for _, ok := range []string{"a", "lanes/abc123/shard_0_of_2.jsonl/seg_000000", "A-b_c.d"} {
		if !ValidStoreKey(ok) {
			t.Fatalf("ValidStoreKey(%q) = false", ok)
		}
	}
	long := strings.Repeat("a", 513)
	for _, bad := range []string{"", ".", "..", "a/..", "/a", "a/", "a b", "a\x00b", long} {
		if ValidStoreKey(bad) {
			t.Fatalf("ValidStoreKey(%q) = true", bad)
		}
	}
}

// TestKeySafe: mapped names are valid single-segment keys that keep
// their alphabet characters.
func TestKeySafe(t *testing.T) {
	for in, want := range map[string]string{
		"quick":     "quick",
		"a/b c":     "a_b_c",
		"ü-x.y_z":   "_-x.y_z",
		"../up\x00": ".._up_",
	} {
		if got := KeySafe(in); got != want {
			t.Fatalf("KeySafe(%q) = %q, want %q", in, got, want)
		}
		if !ValidStoreKey("k_" + KeySafe(in)) {
			t.Fatalf("KeySafe(%q) leaves an invalid key", in)
		}
	}
}

// TestDirStoreTempFilesInvisible: a concurrent writer's temp files never
// appear in listings — an object is absent or complete.
func TestDirStoreTempFilesInvisible(t *testing.T) {
	root := t.TempDir()
	s := NewDirStore(root)
	if err := s.Put("lanes/h/a/seg_000000", []byte("x")); err != nil {
		t.Fatal(err)
	}
	// Simulate an in-flight atomic write.
	if err := os.WriteFile(filepath.Join(root, "lanes", "h", "a", ".obj_inflight"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	keys, err := s.List("lanes/")
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 1 || keys[0] != "lanes/h/a/seg_000000" {
		t.Fatalf("list leaked temp files: %v", keys)
	}
}
