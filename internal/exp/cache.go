package exp

// ResultCache is the content-addressed result cache of the serving layer:
// keys are canonical spec hashes (SpecHash), values the serialized result
// payload of the run the spec addresses. Because equal hashes denote
// bit-identical runs, Get either misses or returns exactly the bytes a
// fresh compute would produce — a hit is zero-compute and provably
// correct. Implementations must be safe for concurrent use.
type ResultCache interface {
	// Get returns the payload stored under key. Callers must not mutate
	// the returned slice.
	Get(key string) ([]byte, bool)
	// Put stores the payload under key. Put copies val, so callers may
	// reuse their buffer. Entries are write-once by construction (the
	// same key can only ever map to the same bytes); a second Put under
	// an existing key keeps the first value.
	Put(key string, val []byte)
}
