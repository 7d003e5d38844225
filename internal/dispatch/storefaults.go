package dispatch

// Store-level fault injection: ObjectStore wrappers that manufacture the
// failure classes a remote checkpoint replica suffers — transient
// unavailability, a torn (partially delivered) segment upload that
// reports success, duplicate segment delivery — plus the -injectstore
// grammar that arms them from the CLI. These compose with the transport
// wrappers in faults.go: a worker can be killed mid-shard WHILE its
// store is flaking, and the merged report must still come out
// byte-identical to the unsharded run.

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"repro/internal/blob"
)

// OutageStore fails the first Times operations (any kind) with a
// transient error, then passes everything through — the window a store
// daemon restart or network partition opens. The store transport's
// capped jittered retry must ride it out.
type OutageStore struct {
	Inner blob.ObjectStore
	Times int

	mu    sync.Mutex
	fired int
}

func (s *OutageStore) trip() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fired < s.Times {
		s.fired++
		return errInjected{fmt.Sprintf("store unavailable (outage %d/%d)", s.fired, s.Times)}
	}
	return nil
}

// Put implements blob.ObjectStore.
func (s *OutageStore) Put(key string, data []byte) error {
	if err := s.trip(); err != nil {
		return err
	}
	return s.Inner.Put(key, data)
}

// Get implements blob.ObjectStore.
func (s *OutageStore) Get(key string) ([]byte, error) {
	if err := s.trip(); err != nil {
		return nil, err
	}
	return s.Inner.Get(key)
}

// List implements blob.ObjectStore.
func (s *OutageStore) List(prefix string) ([]string, error) {
	if err := s.trip(); err != nil {
		return nil, err
	}
	return s.Inner.List(prefix)
}

// Delete implements blob.ObjectStore.
func (s *OutageStore) Delete(key string) error {
	if err := s.trip(); err != nil {
		return err
	}
	return s.Inner.Delete(key)
}

// TornPutStore stores only the first half of the Nth Put's payload and
// reports success — the partial upload a crashed or lying store client
// leaves behind. The checkpoint load path must degrade the segment to
// its valid prefix and recompute only the sheared records.
type TornPutStore struct {
	Inner blob.ObjectStore
	// N is the 1-based Put call to tear (default 1).
	N int

	mu    sync.Mutex
	calls int
}

// Put implements blob.ObjectStore.
func (s *TornPutStore) Put(key string, data []byte) error {
	s.mu.Lock()
	s.calls++
	n := s.N
	if n <= 0 {
		n = 1
	}
	tear := s.calls == n
	s.mu.Unlock()
	if tear && len(data) > 1 {
		data = data[:len(data)/2]
	}
	return s.Inner.Put(key, data)
}

// Get implements blob.ObjectStore.
func (s *TornPutStore) Get(key string) ([]byte, error) { return s.Inner.Get(key) }

// List implements blob.ObjectStore.
func (s *TornPutStore) List(prefix string) ([]string, error) { return s.Inner.List(prefix) }

// Delete implements blob.ObjectStore.
func (s *TornPutStore) Delete(key string) error { return s.Inner.Delete(key) }

// DuplicatePutStore delivers every segment twice: once under its own
// key and once under the immediately following segment number — the
// at-least-once re-delivery an ambiguous timeout produces. The load
// path must dedup the doubled records by grid index.
type DuplicatePutStore struct {
	Inner blob.ObjectStore
}

// Put implements blob.ObjectStore.
func (s *DuplicatePutStore) Put(key string, data []byte) error {
	if err := s.Inner.Put(key, data); err != nil {
		return err
	}
	if dup, ok := nextSegKey(key); ok {
		return s.Inner.Put(dup, data)
	}
	return nil
}

// nextSegKey maps .../seg_000003 to .../seg_000004; false for keys that
// are not lane segments.
func nextSegKey(key string) (string, bool) {
	i := strings.LastIndex(key, "/seg_")
	if i < 0 {
		return "", false
	}
	n, err := strconv.Atoi(key[i+len("/seg_"):])
	if err != nil {
		return "", false
	}
	return fmt.Sprintf("%s/seg_%06d", key[:i], n+1), true
}

// Get implements blob.ObjectStore.
func (s *DuplicatePutStore) Get(key string) ([]byte, error) { return s.Inner.Get(key) }

// List implements blob.ObjectStore.
func (s *DuplicatePutStore) List(prefix string) ([]string, error) { return s.Inner.List(prefix) }

// Delete implements blob.ObjectStore.
func (s *DuplicatePutStore) Delete(key string) error { return s.Inner.Delete(key) }

// StoreInjection is one parsed -injectstore directive.
type StoreInjection struct {
	Fault string // outage | torn | dup
	N     int
}

// ParseStoreInjections parses the -injectstore grammar: comma-separated
// fault[:N] directives, e.g. "outage:3,torn:1,dup". An empty (or
// all-whitespace) string means no injections; anything else must parse
// exactly — empty directives between commas, a repeated fault, and
// non-digit count tokens are errors, not silently skipped.
func ParseStoreInjections(s string) ([]StoreInjection, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	seen := make(map[string]bool)
	var out []StoreInjection
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			return nil, fmt.Errorf("dispatch: bad -injectstore %q: empty directive (stray comma)", s)
		}
		fault, nStr, hasN := strings.Cut(part, ":")
		switch fault {
		case "outage", "torn", "dup":
		default:
			return nil, fmt.Errorf("dispatch: bad -injectstore %q: unknown fault %q (want outage|torn|dup)", part, fault)
		}
		inj := StoreInjection{Fault: fault, N: 1}
		if hasN {
			n, err := parseDigits(nStr)
			if err != nil {
				return nil, fmt.Errorf("dispatch: bad -injectstore %q: count %q (want digits)", part, nStr)
			}
			inj.N = n
		}
		if seen[fault] {
			return nil, fmt.Errorf("dispatch: bad -injectstore %q: duplicate directive %s", s, fault)
		}
		seen[fault] = true
		out = append(out, inj)
	}
	return out, nil
}

// ApplyStoreInjections wraps the store replica's backing ObjectStore
// with the corresponding fault wrappers, in directive order. Without a
// replica (-transport fs) there is no store to fault.
func ApplyStoreInjections(st *StoreTransport, injs []StoreInjection) error {
	if len(injs) == 0 {
		return nil
	}
	if st == nil {
		return fmt.Errorf("dispatch: -injectstore needs the store transport, not fs")
	}
	for _, inj := range injs {
		switch inj.Fault {
		case "outage":
			st.Store = &OutageStore{Inner: st.Store, Times: inj.N}
		case "torn":
			st.Store = &TornPutStore{Inner: st.Store, N: inj.N}
		case "dup":
			st.Store = &DuplicatePutStore{Inner: st.Store}
		}
	}
	return nil
}
