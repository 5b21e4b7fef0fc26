// Package store is the durable tier of the serve subsystem's result cache
// (DESIGN.md §8): a disk-backed content-addressed store mapping spec hashes
// to marshaled result bytes. Because a result is a pure function of its
// canonical spec (DESIGN.md §3–§6), entries are immutable and never stale —
// a restarted server answers any previously computed spec byte-identically
// from here, with no invalidation protocol.
//
// Durability discipline: writes land in a tmp/ staging file, are fsynced,
// and are renamed into place, then the directory is fsynced — so a crash at
// any point leaves either no entry or a complete one, never a torn file.
// Every entry carries a checksum header that reads verify; an entry that
// fails verification (torn by a non-atomic filesystem, bit-rotted, or
// hand-edited) is moved to quarantine/ and reported as a miss, so corruption
// degrades to recomputation instead of serving garbage.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/chaos"
	"repro/internal/obs"
)

// Entry file layout: a one-line header followed by the raw payload.
//
//	v1 <hex sha256 of payload>\n<payload>
//
// The header names the format version and the payload checksum; the file
// name is the content address (the spec hash), which is the lookup key, not
// the payload digest.
const headerPrefix = "v1 "

// Store is a content-addressed result store rooted at one directory. All
// methods are safe for concurrent use. The zero value is not usable; call
// Open.
type Store struct {
	dir    string
	faults *chaos.Faults
	met    Metrics

	mu          sync.Mutex
	hits        uint64
	misses      uint64
	puts        uint64
	quarantined uint64
}

// Metrics is the store's optional instrumentation hook set (DESIGN.md §10).
// Every field is nil-safe: the zero value disables that instrument, and an
// uninstrumented store pays only nil checks. Latencies are in seconds.
type Metrics struct {
	// GetSeconds observes every Get, misses and quarantines included.
	GetSeconds *obs.Histogram
	// PutSeconds observes every completed put (both Put and PutRelaxed),
	// staging + checksum + rename + any fsyncs.
	PutSeconds *obs.Histogram
	// FsyncSeconds observes each file/directory fsync a durable Put issues.
	FsyncSeconds *obs.Histogram
	// Quarantined counts entries moved to quarantine/ on checksum failure.
	Quarantined *obs.Counter
}

// SetMetrics installs the instrumentation hooks. Call before serving
// traffic, like SetFaults.
func (s *Store) SetMetrics(m Metrics) { s.met = m }

// Counters is a snapshot of the store's lifetime activity.
type Counters struct {
	Hits        uint64 `json:"hits"`
	Misses      uint64 `json:"misses"`
	Puts        uint64 `json:"puts"`
	Quarantined uint64 `json:"quarantined"`
}

// Open opens (creating if needed) a store rooted at dir, laying out the
// results/, tmp/, and quarantine/ subdirectories and sweeping any staging
// debris a previous crash left in tmp/ — staged-but-unrenamed writes are by
// construction not yet entries, so removing them is always safe.
func Open(dir string) (*Store, error) {
	for _, sub := range []string{"results", "tmp", "quarantine"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("store: open %s: %w", dir, err)
		}
	}
	tmp := filepath.Join(dir, "tmp")
	entries, err := os.ReadDir(tmp)
	if err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	for _, e := range entries {
		if err := os.Remove(filepath.Join(tmp, e.Name())); err != nil {
			return nil, fmt.Errorf("store: sweeping stale staging file: %w", err)
		}
	}
	return &Store{dir: dir}, nil
}

// SetFaults installs a chaos fault registry consulted at the "store.put" and
// "store.get" sites, simulating disk I/O failure. Call before serving; nil
// (the default) disables injection.
func (s *Store) SetFaults(f *chaos.Faults) { s.faults = f }

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// validKey rejects keys that are not plain lowercase-hex content hashes —
// anything else could escape the results directory or collide with staging
// conventions.
func validKey(key string) error {
	if len(key) == 0 || len(key) > 128 {
		return fmt.Errorf("store: invalid key %q", key)
	}
	for _, c := range key {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return fmt.Errorf("store: invalid key %q", key)
		}
	}
	return nil
}

// Put durably stores data under key. It is idempotent: re-putting an
// existing key is a no-op (the determinism contract makes the value
// identical). On return the entry survives a crash of the process or the
// machine (modulo the filesystem honoring fsync).
func (s *Store) Put(key string, data []byte) error {
	return s.put(key, data, true)
}

// PutRelaxed stores data under key with the same atomicity (stage in tmp/,
// rename into place) and the same checksum framing as Put, but without
// fsync. It is for recompute-hint keyspaces — prefix snapshots (DESIGN.md
// §9) — whose loss costs a cold recomputation, never correctness: a process
// crash cannot tear the entry (rename is atomic in the kernel's namespace),
// and a machine crash that corrupts it is caught by the checksum on read
// and quarantined. Skipping the two flushes keeps snapshot publication off
// the hot path's latency budget.
func (s *Store) PutRelaxed(key string, data []byte) error {
	return s.put(key, data, false)
}

func (s *Store) put(key string, data []byte, durable bool) error {
	if err := validKey(key); err != nil {
		return err
	}
	if s.met.PutSeconds != nil {
		defer s.met.PutSeconds.ObserveSince(time.Now())
	}
	if err := s.faults.Check("store.put"); err != nil {
		return fmt.Errorf("store: put %s: %w", key, err)
	}
	final := filepath.Join(s.dir, "results", key)
	if _, err := os.Stat(final); err == nil {
		return nil
	}
	f, err := os.CreateTemp(filepath.Join(s.dir, "tmp"), key+".*")
	if err != nil {
		return fmt.Errorf("store: put %s: %w", key, err)
	}
	staged := f.Name()
	cleanup := func() { f.Close(); os.Remove(staged) }
	if _, err := f.WriteString(entryHeader(data)); err != nil {
		cleanup()
		return fmt.Errorf("store: put %s: %w", key, err)
	}
	if _, err := f.Write(data); err != nil {
		cleanup()
		return fmt.Errorf("store: put %s: %w", key, err)
	}
	if durable {
		t0 := time.Now()
		if err := f.Sync(); err != nil {
			cleanup()
			return fmt.Errorf("store: put %s: %w", key, err)
		}
		if s.met.FsyncSeconds != nil {
			s.met.FsyncSeconds.ObserveSince(t0)
		}
	}
	if err := f.Close(); err != nil {
		os.Remove(staged)
		return fmt.Errorf("store: put %s: %w", key, err)
	}
	if err := os.Rename(staged, final); err != nil {
		os.Remove(staged)
		return fmt.Errorf("store: put %s: %w", key, err)
	}
	if durable {
		t0 := time.Now()
		if err := syncDir(filepath.Join(s.dir, "results")); err != nil {
			return fmt.Errorf("store: put %s: %w", key, err)
		}
		if s.met.FsyncSeconds != nil {
			s.met.FsyncSeconds.ObserveSince(t0)
		}
	}
	s.mu.Lock()
	s.puts++
	s.mu.Unlock()
	return nil
}

// Get returns the payload stored under key. A missing entry is (nil, false,
// nil). An entry that fails checksum verification is moved to quarantine/
// and reported as a miss — the caller recomputes, and the bad bytes are
// preserved for inspection instead of being served or silently deleted.
// A non-nil error means the read itself failed (I/O error, injected fault).
func (s *Store) Get(key string) ([]byte, bool, error) {
	if err := validKey(key); err != nil {
		return nil, false, err
	}
	if s.met.GetSeconds != nil {
		defer s.met.GetSeconds.ObserveSince(time.Now())
	}
	if err := s.faults.Check("store.get"); err != nil {
		return nil, false, fmt.Errorf("store: get %s: %w", key, err)
	}
	final := filepath.Join(s.dir, "results", key)
	raw, err := os.ReadFile(final)
	if errors.Is(err, fs.ErrNotExist) {
		s.mu.Lock()
		s.misses++
		s.mu.Unlock()
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("store: get %s: %w", key, err)
	}
	payload, ok := parseEntry(raw)
	if !ok {
		// Quarantine rather than delete: the entry is evidence. A concurrent
		// Get may have already moved it; losing that race is fine.
		if err := os.Rename(final, filepath.Join(s.dir, "quarantine", key)); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return nil, false, fmt.Errorf("store: quarantining corrupt entry %s: %w", key, err)
		}
		s.mu.Lock()
		s.quarantined++
		s.misses++
		s.mu.Unlock()
		if s.met.Quarantined != nil {
			s.met.Quarantined.Inc()
		}
		return nil, false, nil
	}
	s.mu.Lock()
	s.hits++
	s.mu.Unlock()
	return payload, true, nil
}

// entryHeader is the header line framing payload: the format version and
// the payload's checksum.
func entryHeader(payload []byte) string {
	sum := sha256.Sum256(payload)
	return headerPrefix + hex.EncodeToString(sum[:]) + "\n"
}

// parseEntry splits and verifies one entry file, returning the payload and
// whether the checksum header matched.
func parseEntry(raw []byte) ([]byte, bool) {
	nl := bytes.IndexByte(raw, '\n')
	if nl < 0 {
		return nil, false
	}
	payload := raw[nl+1:]
	if string(raw[:nl+1]) != entryHeader(payload) {
		return nil, false
	}
	return payload, true
}

// Len returns the number of durable entries.
func (s *Store) Len() (int, error) {
	entries, err := os.ReadDir(filepath.Join(s.dir, "results"))
	if err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	return len(entries), nil
}

// Counters returns a snapshot of the lifetime activity counters.
func (s *Store) Counters() Counters {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Counters{Hits: s.hits, Misses: s.misses, Puts: s.puts, Quarantined: s.quarantined}
}

// syncDir fsyncs a directory, making a completed rename durable.
func syncDir(path string) error {
	d, err := os.Open(path)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
