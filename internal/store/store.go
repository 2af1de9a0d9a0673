// Package store is a content-addressed, disk-persistent result store: the
// durable form of the harness.Runner memo cache. Entries are keyed by the
// SHA-256 fingerprint of a canonical run key (experiment kind + JSON machine
// config + library + cycle budget), so any process that rebuilds the same key
// — misar-fig, misar-served, the bench module, across restarts — reads the
// same record.
//
// Durability and corruption model: every record is written to a temp file,
// fsync'd, and renamed into place, so a crash never leaves a partially
// written record under a live name. Reads verify a magic, a length, and a
// CRC-32 before trusting the payload; any mismatch (torn rename target,
// truncated file, bit rot, foreign file) evicts the entry — the file is
// removed and the lookup reports a miss. A corrupt store therefore costs a
// re-simulation, never a panic or a wrong result.
package store

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"io/fs"
	"log/slog"
	"os"
	"path/filepath"
	"sync/atomic"

	"misar/internal/obs"
)

// magic brands every record file; "MSR1" bumps with any layout change.
const magic = "MSR1"

// headerSize is magic + uint32 payload length + uint32 CRC-32 (IEEE).
const headerSize = len(magic) + 4 + 4

// maxPayload bounds a record payload; a metered 64-tile report is ~100KB,
// so 64MB is three orders of magnitude of headroom while still rejecting a
// corrupt length field before allocating.
const maxPayload = 64 << 20

// Stats counts store activity since Open. Eviction means a record failed
// verification and was deleted.
type Stats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Puts      uint64 `json:"puts"`
	Evictions uint64 `json:"evictions"`
}

// Store is a handle on one store directory. It is safe for concurrent use
// by multiple goroutines and, because records are immutable once renamed
// into place, by multiple processes sharing the directory.
type Store struct {
	dir string
	log atomic.Pointer[slog.Logger] // nil disables eviction logging

	hits      atomic.Uint64
	misses    atomic.Uint64
	puts      atomic.Uint64
	evictions atomic.Uint64
}

// Open returns a Store rooted at dir, creating the directory if needed.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// SetLogger attaches a structured logger. Corruption evictions — silent
// before — are logged with the fingerprint, file path, verification failure
// reason, and (via GetCtx) the trace ID of the request that tripped over
// the bad record, so an operator can tell bit rot from a torn write and
// correlate it with the job that paid the re-simulation.
func (s *Store) SetLogger(l *slog.Logger) { s.log.Store(l) }

// Fingerprint maps a canonical run key to its content address (the SHA-256
// hex digest). Callers pass fingerprints, not raw keys, to Get/Put so the
// hashing policy lives in exactly one place.
func Fingerprint(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:])
}

// path shards records by the first fingerprint byte to keep directory
// listings sane for large sweeps (16/64 full figure sweep is ~550 records).
func (s *Store) path(fp string) string {
	return filepath.Join(s.dir, fp[:2], fp[2:]+".rec")
}

// Get returns the payload stored under fp. A record that fails any
// verification step is evicted (removed) and reported as a miss.
func (s *Store) Get(fp string) ([]byte, bool) {
	return s.GetCtx(context.Background(), fp)
}

// GetCtx is Get with a context for observability only: when the ctx carries
// a trace ID (obs.WithTrace) an eviction log line is tagged with it. The
// lookup itself never blocks on the context.
func (s *Store) GetCtx(ctx context.Context, fp string) ([]byte, bool) {
	if len(fp) != 2*sha256.Size {
		s.misses.Add(1)
		return nil, false
	}
	p := s.path(fp)
	raw, err := os.ReadFile(p)
	if err != nil {
		s.misses.Add(1)
		return nil, false
	}
	payload, reason := decode(raw)
	if reason != "" {
		os.Remove(p)
		s.evictions.Add(1)
		s.misses.Add(1)
		if l := s.log.Load(); l != nil {
			attrs := []slog.Attr{
				slog.String("fingerprint", fp),
				slog.String("path", p),
				slog.String("reason", reason),
				slog.Int("bytes", len(raw)),
			}
			if id := obs.TraceIDOf(ctx); id != "" {
				attrs = append(attrs, slog.String("trace", id))
			}
			l.LogAttrs(ctx, slog.LevelWarn, "store: corrupt record evicted", attrs...)
		}
		return nil, false
	}
	s.hits.Add(1)
	return payload, true
}

// decode verifies a record image and returns its payload; a non-empty
// reason names the verification step that failed.
func decode(raw []byte) (payload []byte, reason string) {
	if len(raw) < headerSize || string(raw[:len(magic)]) != magic {
		return nil, "bad magic or truncated header"
	}
	n := binary.LittleEndian.Uint32(raw[len(magic):])
	sum := binary.LittleEndian.Uint32(raw[len(magic)+4:])
	if n > maxPayload || len(raw) != headerSize+int(n) {
		return nil, "length mismatch"
	}
	payload = raw[headerSize:]
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, "crc mismatch"
	}
	return payload, ""
}

// PutCtx is Put with a context for observability symmetry with GetCtx; the
// write itself never blocks on the context.
func (s *Store) PutCtx(_ context.Context, fp string, payload []byte) error {
	return s.Put(fp, payload)
}

// Put stores payload under fp, atomically: the record is staged in a temp
// file, fsync'd, and renamed over the final name. Concurrent writers of the
// same fingerprint are harmless — both write identical bytes (content
// addressing) and rename is atomic, so readers see one complete record.
func (s *Store) Put(fp string, payload []byte) error {
	if len(fp) != 2*sha256.Size {
		return fmt.Errorf("store: bad fingerprint %q", fp)
	}
	if len(payload) > maxPayload {
		return fmt.Errorf("store: payload %d bytes exceeds limit", len(payload))
	}
	p := s.path(fp)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return fmt.Errorf("store: put: %w", err)
	}
	var hdr [headerSize]byte
	copy(hdr[:], magic)
	binary.LittleEndian.PutUint32(hdr[len(magic):], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[len(magic)+4:], crc32.ChecksumIEEE(payload))

	tmp, err := os.CreateTemp(filepath.Dir(p), ".tmp-*")
	if err != nil {
		return fmt.Errorf("store: put: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(hdr[:]); err == nil {
		_, err = tmp.Write(payload)
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("store: put: %w", err)
	}
	if err := os.Rename(tmp.Name(), p); err != nil {
		return fmt.Errorf("store: put: %w", err)
	}
	s.puts.Add(1)
	return nil
}

// Len walks the store and counts verified-extension record files (it does
// not validate contents; Get does that lazily). Used by tests and smoke
// checks, not hot paths.
func (s *Store) Len() int {
	n := 0
	filepath.WalkDir(s.dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && filepath.Ext(path) == ".rec" {
			n++
		}
		return nil
	})
	return n
}

// Stats returns the activity counters since Open.
func (s *Store) Stats() Stats {
	return Stats{
		Hits:      s.hits.Load(),
		Misses:    s.misses.Load(),
		Puts:      s.puts.Load(),
		Evictions: s.evictions.Load(),
	}
}
