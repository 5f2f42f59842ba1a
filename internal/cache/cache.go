// Package cache is the content-addressed result store of the compile
// service: an in-memory LRU over opaque byte payloads keyed by a 32-byte
// content address (the canonical SHA-256 of a compile's inputs, see
// autoncs.CanonicalHash), with an optional on-disk layer that survives
// process restarts.
//
// The store never interprets payloads itself; a caller that does hands
// GetDetail a check for the bytes it reads back from disk. Because keys
// address the *inputs* of a deterministic computation, a hit is bit-exact
// by construction: the stored bytes are exactly what recomputing would
// produce, so the service can serve them without any freshness or
// equality check.
package cache

import (
	"container/list"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
)

// Key is a 32-byte content address (SHA-256 of the canonical input
// encoding).
type Key [32]byte

// Hex renders the key as lowercase hex — the URL and filename form.
func (k Key) Hex() string { return hex.EncodeToString(k[:]) }

// ParseKey parses the 64-char lowercase-hex form back into a Key.
func ParseKey(s string) (Key, error) {
	var k Key
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != len(k) {
		return k, fmt.Errorf("cache: %q is not a 64-char hex key", s)
	}
	copy(k[:], b)
	return k, nil
}

// Options configures a Store.
type Options struct {
	// MaxEntries bounds the in-memory LRU; 0 means DefaultMaxEntries.
	// Negative disables the memory layer entirely (only useful with Dir).
	MaxEntries int
	// Dir, when non-empty, enables the on-disk layer: every PutShared is
	// also written to Dir/<hex-key>, and a GetDetail memory miss falls back
	// to a disk read (promoting the value back into memory). The directory
	// is created if missing.
	Dir string
}

// DefaultMaxEntries is the in-memory capacity when Options.MaxEntries is 0.
const DefaultMaxEntries = 256

type entry struct {
	key Key
	val []byte
}

// Store is a thread-safe content-addressed byte store. Use New.
type Store struct {
	mu         sync.Mutex
	maxEntries int
	dir        string
	ll         *list.List // front = most recently used
	byKey      map[Key]*list.Element
}

// New returns a Store; when opts.Dir is set the directory is created.
func New(opts Options) (*Store, error) {
	max := opts.MaxEntries
	switch {
	case max == 0:
		max = DefaultMaxEntries
	case max < 0:
		max = 0
	}
	if opts.Dir != "" {
		if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("cache: %w", err)
		}
	}
	return &Store{
		maxEntries: max,
		dir:        opts.Dir,
		ll:         list.New(),
		byKey:      make(map[Key]*list.Element),
	}, nil
}

// GetDetail returns the payload stored under k, with its provenance. v is
// the store's own slice, which the caller never modifies. A memory hit
// refreshes the entry's LRU position; a memory miss falls back to the
// on-disk layer (when configured), and disk reports a hit served from
// there and promoted back into memory. A value read from disk is promoted,
// and reported as a hit, only when valid accepts it (nil accepts
// anything); a rejected file is a miss and stays on disk until a PutShared
// replaces it. The serving layer reads every payload this way: one copy
// per key serves all its job records, a corrupt file never reaches memory,
// and the provenance feeds its obs.CacheLookup events.
func (s *Store) GetDetail(k Key, valid func([]byte) bool) (v []byte, hit, disk bool) {
	s.mu.Lock()
	if el, ok := s.byKey[k]; ok {
		s.ll.MoveToFront(el)
		v := el.Value.(*entry).val
		s.mu.Unlock()
		return v, true, false
	}
	dir := s.dir
	s.mu.Unlock()
	if dir == "" {
		return nil, false, false
	}
	v, err := os.ReadFile(s.path(k))
	if err != nil || (valid != nil && !valid(v)) {
		return nil, false, false
	}
	v = v[:len(v):len(v)]
	s.mu.Lock()
	s.insertLocked(k, v)
	s.mu.Unlock()
	return v, true, true
}

// Peek returns a copy of the payload stored under k in the memory layer
// only: no disk fallback, so no file read and no promotion. A hit refreshes
// the entry's LRU position. Peek is O(1) and holds the store lock only
// briefly, which makes it safe to call from under another subsystem's
// lock; the serving layer uses it as its admission-time re-check after the
// handler's full (disk-capable) probe missed. That re-check hits only when
// a compile of the key finished between the probe and admission, so the
// copy is rare and the caller may treat the slice as its own.
func (s *Store) Peek(k Key) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.byKey[k]
	if !ok {
		return nil, false
	}
	s.ll.MoveToFront(el)
	return clone(el.Value.(*entry).val), true
}

// PutShared stores the payload under k in memory and — when configured —
// on disk. The store keeps v itself, so the caller hands v over and never
// modifies it afterwards; the serving layer publishes each finished compile
// this way and keeps the same slice on its job records. The disk write is
// atomic (temp file + rename) so a crashed or concurrent writer can never
// leave a torn payload; a disk failure is returned but the memory layer
// has already accepted the value.
func (s *Store) PutShared(k Key, v []byte) error {
	v = v[:len(v):len(v)]
	s.mu.Lock()
	s.insertLocked(k, v)
	dir := s.dir
	s.mu.Unlock()
	if dir == "" {
		return nil
	}
	tmp, err := os.CreateTemp(dir, "put-*")
	if err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	if _, err := tmp.Write(v); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("cache: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("cache: %w", err)
	}
	if err := os.Rename(tmp.Name(), s.path(k)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("cache: %w", err)
	}
	return nil
}

// Delete removes the payload stored under k from memory and, when
// configured, from disk. A key that is not stored is no error. The serving
// layer uses it to drop a delta base's result once the base's artifact is
// gone, so that recompiling the base really runs instead of hitting.
func (s *Store) Delete(k Key) error {
	s.mu.Lock()
	if el, ok := s.byKey[k]; ok {
		s.ll.Remove(el)
		delete(s.byKey, k)
	}
	dir := s.dir
	s.mu.Unlock()
	if dir == "" {
		return nil
	}
	if err := os.Remove(s.path(k)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("cache: %w", err)
	}
	return nil
}

// Len returns the current in-memory entry count.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ll.Len()
}

// insertLocked inserts or refreshes k, evicting from the cold end while
// over capacity. Caller holds s.mu. The value must already be the
// store's: a private copy, or a slice its caller handed over.
func (s *Store) insertLocked(k Key, v []byte) {
	if el, ok := s.byKey[k]; ok {
		// Content-addressed: same key means same bytes, so only the LRU
		// position needs refreshing. Keep the new value anyway — it is
		// equally valid and this path is rare.
		el.Value.(*entry).val = v
		s.ll.MoveToFront(el)
		return
	}
	if s.maxEntries == 0 {
		return
	}
	s.byKey[k] = s.ll.PushFront(&entry{key: k, val: v})
	for s.ll.Len() > s.maxEntries {
		cold := s.ll.Back()
		s.ll.Remove(cold)
		delete(s.byKey, cold.Value.(*entry).key)
	}
}

func (s *Store) path(k Key) string { return filepath.Join(s.dir, k.Hex()) }

func clone(v []byte) []byte { return append([]byte(nil), v...) }
