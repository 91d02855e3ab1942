// Package store is the durable tier of the serving layer's
// recompute-vs-fetch trade: a disk-backed content-addressed store for
// reports and serving metadata, keyed by the same hex SHA-256 spec keys the
// in-memory result cache uses. One entry is one file under the root
// directory, written atomically (tmp file + rename) and read back through a
// CRC32 check, so a cached report survives daemon restarts and a torn or
// bit-rotted file degrades to a cache miss — never to a served corruption.
//
// The store is size-bounded: an in-memory LRU index (rebuilt on Open by
// scanning the directory, oldest-modified = least recent) tracks per-entry
// sizes, and Put evicts from the cold end until the configured byte budget
// holds. Corrupt entries found by Get are quarantined — renamed to
// "<key>.bad" so they stop being entries but stay on disk for post-mortem.
//
// Durability is crash-consistent, not fsync-durable: rename makes a write
// atomic with respect to concurrent readers and process crashes, but the
// store does not fsync payloads; losing the very last writes in a power
// failure costs only recomputation.
package store

import (
	"container/list"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Entry files: 8-byte magic, 4-byte CRC32 (IEEE) of the payload, 8-byte
// payload length, payload. All integers big-endian.
var magic = [8]byte{'A', 'M', 'N', 'S', 'T', 'O', 'R', '1'}

const headerSize = 8 + 4 + 8

// Stats is a point-in-time snapshot of the store, rendered on /metrics.
type Stats struct {
	Hits        uint64 `json:"hits"`
	Misses      uint64 `json:"misses"`
	Evictions   uint64 `json:"evictions"`
	Quarantined uint64 `json:"quarantined"`
	Entries     int    `json:"entries"`
	Bytes       int64  `json:"bytes"`
	MaxBytes    int64  `json:"max_bytes"`
}

type entry struct {
	key  string
	size int64 // on-disk size including header
}

// Store is a size-bounded content-addressed file store. Safe for concurrent
// use; payload IO happens outside the index lock.
type Store struct {
	dir      string
	maxBytes int64

	mu          sync.Mutex
	ll          *list.List // front = most recently used; values are *entry
	items       map[string]*list.Element
	bytes       int64
	hits        uint64
	misses      uint64
	evictions   uint64
	quarantined uint64
}

// Open creates (if needed) and scans dir, rebuilding the index from the
// entry files present. Recency is seeded from file modification times, so
// the LRU survives restarts to the filesystem's timestamp resolution.
// Leftover temp files from an interrupted writer are removed; quarantined
// and otherwise foreign files are ignored.
func Open(dir string, maxBytes int64) (*Store, error) {
	if maxBytes < 1 {
		return nil, fmt.Errorf("store: max bytes must be positive, got %d", maxBytes)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		dir:      dir,
		maxBytes: maxBytes,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
	}
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	type scanned struct {
		entry
		mod int64
	}
	var found []scanned
	for _, de := range des {
		name := de.Name()
		if !de.Type().IsRegular() {
			continue
		}
		if strings.HasPrefix(name, tmpPrefix) {
			_ = os.Remove(filepath.Join(dir, name)) // interrupted write
			continue
		}
		if !validKey(name) {
			continue // quarantined (*.bad), aux metadata, foreign files
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		found = append(found, scanned{entry{key: name, size: info.Size()}, info.ModTime().UnixNano()})
	}
	sort.Slice(found, func(i, j int) bool { return found[i].mod < found[j].mod })
	for i := range found {
		e := found[i].entry
		s.items[e.key] = s.ll.PushFront(&entry{key: e.key, size: e.size})
		s.bytes += e.size
	}
	s.mu.Lock()
	s.evictLocked()
	s.mu.Unlock()
	return s, nil
}

const tmpPrefix = ".tmp-"

// validKey reports whether name is a content-address entry name: a hex
// SHA-256, which is what every serving-layer key is. Everything else in the
// directory (aux metadata, quarantined files, temp files) is not an entry.
func validKey(name string) bool {
	if len(name) != 64 {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Get returns the payload stored under key, marking the entry most recently
// used. A missing entry counts a miss; an unreadable or corrupt entry is
// quarantined and also counts a miss — fetch failures always degrade to
// recomputation, never to an error.
func (s *Store) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	el, ok := s.items[key]
	if !ok {
		s.misses++
		s.mu.Unlock()
		return nil, false
	}
	s.ll.MoveToFront(el)
	s.mu.Unlock()

	data, err := s.readEntry(key)
	if err != nil {
		s.mu.Lock()
		if os.IsNotExist(errors.Unwrap(err)) || os.IsNotExist(err) {
			// Concurrently evicted between lookup and read: a plain miss.
			if el, ok := s.items[key]; ok {
				s.dropLocked(el)
			}
		} else {
			s.quarantineLocked(key)
		}
		s.misses++
		s.mu.Unlock()
		return nil, false
	}
	s.mu.Lock()
	s.hits++
	s.mu.Unlock()
	return data, true
}

// Peek returns the payload without touching recency or the hit/miss
// counters; corrupt entries are still quarantined.
func (s *Store) Peek(key string) ([]byte, bool) {
	s.mu.Lock()
	_, ok := s.items[key]
	s.mu.Unlock()
	if !ok {
		return nil, false
	}
	data, err := s.readEntry(key)
	if err != nil {
		s.mu.Lock()
		if el, ok := s.items[key]; ok {
			if os.IsNotExist(errors.Unwrap(err)) || os.IsNotExist(err) {
				s.dropLocked(el)
			} else {
				s.quarantineLocked(key)
			}
		}
		s.mu.Unlock()
		return nil, false
	}
	return data, true
}

// Put stores payload under key (atomic tmp+rename), then evicts cold
// entries until the byte budget holds. Re-putting an existing key only
// refreshes recency: entries are content-addressed, so the bytes are equal
// by construction. A payload that alone exceeds the budget is not stored.
func (s *Store) Put(key string, payload []byte) error {
	if !validKey(key) {
		return fmt.Errorf("store: invalid key %q", key)
	}
	size := int64(headerSize + len(payload))
	if size > s.maxBytes {
		return nil // would evict the whole store and still not fit
	}
	s.mu.Lock()
	if el, ok := s.items[key]; ok {
		s.ll.MoveToFront(el)
		s.mu.Unlock()
		return nil
	}
	s.mu.Unlock()

	if err := s.writeFile(key, payload, true); err != nil {
		return err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[key]; ok {
		// Lost a race with an identical Put; the rename was idempotent.
		s.ll.MoveToFront(el)
		return nil
	}
	s.items[key] = s.ll.PushFront(&entry{key: key, size: size})
	s.bytes += size
	s.evictLocked()
	return nil
}

// evictLocked removes least-recently-used entries until the budget holds.
func (s *Store) evictLocked() {
	for s.bytes > s.maxBytes && s.ll.Len() > 0 {
		el := s.ll.Back()
		e := el.Value.(*entry)
		_ = os.Remove(filepath.Join(s.dir, e.key))
		s.dropLocked(el)
		s.evictions++
	}
}

// dropLocked removes an entry from the index without touching its file.
func (s *Store) dropLocked(el *list.Element) {
	e := el.Value.(*entry)
	s.ll.Remove(el)
	delete(s.items, e.key)
	s.bytes -= e.size
}

// quarantineLocked renames a corrupt entry aside (key -> key.bad) and drops
// it from the index. The file is preserved for post-mortem inspection but
// no longer participates in the store; a later Open ignores it.
func (s *Store) quarantineLocked(key string) {
	if el, ok := s.items[key]; ok {
		s.dropLocked(el)
	}
	path := filepath.Join(s.dir, key)
	_ = os.Rename(path, path+".bad")
	s.quarantined++
}

// readEntry reads and verifies one entry file.
func (s *Store) readEntry(key string) ([]byte, error) {
	raw, err := os.ReadFile(filepath.Join(s.dir, key))
	if err != nil {
		return nil, err
	}
	if len(raw) < headerSize {
		return nil, fmt.Errorf("store: %s: truncated header (%d bytes)", key, len(raw))
	}
	if [8]byte(raw[:8]) != magic {
		return nil, fmt.Errorf("store: %s: bad magic", key)
	}
	wantCRC := binary.BigEndian.Uint32(raw[8:12])
	length := binary.BigEndian.Uint64(raw[12:20])
	payload := raw[headerSize:]
	if uint64(len(payload)) != length {
		return nil, fmt.Errorf("store: %s: truncated payload (%d of %d bytes)", key, len(payload), length)
	}
	if got := crc32.ChecksumIEEE(payload); got != wantCRC {
		return nil, fmt.Errorf("store: %s: CRC mismatch (%08x != %08x)", key, got, wantCRC)
	}
	return payload, nil
}

// writeFile writes name's content atomically: temp file in the same
// directory, then rename. withHeader selects the framed entry format.
func (s *Store) writeFile(name string, payload []byte, withHeader bool) error {
	f, err := os.CreateTemp(s.dir, tmpPrefix+"*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp := f.Name()
	cleanup := func() {
		f.Close()
		os.Remove(tmp)
	}
	if withHeader {
		var hdr [headerSize]byte
		copy(hdr[:8], magic[:])
		binary.BigEndian.PutUint32(hdr[8:12], crc32.ChecksumIEEE(payload))
		binary.BigEndian.PutUint64(hdr[12:20], uint64(len(payload)))
		if _, err := f.Write(hdr[:]); err != nil {
			cleanup()
			return fmt.Errorf("store: %w", err)
		}
	}
	if _, err := f.Write(payload); err != nil {
		cleanup()
		return fmt.Errorf("store: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, name)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// PutAux atomically writes a named sidecar metadata file (e.g. the
// prepared-image manifest). Aux files are not content-addressed entries:
// they are unframed, not CRC-checked, never evicted, and ignored by the
// entry scan. The name must not collide with the entry namespace.
func (s *Store) PutAux(name string, payload []byte) error {
	if err := validAuxName(name); err != nil {
		return err
	}
	return s.writeFile(name, payload, false)
}

// GetAux reads a sidecar metadata file; false when absent.
func (s *Store) GetAux(name string) ([]byte, bool) {
	if err := validAuxName(name); err != nil {
		return nil, false
	}
	data, err := os.ReadFile(filepath.Join(s.dir, name))
	if err != nil {
		return nil, false
	}
	return data, true
}

func validAuxName(name string) error {
	if name == "" || validKey(name) || strings.HasPrefix(name, tmpPrefix) ||
		strings.ContainsAny(name, "/\\") || name == "." || name == ".." {
		return fmt.Errorf("store: invalid aux name %q", name)
	}
	return nil
}

// Stats snapshots the counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Hits:        s.hits,
		Misses:      s.misses,
		Evictions:   s.evictions,
		Quarantined: s.quarantined,
		Entries:     s.ll.Len(),
		Bytes:       s.bytes,
		MaxBytes:    s.maxBytes,
	}
}
