// Package store is a small key-value storage boundary. No session uses
// it: description bodies live in RAM, since paging them to disk saved
// under 10 % of the heap at rest and nothing at the peak. It stays only
// for the benchmark of record's store.* layer rows, until the
// benchmark-only refresh (ROADMAP item 1) deletes it.
//
// The interface is deliberately small, in the LSM-backend idiom: point
// Get/Put/Delete over opaque byte keys, an ordered ScanKeys over a key
// prefix, and a Compact that rewrites storage down to the live records.
// Keys for numeric id spaces are fixed-size and sort-preserving
// (big-endian integers under a one-byte namespace tag), so a prefix
// scan enumerates one structure's keys in id order without any
// secondary index.
//
// Two implementations share the interface:
//
//   - Disk (OpenDisk) — the backend the benchmark times: one
//     append-only file of checksum-framed records, with a sparse
//     in-memory locator (key → offset, length) as the only resident
//     state. Appends coalesce in a buffer the reads know how to serve;
//     every read verifies its record's checksum; ScanKeys never touches
//     the file.
//   - Mem — a plain map, the reference the tests compare Disk against.
//
// A disk store is scratch space: it starts empty on every open and is
// never reopened.
package store

import (
	"bytes"
	"encoding/binary"
	"sort"
	"sync"
)

// Store is the storage boundary. One goroutine mutates; any number may
// Get concurrently while no mutation is in flight.
type Store interface {
	// Get returns the value stored under key, or ok=false. The returned
	// slice is owned by the caller on the disk backend and shared on the
	// mem backend; treat it as read-only and decode, don't retain.
	Get(key []byte) ([]byte, bool, error)
	// Put stores value under key, replacing any previous value. The
	// value is copied; the caller may reuse its buffer.
	Put(key, value []byte) error
	// Delete removes key; deleting an absent key is a no-op.
	Delete(key []byte) error
	// ScanKeys calls fn for every key with the given prefix, in
	// ascending key order. Returning an error stops the scan and
	// propagates. On the disk backend it reads only the resident
	// locator, never the file.
	ScanKeys(prefix []byte, fn func(key []byte) error) error
	// Compact rewrites storage down to the live records, reclaiming
	// space deleted and overwritten records still occupy.
	Compact() error
	// Stats returns the operator-facing gauges.
	Stats() Stats
	// Close releases the store's resources.
	Close() error
}

// Stats are a store's size and traffic gauges.
type Stats struct {
	// Bytes is the total stored footprint: file bytes on disk for the
	// disk backend, dead records included; encoded bytes in the heap
	// for the mem backend.
	Bytes int64 `json:"bytes"`
	// Resident is the part of Bytes' bookkeeping held in RAM: the
	// locator index for the disk backend, everything for mem.
	Resident int64 `json:"resident"`
	// Keys counts live records.
	Keys int64 `json:"keys"`
	// Gets counts point reads served.
	Gets int64 `json:"gets"`
}

// DropPrefix deletes every key carrying the prefix.
func DropPrefix(s Store, prefix []byte) error {
	var doomed [][]byte
	if err := s.ScanKeys(prefix, func(key []byte) error {
		doomed = append(doomed, append([]byte(nil), key...))
		return nil
	}); err != nil {
		return err
	}
	for _, k := range doomed {
		if err := s.Delete(k); err != nil {
			return err
		}
	}
	return nil
}

// U64Key writes id as a fixed-size sort-preserving key under a
// one-byte namespace tag: scans over the tag enumerate ids in order.
func U64Key(tag byte, id uint64) []byte {
	var k [9]byte
	k[0] = tag
	binary.BigEndian.PutUint64(k[1:], id)
	return k[:]
}

// Mem is the in-memory reference implementation: the map the tests
// require the disk backend to agree with.
type Mem struct {
	mu   sync.Mutex
	m    map[string][]byte
	gets int64
}

// NewMem returns an empty in-memory store.
func NewMem() *Mem { return &Mem{m: make(map[string][]byte)} }

// Get implements Store.
func (s *Mem) Get(key []byte) ([]byte, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gets++
	v, ok := s.m[string(key)]
	return v, ok, nil
}

// Put implements Store.
func (s *Mem) Put(key, value []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[string(key)] = append([]byte(nil), value...)
	return nil
}

// Delete implements Store.
func (s *Mem) Delete(key []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.m, string(key))
	return nil
}

// ScanKeys implements Store.
func (s *Mem) ScanKeys(prefix []byte, fn func(key []byte) error) error {
	for _, k := range s.sortedKeys(prefix) {
		if err := fn([]byte(k)); err != nil {
			return err
		}
	}
	return nil
}

func (s *Mem) sortedKeys(prefix []byte) []string {
	s.mu.Lock()
	keys := make([]string, 0, len(s.m))
	for k := range s.m {
		if bytes.HasPrefix([]byte(k), prefix) {
			keys = append(keys, k)
		}
	}
	s.mu.Unlock()
	sort.Strings(keys)
	return keys
}

// Compact implements Store; the map never holds dead records.
func (s *Mem) Compact() error { return nil }

// Stats implements Store.
func (s *Mem) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{Keys: int64(len(s.m)), Gets: s.gets}
	for k, v := range s.m {
		st.Bytes += int64(len(k) + len(v))
	}
	st.Resident = st.Bytes
	return st
}

// Close implements Store.
func (s *Mem) Close() error { return nil }
