package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/frame"
)

// Disk is the paged file backend: records append to one file, a sparse
// in-memory locator maps each live key to its record's place in it, and
// reads page values in on demand. It is scratch space, not a database:
// OpenDisk starts it empty, nothing ever reopens its file, and the
// session's WAL (or source corpus) rebuilds its content after a
// restart.
//
// A record is one internal/frame frame of type 1 whose payload is
// [u16 key length, little endian] [key] [value], so the value's length
// is what the key leaves of the payload. Every Get reads the whole
// frame and verifies its checksum, so a damaged byte surfaces as
// frame.ErrCorrupt, never as an altered value.
//
// Delete only drops the locator entry; the record's bytes stay dead in
// the file until Compact copies the live records into the next
// generation's file (seg-%06d.dat, numbered from 1) and removes the
// old one.
type Disk struct {
	mu  sync.Mutex
	dir string

	loc  map[string]diskLoc
	f    *os.File // the live generation's file; nil once closed
	gen  int
	size int64  // logical file size, buffered bytes included
	wbuf []byte // appends not yet written to f
	gets int64
}

// diskLoc places one record: its frame's offset and length in the file.
type diskLoc struct {
	off int64
	n   int
}

const (
	opPut = 1
	// klenSize is the payload's u16 key-length prefix.
	klenSize    = 2
	maxKeyLen   = 1 << 16
	maxValueLen = 1 << 30
	// locBytes is a locator entry's heap share beside its key: a
	// diskLoc.
	locBytes = 16
	// wbufMax caps the append buffer: an ingest wave or a compaction
	// epoch writes one description body per record, and one buffered
	// write replaces their syscalls. The store carries no durability
	// promise — the WAL rebuilds it — so deferring the write loses
	// nothing a crash had anyway.
	wbufMax = 256 << 10
)

// DiskOptions is OpenDisk's argument.
type DiskOptions struct {
	// Reset must be true: OpenDisk fails with an error naming it
	// otherwise. A disk store always starts empty, clearing whatever an
	// earlier process left in its directory; the field is kept for the
	// frozen benchmark read, ROADMAP item 1.
	Reset bool
}

// OpenDisk creates an empty store under dir (creating dir if needed),
// removing every segment file an earlier process left there.
func OpenDisk(dir string, opt DiskOptions) (*Disk, error) {
	if !opt.Reset {
		return nil, errors.New("store: DiskOptions.Reset must be true (a disk store always starts empty)")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	stale, err := filepath.Glob(filepath.Join(dir, "seg-*.dat"))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	for _, path := range stale {
		if err := os.Remove(path); err != nil {
			return nil, fmt.Errorf("store: reset: %w", err)
		}
	}
	return create(dir, 1)
}

// create opens generation gen's file, which must not exist yet.
func create(dir string, gen int) (*Disk, error) {
	d := &Disk{dir: dir, gen: gen, loc: make(map[string]diskLoc)}
	f, err := os.OpenFile(d.path(), os.O_RDWR|os.O_APPEND|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	d.f = f
	return d, nil
}

func (d *Disk) path() string {
	return filepath.Join(d.dir, fmt.Sprintf("seg-%06d.dat", d.gen))
}

// flush writes the buffered appends through to the file.
func (d *Disk) flush() error {
	if len(d.wbuf) == 0 {
		return nil
	}
	if _, err := d.f.Write(d.wbuf); err != nil {
		return fmt.Errorf("store: append: %w", err)
	}
	d.wbuf = d.wbuf[:0]
	return nil
}

// put frames one record onto the file and points the locator at it.
func (d *Disk) put(key string, value []byte) error {
	if d.f == nil {
		return ErrClosed
	}
	if len(key) >= maxKeyLen {
		return fmt.Errorf("store: key of %d bytes exceeds the %d-byte cap", len(key), maxKeyLen)
	}
	if len(value) > maxValueLen {
		return fmt.Errorf("store: value of %d bytes exceeds the %d-byte cap", len(value), maxValueLen)
	}
	var klen [klenSize]byte
	binary.LittleEndian.PutUint16(klen[:], uint16(len(key)))
	start := len(d.wbuf)
	d.wbuf = frame.Append(d.wbuf, opPut, klen[:], []byte(key), value)
	n := len(d.wbuf) - start
	d.loc[key] = diskLoc{off: d.size, n: n}
	d.size += int64(n)
	if len(d.wbuf) >= wbufMax {
		return d.flush()
	}
	return nil
}

// value reads the record at l and verifies its frame, returning the
// value as a fresh slice the caller owns.
func (d *Disk) value(key string, l diskLoc) ([]byte, error) {
	var rec []byte
	// Flush empties the whole buffer and records enter it whole, so a
	// buffered record lies entirely in wbuf — a read right after its
	// write never touches the file.
	bufStart := d.size - int64(len(d.wbuf))
	buffered := l.off >= bufStart
	if buffered {
		rec = d.wbuf[l.off-bufStart : l.off-bufStart+int64(l.n)]
	} else {
		rec = make([]byte, l.n)
		if _, err := d.f.ReadAt(rec, l.off); err != nil {
			return nil, fmt.Errorf("store: read record at offset %d: %w", l.off, err)
		}
	}
	// The locator knows the frame's length, so that is the cap: a
	// damaged length field is corrupt, not a torn tail.
	typ, payload, err := frame.Decode(rec, l.n-frame.HeaderSize)
	if err == nil && (typ != opPut || frame.HeaderSize+len(payload) != l.n) {
		err = fmt.Errorf("%w: record does not span its locator entry", frame.ErrCorrupt)
	}
	if err != nil {
		return nil, fmt.Errorf("store: record at offset %d: %w", l.off, err)
	}
	v := payload[klenSize+len(key):]
	if buffered {
		v = bytes.Clone(v)
	}
	return v, nil
}

// Get implements Store. The returned slice is freshly allocated and
// owned by the caller.
func (d *Disk) Get(key []byte) ([]byte, bool, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.f == nil {
		return nil, false, ErrClosed
	}
	d.gets++
	l, ok := d.loc[string(key)]
	if !ok {
		return nil, false, nil
	}
	v, err := d.value(string(key), l)
	if err != nil {
		return nil, false, err
	}
	return v, true, nil
}

// Put implements Store.
func (d *Disk) Put(key, value []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.put(string(key), value)
}

// Delete implements Store: the locator entry drops, and the record's
// bytes stay dead in the file until Compact.
func (d *Disk) Delete(key []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.f == nil {
		return ErrClosed
	}
	delete(d.loc, string(key))
	return nil
}

// sortedKeys snapshots the live keys under prefix, ascending.
func (d *Disk) sortedKeys(prefix []byte) []string {
	keys := make([]string, 0, len(d.loc))
	for k := range d.loc {
		if bytes.HasPrefix([]byte(k), prefix) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// ScanKeys implements Store: it walks the resident locator and never
// touches the file.
func (d *Disk) ScanKeys(prefix []byte, fn func(key []byte) error) error {
	d.mu.Lock()
	keys := d.sortedKeys(prefix)
	d.mu.Unlock()
	for _, k := range keys {
		if err := fn([]byte(k)); err != nil {
			return err
		}
	}
	return nil
}

// Compact implements Store: every live record is copied, in key order,
// into the next generation's file, which then replaces the current one.
// Meant for the moment the description keyspace has just shed its dead
// ids. On failure the current generation stays in place, untouched.
func (d *Disk) Compact() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.f == nil {
		return ErrClosed
	}
	next, err := create(d.dir, d.gen+1)
	if err != nil {
		return err
	}
	for _, k := range d.sortedKeys(nil) {
		var v []byte
		if v, err = d.value(k, d.loc[k]); err == nil {
			err = next.put(k, v)
		}
		if err != nil {
			break
		}
	}
	if err == nil {
		err = next.flush()
	}
	if err != nil {
		next.f.Close()
		os.Remove(next.path())
		return err
	}
	oldF, oldPath := d.f, d.path()
	d.f, d.gen, d.loc, d.size, d.wbuf = next.f, next.gen, next.loc, next.size, next.wbuf
	if err := errors.Join(oldF.Close(), os.Remove(oldPath)); err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	return nil
}

// Stats implements Store. Bytes is the file's logical size, dead
// records included; Resident approximates the locator's heap share:
// the keys plus one fixed locator entry per key.
func (d *Disk) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := Stats{Bytes: d.size, Keys: int64(len(d.loc)), Gets: d.gets}
	for k := range d.loc {
		st.Resident += int64(len(k)) + locBytes
	}
	return st
}

// Close implements Store. Every later operation but ScanKeys and Stats
// returns ErrClosed.
func (d *Disk) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.f == nil {
		return nil
	}
	err := d.flush()
	if cerr := d.f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("store: close: %w", cerr)
	}
	d.f = nil
	return err
}

var _ Store = (*Mem)(nil)
var _ Store = (*Disk)(nil)

// ErrClosed reports an operation on a closed disk store.
var ErrClosed = errors.New("store: closed")
