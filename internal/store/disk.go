package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/frame"
)

// Disk is the paged segment-file backend: records append to numbered
// segment files, a sparse in-memory locator maps each live key to its
// (segment, offset), and reads page values in on demand through reused
// per-segment handles. No write-ahead discipline of its own — the
// session's WAL (or source corpus) can always rebuild a store, so the
// store is a spill space, not a database.
//
// A record is one internal/frame frame whose type is the op (1 = put,
// 2 = delete) and whose payload is [u16 key length, little endian]
// [key] [value], so the value's length is what the key leaves of the
// payload.
//
// Open replays segments in order to rebuild the locator. A torn or
// corrupted record — the expected shape of a crash mid-append — ends
// the replay: the torn segment is truncated back to its last intact
// record and any later segments are dropped, exactly the torn-tail
// discipline the WAL applies to its frames.
type Disk struct {
	mu  sync.Mutex
	dir string

	loc     map[string]diskLoc
	active  *os.File // append handle of the highest segment
	actID   int
	actSize int64  // logical size of the active segment, buffered bytes included
	wbuf    []byte // appends not yet written to the active segment
	segMax  int64
	handles map[int]*os.File // reused read handles, segment id → file

	segBytes int64 // total bytes across segment files
	gets     int64
}

type diskLoc struct {
	seg  int
	off  int64 // offset of the value inside the segment
	vlen int
}

const (
	opPut    = 1
	opDelete = 2
	// klenSize is the payload's u16 key-length prefix; a record's key
	// starts at keyOffset, right after it.
	klenSize    = 2
	keyOffset   = frame.HeaderSize + klenSize
	maxKeyLen   = 1 << 16
	maxValueLen = 1 << 30
	maxPayload  = klenSize + maxKeyLen + maxValueLen
	// DefaultSegmentBytes rotates segments at 4 MiB: large enough to
	// amortize file overhead, small enough that Compact rewrites in
	// bounded pieces.
	DefaultSegmentBytes = 4 << 20
	// wbufMax caps the append buffer: a posting-commit wave is hundreds
	// of small records, and one buffered write replaces their syscalls.
	// The store carries no durability promise — the WAL rebuilds it —
	// so deferring the write loses nothing a crash had anyway.
	wbufMax = 256 << 10
)

// DiskOptions tunes OpenDisk. The zero value is usable.
type DiskOptions struct {
	// SegmentBytes rotates the active segment once it exceeds this
	// size (0 = DefaultSegmentBytes).
	SegmentBytes int64
	// Reset discards any existing segments instead of replaying them —
	// the right call when the store's content is derived state about to
	// be rebuilt (recovery folds the WAL back into the collection).
	Reset bool
}

// OpenDisk opens (creating if needed) a segment store under dir.
func OpenDisk(dir string, opt DiskOptions) (*Disk, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	d := &Disk{
		dir:     dir,
		loc:     make(map[string]diskLoc),
		segMax:  opt.SegmentBytes,
		handles: make(map[int]*os.File),
	}
	if d.segMax <= 0 {
		d.segMax = DefaultSegmentBytes
	}
	segs, err := d.listSegments()
	if err != nil {
		return nil, err
	}
	if opt.Reset {
		for _, id := range segs {
			if err := os.Remove(d.segPath(id)); err != nil {
				return nil, fmt.Errorf("store: reset: %w", err)
			}
		}
		segs = nil
	}
	if err := d.replay(segs); err != nil {
		return nil, err
	}
	if d.active == nil {
		if err := d.rotate(); err != nil {
			return nil, err
		}
	}
	return d, nil
}

func (d *Disk) segPath(id int) string {
	return filepath.Join(d.dir, fmt.Sprintf("seg-%06d.dat", id))
}

func (d *Disk) listSegments() ([]int, error) {
	ents, err := os.ReadDir(d.dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var ids []int
	for _, e := range ents {
		var id int
		if n, _ := fmt.Sscanf(e.Name(), "seg-%06d.dat", &id); n == 1 {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	return ids, nil
}

// replay rebuilds the locator from the segments, truncating the first
// torn record and dropping everything after it.
func (d *Disk) replay(segs []int) error {
	for i, id := range segs {
		valid, clean, err := d.replaySegment(id)
		if err != nil {
			return err
		}
		d.actID = id
		if clean {
			continue
		}
		// Torn: truncate this segment and drop the later ones — records
		// past a tear are newer than the gap and must not apply.
		d.segBytes -= d.sizeOfSegment(id) - valid
		if err := os.Truncate(d.segPath(id), valid); err != nil {
			return fmt.Errorf("store: truncate torn segment: %w", err)
		}
		for _, late := range segs[i+1:] {
			if err := os.Remove(d.segPath(late)); err != nil {
				return fmt.Errorf("store: drop post-tear segment: %w", err)
			}
		}
		break
	}
	if d.actID > 0 {
		f, err := os.OpenFile(d.segPath(d.actID), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("store: %w", err)
		}
		fi, err := f.Stat()
		if err != nil {
			f.Close()
			return fmt.Errorf("store: %w", err)
		}
		d.active, d.actSize = f, fi.Size()
	}
	return nil
}

func (d *Disk) sizeOfSegment(id int) int64 {
	if fi, err := os.Stat(d.segPath(id)); err == nil {
		return fi.Size()
	}
	return 0
}

// replaySegment applies one segment's records to the locator,
// returning the byte offset of the last intact record's end and
// whether the whole file was intact.
func (d *Disk) replaySegment(id int) (int64, bool, error) {
	data, err := os.ReadFile(d.segPath(id))
	if err != nil {
		return 0, false, fmt.Errorf("store: %w", err)
	}
	d.segBytes += int64(len(data))
	var off int64
	for {
		op, payload, err := frame.Decode(data[off:], maxPayload)
		if err == io.EOF {
			return off, true, nil
		}
		if err != nil || (op != opPut && op != opDelete) || len(payload) < klenSize {
			return off, false, nil // torn or corrupted record
		}
		klen := int(binary.LittleEndian.Uint16(payload))
		if klenSize+klen > len(payload) {
			return off, false, nil // key length past the payload
		}
		key := string(payload[klenSize : klenSize+klen])
		if op == opDelete {
			delete(d.loc, key)
		} else {
			d.loc[key] = diskLoc{seg: id, off: off + keyOffset + int64(klen), vlen: len(payload) - klenSize - klen}
		}
		off += frame.HeaderSize + int64(len(payload))
	}
}

// flush writes the buffered appends through to the active segment.
func (d *Disk) flush() error {
	if len(d.wbuf) == 0 {
		return nil
	}
	if _, err := d.active.Write(d.wbuf); err != nil {
		return fmt.Errorf("store: append: %w", err)
	}
	d.wbuf = d.wbuf[:0]
	return nil
}

// rotate opens the next segment for appending.
func (d *Disk) rotate() error {
	if d.active != nil {
		if err := d.flush(); err != nil {
			return err
		}
		if err := d.active.Close(); err != nil {
			return fmt.Errorf("store: %w", err)
		}
		d.active = nil
	}
	d.actID++
	f, err := os.OpenFile(d.segPath(d.actID), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	d.active, d.actSize = f, 0
	return nil
}

// append frames one record onto the active segment and returns the
// offset its value starts at.
func (d *Disk) append(op byte, key, value []byte) (int, int64, error) {
	if d.active == nil {
		return 0, 0, ErrClosed
	}
	if len(key) >= maxKeyLen {
		return 0, 0, fmt.Errorf("store: key of %d bytes exceeds the %d-byte cap", len(key), maxKeyLen)
	}
	if len(value) > maxValueLen {
		return 0, 0, fmt.Errorf("store: value of %d bytes exceeds the %d-byte cap", len(value), maxValueLen)
	}
	if d.actSize >= d.segMax {
		if err := d.rotate(); err != nil {
			return 0, 0, err
		}
	}
	var klen [klenSize]byte
	binary.LittleEndian.PutUint16(klen[:], uint16(len(key)))
	d.wbuf = frame.Append(d.wbuf, op, klen[:], key, value)
	size := int64(keyOffset + len(key) + len(value))
	voff := d.actSize + keyOffset + int64(len(key))
	d.actSize += size
	d.segBytes += size
	if len(d.wbuf) >= wbufMax {
		if err := d.flush(); err != nil {
			return 0, 0, err
		}
	}
	return d.actID, voff, nil
}

// Get implements Store. The returned slice is freshly allocated and
// owned by the caller.
func (d *Disk) Get(key []byte) ([]byte, bool, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.gets++
	l, ok := d.loc[string(key)]
	if !ok {
		return nil, false, nil
	}
	v, err := d.readValue(l)
	if err != nil {
		return nil, false, err
	}
	return v, true, nil
}

func (d *Disk) readValue(l diskLoc) ([]byte, error) {
	if l.seg == d.actID {
		// Flush empties the whole buffer and records enter it whole, so a
		// buffered record is entirely in wbuf — read-after-write (a graph
		// load right after its spill, a posting re-read after commit)
		// never touches the file.
		if bufStart := d.actSize - int64(len(d.wbuf)); l.off >= bufStart {
			v := d.wbuf[l.off-bufStart : l.off-bufStart+int64(l.vlen)]
			return append([]byte(nil), v...), nil
		}
	}
	f, err := d.handle(l.seg)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, l.vlen)
	if _, err := f.ReadAt(buf, l.off); err != nil {
		return nil, fmt.Errorf("store: read segment %d: %w", l.seg, err)
	}
	return buf, nil
}

// handle returns the reused read handle of a segment.
func (d *Disk) handle(id int) (*os.File, error) {
	if f, ok := d.handles[id]; ok {
		return f, nil
	}
	f, err := os.Open(d.segPath(id))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	d.handles[id] = f
	return f, nil
}

// Put implements Store.
func (d *Disk) Put(key, value []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	seg, off, err := d.append(opPut, key, value)
	if err != nil {
		return err
	}
	d.loc[string(key)] = diskLoc{seg: seg, off: off, vlen: len(value)}
	return nil
}

// Delete implements Store: a tombstone record appends (replay must see
// the deletion) and the locator entry drops.
func (d *Disk) Delete(key []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.loc[string(key)]; !ok {
		return nil
	}
	if _, _, err := d.append(opDelete, key, nil); err != nil {
		return err
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

// Scan implements Store.
func (d *Disk) Scan(prefix []byte, fn func(key, value []byte) error) error {
	d.mu.Lock()
	keys := d.sortedKeys(prefix)
	d.mu.Unlock()
	for _, k := range keys {
		d.mu.Lock()
		l, ok := d.loc[k]
		var v []byte
		var err error
		if ok {
			v, err = d.readValue(l)
		}
		d.mu.Unlock()
		if err != nil {
			return err
		}
		if !ok {
			continue // deleted mid-scan
		}
		if err := fn([]byte(k), v); err != nil {
			return err
		}
	}
	return nil
}

// ScanKeys implements Store: a key-only scan walks the resident
// locator and never touches a segment.
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

// Compact implements Store: every live record is rewritten into fresh
// segments (numbered after the current ones, so a replay applies them
// last) and the old segments are removed. Runs alongside the session's
// id-space compaction epochs, when the description keyspace has just
// shed its dead ids.
func (d *Disk) Compact() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	old, err := d.listSegments()
	if err != nil {
		return err
	}
	keys := d.sortedKeys(nil)
	if err := d.rotate(); err != nil {
		return err
	}
	for _, k := range keys {
		l := d.loc[k]
		v, err := d.readValue(l)
		if err != nil {
			return err
		}
		seg, off, err := d.append(opPut, []byte(k), v)
		if err != nil {
			return err
		}
		d.loc[k] = diskLoc{seg: seg, off: off, vlen: len(v)}
	}
	for _, id := range old {
		if f, ok := d.handles[id]; ok {
			f.Close()
			delete(d.handles, id)
		}
		d.segBytes -= d.sizeOfSegment(id)
		if err := os.Remove(d.segPath(id)); err != nil {
			return fmt.Errorf("store: compact: %w", err)
		}
	}
	return nil
}

// Stats implements Store. Resident approximates the locator's heap
// share: the keys plus the fixed locator record per key.
func (d *Disk) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := Stats{Bytes: d.segBytes, Keys: int64(len(d.loc)), Gets: d.gets}
	for k := range d.loc {
		st.Resident += int64(len(k)) + 24
	}
	return st
}

// Close implements Store.
func (d *Disk) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	var err error
	if d.active != nil {
		err = d.flush()
		if cerr := d.active.Close(); err == nil {
			err = cerr
		}
		d.active = nil
	}
	for id, f := range d.handles {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		delete(d.handles, id)
	}
	if err != nil {
		return fmt.Errorf("store: close: %w", err)
	}
	return nil
}

var _ Store = (*Mem)(nil)
var _ Store = (*Disk)(nil)

// ErrClosed reports an operation on a closed disk store.
var ErrClosed = errors.New("store: closed")
