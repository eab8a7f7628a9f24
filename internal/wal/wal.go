// Package wal is the durability layer of a streaming resolution
// session: an append-only, checksum-framed write-ahead log of the
// mutation batches (ingests, evictions, session starts, checkpoints)
// that the public layer already streams. Recovery is replay — the log
// records exactly the inputs of the streaming path, so folding the
// surviving prefix into the collection record by record (the session's
// fold, which every live wave runs too) and then making one front-end
// pass reconstructs the state a from-scratch session over that prefix
// would hold; the golden-digest differential suite at the repo root
// proves it at every byte boundary of a torn tail.
//
// # Frame format
//
// One record is one internal/frame frame — the repo's one record
// format — with the record type as the frame type. A reader stops
// cleanly at the first frame that is torn, whose length field is over
// the cap, or whose checksum fails: a torn or corrupted tail never
// poisons the valid prefix, and Open truncates the file back to that
// prefix so new appends land on a clean boundary.
//
// # Fsync policy
//
// Appends always reach the kernel before Append returns (a process
// crash — SIGKILL included — loses nothing already appended); the
// policy decides when the log additionally reaches the disk, the line
// that matters for power loss:
//
//   - SyncWave: fsync on Commit — the server calls it once per commit
//     wave, so one wave is one durable unit (the default).
//   - SyncAlways: fsync inside every Append.
//   - SyncOff: never fsync; the OS flushes on its own schedule.
//
// # Checkpoints
//
// Checkpoint atomically replaces the log with a single checkpoint
// record (write to a temp file, fsync, rename, fsync the directory),
// so a log whose history has been folded into a compact state — the
// live corpus a session writes once as many ids have departed as are
// live — stops growing with history.
// A crash anywhere during the rotation leaves either the old log or
// the new one, both valid.
package wal

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/frame"
)

// Policy selects when appended records are fsynced to disk. The zero
// value is SyncWave.
type Policy int

const (
	// SyncWave defers the fsync to Commit — the server's per-wave
	// durability point.
	SyncWave Policy = iota
	// SyncAlways fsyncs inside every Append.
	SyncAlways
	// SyncOff never fsyncs; appends still reach the kernel.
	SyncOff
)

// String returns the flag spelling of the policy (always / wave / off).
func (p Policy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncOff:
		return "off"
	default:
		return "wave"
	}
}

// ParsePolicy maps the flag spelling back to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "wave":
		return SyncWave, nil
	case "off":
		return SyncOff, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want always, wave, or off)", s)
}

// Record types. The tag travels inside the checksum, so a flipped tag
// is a detected corruption, not a misdispatch.
const (
	// TypeIngest carries one ingest batch (JSON []Description wire
	// types).
	TypeIngest byte = 1
	// TypeEvict carries one eviction (JSON refs or a KB name).
	TypeEvict byte = 2
	// TypeStart marks a Session start: records before it replay as
	// pre-Start loads (the TTL window's batch 0), records after it as
	// streaming mutations.
	TypeStart byte = 3
	// TypeCheckpoint carries a full compact state (live descriptions
	// plus their TTL ages); it is only ever the first record of a log.
	TypeCheckpoint byte = 4
)

// Record is one decoded log record.
type Record struct {
	Type    byte
	Payload []byte
}

const logName = "wal.log"

// maxPayload bounds a frame's length field both ways: an appended
// payload over it could not be re-read (readers treat implausible
// lengths as corruption — a corrupted length must not provoke a giant
// allocation), so Append refuses it with ErrFrameTooLarge before the
// length is narrowed to the frame's 32-bit field. 1 GiB sits far above
// any real batch (the server caps request bodies well below it). A var
// only so the boundary test can lower it without gigabyte allocations.
var maxPayload = 1 << 30

// MaxPayload reports the frame payload cap — the budget the session
// layer splits oversized ingest batches under so every logged record
// stays replayable.
func MaxPayload() int { return maxPayload }

// ErrFrameTooLarge reports a payload no frame can carry: appending it
// would either overflow the frame's 32-bit length field or write a
// record every reader rejects as corrupt. Nothing is appended. Callers
// split their batches under MaxPayload instead. Test with errors.Is.
var ErrFrameTooLarge = errors.New("wal: record exceeds frame cap")

// Stats are the operator-facing gauges of a live log, surfaced on the
// server's /status endpoint.
type Stats struct {
	// Bytes is the current size of the log file.
	Bytes int64 `json:"bytes"`
	// Records counts records appended since the last checkpoint (or
	// since Open, counting the replayed prefix, when no checkpoint has
	// rotated the log yet).
	Records int64 `json:"records"`
	// Checkpoints counts log rotations performed by this handle.
	Checkpoints int64 `json:"checkpoints"`
	// LastSyncUnixNano is the wall-clock time of the last fsync (0 when
	// the log has never synced).
	LastSyncUnixNano int64 `json:"lastSyncUnixNano"`
}

// Log is an open write-ahead log: records appended by one owner
// goroutine (the session's mutation path), never concurrently.
type Log struct {
	dir    string
	f      *os.File
	policy Policy

	size        int64
	records     int64
	checkpoints int64
	lastSync    time.Time
	dirty       bool // bytes appended since the last fsync
}

// Open opens (creating if needed) the log in dir, replay-reads the
// valid record prefix, truncates any torn tail, and returns the log
// positioned for appending together with the surviving records. The
// caller applies the records to its state before appending new ones.
func Open(dir string, policy Policy) (*Log, []Record, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	path := filepath.Join(dir, logName)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	recs, valid, err := readFrames(f)
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("wal: read %s: %w", path, err)
	}
	// Drop the torn tail so new frames start on a valid boundary.
	if fi, err := f.Stat(); err == nil && fi.Size() > valid {
		if err := f.Truncate(valid); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("wal: truncate torn tail of %s: %w", path, err)
		}
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{
		dir:     dir,
		f:       f,
		policy:  policy,
		size:    valid,
		records: int64(len(recs)),
	}
	return l, recs, nil
}

// readFrames decodes frames from the start of f until the first torn,
// truncated, or corrupt one, returning the valid records and the byte
// offset at which they end. Only I/O failures are errors: a bad frame
// is the expected shape of a crash and ends the scan cleanly.
func readFrames(f *os.File) ([]Record, int64, error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, 0, err
	}
	br := bufio.NewReader(f)
	var recs []Record
	var valid int64
	for {
		typ, payload, err := frame.Read(br, maxPayload)
		if err == io.EOF || err == io.ErrUnexpectedEOF || errors.Is(err, frame.ErrCorrupt) {
			return recs, valid, nil // clean end, or a torn or corrupt frame
		}
		if err != nil {
			return nil, 0, err
		}
		recs = append(recs, Record{Type: typ, Payload: payload})
		valid += frame.HeaderSize + int64(len(payload))
	}
}

// Append frames one record onto the log. The frame reaches the kernel
// before Append returns; under SyncAlways it also reaches the disk.
func (l *Log) Append(typ byte, payload []byte) error {
	if l.f == nil {
		return errors.New("wal: log is closed")
	}
	if len(payload) > maxPayload {
		return fmt.Errorf("%w: record of %d bytes over the %d-byte cap", ErrFrameTooLarge, len(payload), maxPayload)
	}
	rec := frame.Append(nil, typ, payload)
	if _, err := l.f.Write(rec); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	l.size += int64(len(rec))
	l.records++
	l.dirty = true
	if l.policy == SyncAlways {
		return l.sync()
	}
	return nil
}

// Commit makes everything appended so far durable under the SyncWave
// policy (one call per server commit wave). Under SyncAlways the data
// already is and under SyncOff it never deliberately is; both are
// no-ops.
func (l *Log) Commit() error {
	if l.f == nil {
		return errors.New("wal: log is closed")
	}
	if l.policy != SyncWave || !l.dirty {
		return nil
	}
	return l.sync()
}

func (l *Log) sync() error {
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	l.dirty = false
	l.lastSync = time.Now()
	return nil
}

// Checkpoint atomically replaces the log with a single TypeCheckpoint
// record holding payload: the new file is written and fsynced aside,
// renamed over the log, and the directory fsynced, so a crash at any
// point leaves one valid log — old or new. The handle continues
// appending to the new file. The record counter restarts at 1 (the
// checkpoint itself).
func (l *Log) Checkpoint(payload []byte) error {
	if l.f == nil {
		return errors.New("wal: log is closed")
	}
	if len(payload) > maxPayload {
		return fmt.Errorf("%w: checkpoint of %d bytes over the %d-byte cap", ErrFrameTooLarge, len(payload), maxPayload)
	}
	path := filepath.Join(l.dir, logName)
	tmpPath := path + ".tmp"
	tmp, err := os.OpenFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: checkpoint: %w", err)
	}
	rec := frame.Append(nil, TypeCheckpoint, payload)
	_, err = tmp.Write(rec)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmpPath)
		return fmt.Errorf("wal: checkpoint: %w", err)
	}
	if err := os.Rename(tmpPath, path); err != nil {
		os.Remove(tmpPath)
		return fmt.Errorf("wal: checkpoint: %w", err)
	}
	if err := syncDir(l.dir); err != nil {
		return fmt.Errorf("wal: checkpoint: %w", err)
	}
	// Swap the append handle onto the new file.
	nf, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("wal: checkpoint: reopen: %w", err)
	}
	newSize := int64(len(rec))
	if _, err := nf.Seek(newSize, io.SeekStart); err != nil {
		nf.Close()
		return fmt.Errorf("wal: checkpoint: %w", err)
	}
	l.f.Close()
	l.f = nf
	l.size = newSize
	l.records = 1
	l.checkpoints++
	l.dirty = false
	l.lastSync = time.Now() // the rotation fsynced file and directory
	return nil
}

// syncDir fsyncs a directory so a rename within it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Stats returns the log's current gauges.
func (l *Log) Stats() Stats {
	return Stats{
		Bytes:            l.size,
		Records:          l.records,
		Checkpoints:      l.checkpoints,
		LastSyncUnixNano: unixNano(l.lastSync),
	}
}

func unixNano(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return t.UnixNano()
}

// Close fsyncs (whatever the policy — closing is a durability
// point), and closes the log. A closed log refuses further appends.
func (l *Log) Close() error {
	if l.f == nil {
		return nil
	}
	err := l.f.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	if err != nil {
		return fmt.Errorf("wal: close: %w", err)
	}
	return nil
}
