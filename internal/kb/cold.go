package kb

import (
	"encoding/binary"
	"fmt"

	"repro/internal/store"
)

// Cold descriptions: with a store attached, a Collection keeps only the
// id-addressed hot state resident — URIs, KB indices, liveness, the
// token cache — and moves description bodies (types, attributes, links)
// behind the storage boundary. Every Desc of a spilled id is a store
// read and a decode; everything that only needs identity or liveness
// (Evict, CrossKB, LiveIDsOfKB) never touches the store.
//
// Bodies live under 13-byte sort-preserving keys: the 'D' namespace
// tag, a big-endian compaction epoch, and the big-endian id. Epochs
// keep a compacted collection's rewrite separate from its predecessor:
// Compact writes survivors under epoch+1 while the old epoch stays
// intact until the swap commits and DropCold clears it — the same
// prepare/commit shape as the WAL checkpoint it rides along with.

// descTag is the store key namespace for description bodies.
const descTag = 'D'

func descKey(epoch uint32, id int) []byte {
	var k [13]byte
	k[0] = descTag
	binary.BigEndian.PutUint32(k[1:5], epoch)
	binary.BigEndian.PutUint64(k[5:], uint64(id))
	return k[:]
}

func epochPrefix(epoch uint32) []byte {
	var k [5]byte
	k[0] = descTag
	binary.BigEndian.PutUint32(k[1:5], epoch)
	return k[:]
}

// AttachStore moves description bodies behind the storage boundary:
// every body already resident is spilled to the store under the given
// epoch, and every later Add writes through.
func (c *Collection) AttachStore(s store.Store, epoch uint32) error {
	c.cold = s
	c.epoch = epoch
	c.uris = make([]string, len(c.descs))
	for id, d := range c.descs {
		if d == nil {
			continue
		}
		c.uris[id] = d.URI
		if err := s.Put(descKey(epoch, id), encodeDesc(d)); err != nil {
			return err
		}
		c.descs[id] = nil
	}
	return nil
}

// Spilled reports whether description bodies live behind a store.
func (c *Collection) Spilled() bool { return c.cold != nil }

// ColdEpoch returns the store epoch this collection's bodies live under.
func (c *Collection) ColdEpoch() uint32 { return c.epoch }

// DropCold deletes this collection's description bodies from the store
// — called on the superseded collection once a compaction swap commits,
// or on the abandoned one when the swap fails.
func (c *Collection) DropCold() error {
	if c.cold == nil {
		return nil
	}
	return store.DropPrefix(c.cold, epochPrefix(c.epoch))
}

// ColdErr returns the first store error the collection absorbed on a
// path with no error return (a page-in inside Desc, a write-through
// inside Add). The session checks it after every mutation wave and
// poisons itself: once a cold read has been answered with a stub, the
// in-memory state can no longer be trusted to match the log.
func (c *Collection) ColdErr() error {
	c.coldMu.Lock()
	defer c.coldMu.Unlock()
	return c.coldErr
}

func (c *Collection) setColdErr(err error) {
	c.coldMu.Lock()
	if c.coldErr == nil {
		c.coldErr = err
	}
	c.coldMu.Unlock()
}

// pageIn resolves a spilled description: a store read and a decode
// into a fresh Description. Safe under concurrent readers (WarmTokens
// workers): the store serializes its reads.
func (c *Collection) pageIn(id int) *Description {
	buf, ok, err := c.cold.Get(descKey(c.epoch, id))
	if err == nil && !ok {
		err = fmt.Errorf("kb: cold description %d missing from store (epoch %d)", id, c.epoch)
	}
	var d *Description
	if err == nil {
		d, err = decodeDesc(buf, c.uris[id], c.kbNames[c.kbOf[id]])
	}
	if err != nil {
		c.setColdErr(err)
		return &Description{URI: c.uris[id], KB: c.kbNames[c.kbOf[id]]}
	}
	return d
}

// putCold writes a description body through to the store.
func (c *Collection) putCold(id int, d *Description) {
	if err := c.cold.Put(descKey(c.epoch, id), encodeDesc(d)); err != nil {
		c.setColdErr(err)
	}
}

// encodeDesc serializes a description body — types, attributes, links,
// each a uvarint count of length-prefixed strings. URI and KB are not
// encoded: they stay in the hot arrays and are re-attached on decode.
func encodeDesc(d *Description) []byte {
	size := 8
	for _, s := range d.Types {
		size += len(s) + 2
	}
	for _, a := range d.Attrs {
		size += len(a.Predicate) + len(a.Value) + 4
	}
	for _, s := range d.Links {
		size += len(s) + 2
	}
	b := make([]byte, 0, size)
	b = binary.AppendUvarint(b, uint64(len(d.Types)))
	for _, s := range d.Types {
		b = appendColdStr(b, s)
	}
	b = binary.AppendUvarint(b, uint64(len(d.Attrs)))
	for _, a := range d.Attrs {
		b = appendColdStr(b, a.Predicate)
		b = appendColdStr(b, a.Value)
	}
	b = binary.AppendUvarint(b, uint64(len(d.Links)))
	for _, s := range d.Links {
		b = appendColdStr(b, s)
	}
	return b
}

func appendColdStr(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func decodeDesc(buf []byte, uri, kbName string) (*Description, error) {
	d := &Description{URI: uri, KB: kbName}
	n, buf, err := readColdCount(buf)
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		var s string
		if s, buf, err = readColdStr(buf); err != nil {
			return nil, err
		}
		d.Types = append(d.Types, s)
	}
	if n, buf, err = readColdCount(buf); err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		var p, v string
		if p, buf, err = readColdStr(buf); err != nil {
			return nil, err
		}
		if v, buf, err = readColdStr(buf); err != nil {
			return nil, err
		}
		d.Attrs = append(d.Attrs, Attribute{Predicate: p, Value: v})
	}
	if n, buf, err = readColdCount(buf); err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		var s string
		if s, buf, err = readColdStr(buf); err != nil {
			return nil, err
		}
		d.Links = append(d.Links, s)
	}
	if len(buf) != 0 {
		return nil, fmt.Errorf("kb: %d trailing bytes after description body", len(buf))
	}
	return d, nil
}

func readColdCount(buf []byte) (int, []byte, error) {
	v, n := binary.Uvarint(buf)
	if n <= 0 || v > uint64(len(buf)) {
		return 0, nil, fmt.Errorf("kb: corrupt description body (count)")
	}
	return int(v), buf[n:], nil
}

func readColdStr(buf []byte) (string, []byte, error) {
	v, n := binary.Uvarint(buf)
	if n <= 0 || v > uint64(len(buf)-n) {
		return "", nil, fmt.Errorf("kb: corrupt description body (string)")
	}
	return string(buf[n : n+int(v)]), buf[n+int(v):], nil
}
