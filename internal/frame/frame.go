// Package frame is the repo's one record format: the checksummed,
// length-prefixed frame that the write-ahead log (read as a stream,
// Read) and internal/store's disk file (one record read whole, Decode)
// put on their bytes.
//
//	[u32 payload length, little endian]
//	[u32 CRC-32C over type byte + payload, little endian]
//	[u8  type]
//	[payload]
//
// The CRC uses the Castagnoli polynomial (hardware-accelerated on
// amd64/arm64) and covers the type byte, so a flipped tag is detected
// corruption, not a misdispatch.
//
// Both decoders report three outcomes besides a frame: io.EOF, a clean
// end exactly on a frame boundary; io.ErrUnexpectedEOF, a torn frame (a
// short header or a truncated payload); and ErrCorrupt, a length field
// over the caller's cap or a checksum mismatch. A length over the cap
// is refused before anything is allocated, so a damaged length field
// cannot provoke a giant allocation.
package frame

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// HeaderSize is the frame overhead: length, checksum and type.
const HeaderSize = 9

// ErrCorrupt reports a frame whose length field exceeds the caller's
// cap or whose checksum fails. Test with errors.Is.
var ErrCorrupt = errors.New("frame: corrupt")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func checksum(typ byte, parts ...[]byte) uint32 {
	crc := crc32.Checksum([]byte{typ}, castagnoli)
	for _, p := range parts {
		crc = crc32.Update(crc, castagnoli, p)
	}
	return crc
}

// Append appends one frame to dst and returns the extended slice. The
// payload is the concatenation of parts, so a caller with a structured
// payload frames it without first copying it together. Keeping the
// payload under the readers' cap is the caller's job.
func Append(dst []byte, typ byte, parts ...[]byte) []byte {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(n))
	dst = binary.LittleEndian.AppendUint32(dst, checksum(typ, parts...))
	dst = append(dst, typ)
	for _, p := range parts {
		dst = append(dst, p...)
	}
	return dst
}

// payloadLen returns a complete header's length field, refusing one
// over max.
func payloadLen(hdr []byte, max int) (int, error) {
	n := binary.LittleEndian.Uint32(hdr[0:4])
	if uint64(n) > uint64(max) {
		return 0, fmt.Errorf("%w: payload length %d over the %d-byte cap", ErrCorrupt, n, max)
	}
	return int(n), nil
}

// verify checks a frame's checksum against its type and payload.
func verify(hdr, payload []byte) (byte, []byte, error) {
	typ := hdr[8]
	if checksum(typ, payload) != binary.LittleEndian.Uint32(hdr[4:8]) {
		return 0, nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	return typ, payload, nil
}

// Decode decodes the frame at the start of buf, a record read whole.
// The payload is a subslice of buf, and the frame spans
// HeaderSize+len(payload) bytes. An empty buf is io.EOF.
func Decode(buf []byte, max int) (typ byte, payload []byte, err error) {
	if len(buf) == 0 {
		return 0, nil, io.EOF
	}
	if len(buf) < HeaderSize {
		return 0, nil, io.ErrUnexpectedEOF
	}
	n, err := payloadLen(buf, max)
	if err != nil {
		return 0, nil, err
	}
	if len(buf)-HeaderSize < n {
		return 0, nil, io.ErrUnexpectedEOF
	}
	return verify(buf[:HeaderSize], buf[HeaderSize:HeaderSize+n])
}

// Read reads one frame from a stream — a buffered file or a pipe. The
// payload is freshly allocated. Errors other than the three outcomes
// are r's own.
func Read(r io.Reader, max int) (typ byte, payload []byte, err error) {
	var hdr [HeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err // io.EOF before any byte, io.ErrUnexpectedEOF after some
	}
	n, err := payloadLen(hdr[:], max)
	if err != nil {
		return 0, nil, err
	}
	payload = make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	return verify(hdr[:], payload)
}
