// Package wire is the binary framing layer of the distributed engine
// transport: length-prefixed frames with a versioned header and a CRC32
// trailer, plus the compact encoding of remote-event batches that crosses
// worker processes at every barrier window.
//
// The format is deliberately simple — fixed little-endian integers, no
// reflection, no external dependencies — so both sides can encode and
// decode without allocation pressure and a corrupted or truncated frame is
// always detected before any payload byte is interpreted:
//
//	offset  size  field
//	0       2     magic "MF"
//	2       1     protocol version (Version)
//	3       1     frame type (Msg*)
//	4       4     payload length (uint32 LE)
//	8       n     payload
//	8+n     4     CRC32 (IEEE) over bytes [0, 8+n)
//
// Every error condition is a distinct sentinel so the transport can tell a
// negotiation failure (ErrVersion) from line corruption (ErrCRC, ErrMagic)
// from a resource-bound violation (ErrTooLarge).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

// Version is the protocol version byte. A peer speaking a different
// version is rejected at the first frame. Version 2: WindowDone names its
// window by start and end time instead of a grid index, and Job no longer
// carries the window length and count.
const Version = 2

// headerSize and trailerSize bound a frame's fixed overhead.
const (
	headerSize  = 8
	trailerSize = 4
)

// DefaultMaxFrame bounds the payload a reader will accept (16 MiB). A
// window's remote-event batch at production scale stays far below this;
// anything larger is a corrupt length field or a hostile peer.
const DefaultMaxFrame = 16 << 20

// Frame types of the distributed run protocol.
const (
	// MsgHello is a worker's handshake: to the coordinator its name and
	// peer address, to a peer its index.
	MsgHello byte = iota + 1
	// MsgJob is the coordinator's assignment: run spec, engine range, the
	// worker's index and the peer table.
	MsgJob
	// MsgWindowDone is one worker's barrier arrival at a peer: control data
	// plus the window's cross-worker events for that peer's engines.
	MsgWindowDone
	// Type 4 was the coordinator's barrier release, retired when workers
	// began trading windows peer-to-peer; it stays reserved.
	_
	// MsgHeartbeat is a worker's keepalive to the coordinator, with the
	// number of windows it has sent.
	MsgHeartbeat
	// MsgResult carries a worker's final partial statistics and payload.
	MsgResult
	// MsgAbort tears a run down (either direction), with a reason.
	MsgAbort
)

// Typed decode errors.
var (
	ErrMagic     = errors.New("wire: bad frame magic")
	ErrVersion   = errors.New("wire: protocol version mismatch")
	ErrCRC       = errors.New("wire: frame CRC mismatch")
	ErrTooLarge  = errors.New("wire: frame exceeds size limit")
	ErrTruncated = errors.New("wire: truncated frame")
	ErrShort     = errors.New("wire: short payload")
)

var magic = [2]byte{'M', 'F'}

// AppendFrame appends one encoded frame to dst and returns the extended
// slice, so a caller can gather several frames for one Write.
func AppendFrame(dst []byte, typ byte, payload []byte) []byte {
	start := len(dst)
	dst = slices.Grow(dst, headerSize+len(payload)+trailerSize)
	dst = append(dst, magic[0], magic[1], Version, typ)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = append(dst, payload...)
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:]))
}

// WriteFrame encodes and writes one frame. It performs exactly one Write
// call so frames interleave safely when the caller serializes writers with
// a mutex.
func WriteFrame(w io.Writer, typ byte, payload []byte) error {
	_, err := w.Write(AppendFrame(nil, typ, payload))
	return err
}

// ReadFrame reads and verifies one frame. maxLen ≤ 0 selects
// DefaultMaxFrame. The returned payload is freshly allocated and owned by
// the caller.
func ReadFrame(r io.Reader, maxLen int) (typ byte, payload []byte, err error) {
	if maxLen <= 0 {
		maxLen = DefaultMaxFrame
	}
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return 0, nil, ErrTruncated
		}
		return 0, nil, err
	}
	if hdr[0] != magic[0] || hdr[1] != magic[1] {
		return 0, nil, ErrMagic
	}
	if hdr[2] != Version {
		return 0, nil, fmt.Errorf("%w: got %d, want %d", ErrVersion, hdr[2], Version)
	}
	n := binary.LittleEndian.Uint32(hdr[4:8])
	if n > uint32(maxLen) {
		return 0, nil, fmt.Errorf("%w: %d > %d", ErrTooLarge, n, maxLen)
	}
	body := make([]byte, int(n)+trailerSize)
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, nil, ErrTruncated
	}
	sum := crc32.ChecksumIEEE(hdr[:])
	sum = crc32.Update(sum, crc32.IEEETable, body[:n])
	if binary.LittleEndian.Uint32(body[n:]) != sum {
		return 0, nil, ErrCRC
	}
	return hdr[3], body[:n:n], nil
}

// Buffer is an append-style encoder for frame payloads.
type Buffer struct{ B []byte }

// U8 appends one byte.
func (e *Buffer) U8(v byte) { e.B = append(e.B, v) }

// U16 appends a uint16.
func (e *Buffer) U16(v uint16) { e.B = binary.LittleEndian.AppendUint16(e.B, v) }

// U32 appends a uint32.
func (e *Buffer) U32(v uint32) { e.B = binary.LittleEndian.AppendUint32(e.B, v) }

// U64 appends a uint64.
func (e *Buffer) U64(v uint64) { e.B = binary.LittleEndian.AppendUint64(e.B, v) }

// I64 appends an int64.
func (e *Buffer) I64(v int64) { e.B = binary.LittleEndian.AppendUint64(e.B, uint64(v)) }

// I32 appends an int32.
func (e *Buffer) I32(v int32) { e.B = binary.LittleEndian.AppendUint32(e.B, uint32(v)) }

// Bytes appends a length-prefixed byte string (uint32 length).
func (e *Buffer) Bytes(v []byte) {
	e.U32(uint32(len(v)))
	e.B = append(e.B, v...)
}

// String appends a length-prefixed string.
func (e *Buffer) String(v string) {
	e.U32(uint32(len(v)))
	e.B = append(e.B, v...)
}

// Reader decodes a payload written with Buffer. Decoding never panics on
// malformed input: once any read runs past the end, Err() reports ErrShort
// and every subsequent read returns a zero value.
type Reader struct {
	B   []byte
	off int
	err error
}

// NewReader wraps a payload.
func NewReader(b []byte) *Reader { return &Reader{B: b} }

// Err returns the first decode error (nil if all reads were in bounds).
func (r *Reader) Err() error { return r.err }

// Len returns the number of unread bytes.
func (r *Reader) Len() int { return len(r.B) - r.off }

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.B) {
		r.err = ErrShort
		return nil
	}
	b := r.B[r.off : r.off+n]
	r.off += n
	return b
}

// U8 reads one byte.
func (r *Reader) U8() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U16 reads a uint16.
func (r *Reader) U16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

// U32 reads a uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads an int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// I32 reads an int32.
func (r *Reader) I32() int32 { return int32(r.U32()) }

// BytesView reads a length-prefixed byte string, aliasing the payload.
func (r *Reader) BytesView() []byte {
	n := r.U32()
	if r.err != nil {
		return nil
	}
	if uint64(n) > uint64(r.Len()) {
		r.err = ErrShort
		return nil
	}
	return r.take(int(n))
}

// String reads a length-prefixed string.
func (r *Reader) String() string { return string(r.BytesView()) }
