// Package wal owns every durable file in the repository: Log, the CRC-framed
// append-only file under the golden-state commit log (internal/statedb), the
// apply journal (internal/apply) and the jobs journal (internal/jobs), and
// WriteFileAtomic for files replaced whole (state snapshots, workspace
// manifests, ACLs). Each record is framed as
//
//	[uint32 payload length][uint32 CRC-32 (IEEE) of payload][payload]
//
// with little-endian headers. The format is deliberately dumb: no file
// header, no compression, no record type — callers own the payload encoding
// (all current users store JSON). What the package does own is the crash
// contract, stated on Log: a frame is either durable and intact or dropped at
// read time, so a torn write never surfaces a partial record to replay.
package wal

import (
	"encoding/binary"
	"hash/crc32"
)

// HeaderSize is the fixed per-frame header length in bytes.
const HeaderSize = 8

// MaxFrameSize bounds a single frame's payload. Anything larger at decode
// time is treated as corruption: a torn or overwritten length prefix must not
// make replay attempt a multi-gigabyte allocation.
const MaxFrameSize = 64 << 20

// Encode frames one payload for appending to a log.
func Encode(payload []byte) []byte {
	return AppendFrame(make([]byte, 0, HeaderSize+len(payload)), payload)
}

// AppendFrame appends payload's frame to dst.
func AppendFrame(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
	return append(dst, payload...)
}

// Next decodes the frame starting at off in data. It returns the payload and
// the offset just past the frame. ok is false for a torn or corrupt frame:
// short header, zero/oversized/overflowing length, short payload, or CRC
// mismatch — the caller must stop replay there and truncate to off.
func Next(data []byte, off int) (payload []byte, next int, ok bool) {
	if off < 0 || off+HeaderSize > len(data) {
		return nil, off, false
	}
	n := int(binary.LittleEndian.Uint32(data[off:]))
	sum := binary.LittleEndian.Uint32(data[off+4:])
	if n <= 0 || n > MaxFrameSize || off+HeaderSize+n > len(data) {
		return nil, off, false
	}
	payload = data[off+HeaderSize : off+HeaderSize+n]
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, off, false
	}
	return payload, off + HeaderSize + n, true
}

// Scan walks every intact frame from the start of data, invoking fn with
// each payload, and returns the byte offset of the end of the last intact
// frame — the durable prefix. A caller recovering a log truncates the file
// to the returned offset to drop the torn tail. fn returning false stops the
// scan early (the returned offset still covers the frame just delivered).
func Scan(data []byte, fn func(payload []byte) bool) (durable int) {
	off := 0
	for {
		payload, next, ok := Next(data, off)
		if !ok {
			return off
		}
		cont := fn(payload)
		off = next
		if !cont {
			return off
		}
	}
}
