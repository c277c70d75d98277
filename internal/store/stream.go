package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
	"sort"
)

// This file turns the on-disk record log into a wire protocol. The frame
// format on the wire is exactly the on-disk record framing (20-byte
// magic/version/length/CRC header + payload, full or delta kind): a
// leader streams raw frames out of its log with RecordFramesFrom, a
// follower splits the byte stream back into frames with ReadFrame and
// applies them through a Replay, which re-runs the same CRC recheck and
// delta structural validation as Open recovery before mutating any
// state — a corrupt or torn frame is rejected without effect, so the
// follower can simply re-request from its last applied version.

// ErrCompacted is returned by RecordFramesFrom when the requested resume
// version precedes the compaction horizon (the oldest retained record):
// the records needed to continue that chain are gone, and the caller
// must re-bootstrap from the newest full record instead of retrying.
var ErrCompacted = errors.New("store: version precedes the compaction horizon")

// RecordFramesFrom returns the raw on-disk frames (header + payload,
// verbatim) of every retained record with version >= from, in log order.
//
// from == 0 requests a bootstrap: the stream starts at the newest full
// record, the earliest point from which a follower with no prior state
// can materialize the latest version (every later record's delta chain
// resolves against it). from > 0 resumes an existing follower — it must
// be the version after the follower's last applied record; a from below
// the compaction horizon returns ErrCompacted so the follower knows to
// re-bootstrap rather than wait for records that will never appear.
//
// An empty store, or a from beyond the newest version, returns no frames
// and no error: there is simply nothing to send yet.
func (s *Store) RecordFramesFrom(from uint64) ([][]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.f == nil {
		return nil, errors.New("store: closed")
	}
	if len(s.idx) == 0 {
		return nil, nil
	}
	start := 0
	if from == 0 {
		// Bootstrap: the newest full record. The log always retains at
		// least one (recovery and compaction both guarantee the first
		// record is full), so this search cannot fail.
		for i := len(s.idx) - 1; i >= 0; i-- {
			if s.idx[i].kind == KindFull {
				start = i
				break
			}
		}
	} else {
		if from < s.idx[0].version {
			return nil, fmt.Errorf("%w: requested %d, oldest retained %d", ErrCompacted, from, s.idx[0].version)
		}
		start = sort.Search(len(s.idx), func(i int) bool { return s.idx[i].version >= from })
		if start == len(s.idx) {
			return nil, nil
		}
	}
	frames := make([][]byte, 0, len(s.idx)-start)
	for _, e := range s.idx[start:] {
		frame, err := s.readFrameLocked(e)
		if err != nil {
			return nil, err
		}
		frames = append(frames, frame)
	}
	return frames, nil
}

// OldestVersion returns the compaction horizon — the oldest retained
// version — or 0 when the store is empty.
func (s *Store) OldestVersion() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(s.idx) == 0 {
		return 0
	}
	return s.idx[0].version
}

// readFrameLocked reads one record's complete frame (header included)
// and re-verifies its CRC, catching bytes that rotted after Open.
func (s *Store) readFrameLocked(e indexEntry) ([]byte, error) {
	if s.f == nil {
		return nil, errors.New("store: closed")
	}
	buf := make([]byte, headerSize+int64(e.plen))
	if _, err := s.f.ReadAt(buf, e.off); err != nil {
		return nil, fmt.Errorf("store: reading version %d: %w", e.version, err)
	}
	h := crc32.NewIEEE()
	h.Write(buf[4:16])
	h.Write(buf[headerSize:])
	if h.Sum32() != binary.LittleEndian.Uint32(buf[16:20]) {
		return nil, fmt.Errorf("store: version %d failed its checksum", e.version)
	}
	return buf, nil
}

// ReadFrame splits one record frame off a byte stream: the fixed header
// is read first, its length field bounds the payload read. A clean end
// of stream at a frame boundary returns io.EOF; a stream that ends
// mid-frame returns io.ErrUnexpectedEOF; a header that cannot begin a
// record (bad magic, oversized length) is an error before any payload
// is read. ReadFrame validates only enough to frame the stream — CRC
// and structural checks happen in Replay.Apply.
//
// The frame grows as its bytes arrive rather than trusting the length
// field up front, so a peer that sends a header alone costs at most
// frameChunk bytes, not the up-to-1-GiB length it claims. A frame that
// fits in frameChunk takes one exact-size allocation.
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		// io.EOF here is a clean frame boundary; a partial header is
		// already io.ErrUnexpectedEOF, and transport errors pass through.
		return nil, err
	}
	magic := binary.LittleEndian.Uint32(hdr[0:4])
	plen := binary.LittleEndian.Uint32(hdr[12:16])
	if magic != recordMagic && magic != deltaMagic {
		return nil, fmt.Errorf("store: stream frame has unknown magic %#x", magic)
	}
	if plen > maxPayload {
		return nil, fmt.Errorf("store: stream frame length %d exceeds the %d-byte record bound", plen, maxPayload)
	}
	total := headerSize + int(plen)
	frame := make([]byte, headerSize, min(total, headerSize+frameChunk))
	copy(frame, hdr[:])
	for len(frame) < total {
		if len(frame) == cap(frame) {
			frame = slices.Grow(frame, min(total-len(frame), len(frame)))
		}
		end := min(cap(frame), total)
		if _, err := io.ReadFull(r, frame[len(frame):end]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		frame = frame[:end]
	}
	return frame, nil
}

// frameChunk bounds ReadFrame's first payload allocation; larger frames
// at least double their buffer per step as bytes arrive.
const frameChunk = 64 << 10

// Replay materializes a record stream on the follower side of
// replication: it holds the latest applied version and its materialized
// payload, and Apply advances it one frame at a time under exactly the
// validation Open recovery runs — CRC recheck, version monotonicity,
// and for delta frames the full structural check against the current
// base. A frame that fails any check is rejected with no state change,
// so the caller can re-request the same version after a transient
// corruption. The zero value is an empty replay that accepts only a
// full record first (a delta has no base to resolve against).
//
// A Replay is not safe for concurrent use; replication drives one from
// a single tailer goroutine.
type Replay struct {
	version uint64
	payload []byte
}

// Payload returns the materialized payload of the latest applied
// version. The slice is reused by subsequent Applies — callers must
// copy what they keep (decoding into an owned structure counts).
func (r *Replay) Payload() []byte { return r.payload }

// Apply validates one frame and advances the replay. Full frames
// replace the materialized payload; delta frames must chain directly
// onto the current version and are patched in place. The returned Kind
// reports how the record was encoded on the wire.
func (r *Replay) Apply(frame []byte) (uint64, Kind, error) {
	if len(frame) < headerSize {
		return 0, KindFull, fmt.Errorf("store: frame of %d bytes is shorter than a record header", len(frame))
	}
	magic := binary.LittleEndian.Uint32(frame[0:4])
	version := binary.LittleEndian.Uint64(frame[4:12])
	plen := binary.LittleEndian.Uint32(frame[12:16])
	sum := binary.LittleEndian.Uint32(frame[16:20])
	if magic != recordMagic && magic != deltaMagic {
		return 0, KindFull, fmt.Errorf("store: frame has unknown magic %#x", magic)
	}
	if plen > maxPayload || int(plen) != len(frame)-headerSize {
		return 0, KindFull, fmt.Errorf("store: frame length field %d does not match the %d payload bytes", plen, len(frame)-headerSize)
	}
	payload := frame[headerSize:]
	h := crc32.NewIEEE()
	h.Write(frame[4:16])
	h.Write(payload)
	if h.Sum32() != sum {
		return 0, KindFull, fmt.Errorf("store: version %d frame failed its checksum", version)
	}
	if version <= r.version {
		return 0, KindFull, fmt.Errorf("store: version %d is not after the replayed version %d", version, r.version)
	}
	if magic == recordMagic {
		r.payload = append(r.payload[:0], payload...)
		r.version = version
		return version, KindFull, nil
	}
	if r.version == 0 {
		return 0, KindDelta, fmt.Errorf("store: version %d delta frame has no base to resolve against", version)
	}
	if !validDelta(payload, r.version, uint32(len(r.payload))) {
		return 0, KindDelta, fmt.Errorf("store: version %d delta frame does not chain onto version %d", version, r.version)
	}
	applyDelta(r.payload, payload)
	r.version = version
	return version, KindDelta, nil
}
