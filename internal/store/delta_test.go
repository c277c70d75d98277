package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"
)

// The store writes full records only, but logs written by earlier
// versions of this package hold iUPD delta records, and every read path
// must keep accepting them. The encoder below writes those records
// byte for byte as the old write path did, so the read-side tests can
// build delta-bearing logs.

// chunkLayout tiles a payload into a fixed headerLen-byte prefix
// followed by equal chunkSize-byte chunks (for fingerprint snapshots,
// one chunk per column).
type chunkLayout struct {
	headerLen, chunkSize int
}

// encodeDeltaRecord diffs payload against prev (the materialized payload
// of baseVersion) under the layout and returns a complete framed delta
// record, or nil when a delta is not worthwhile: the lengths differ, the
// layout does not tile the payload, or the encoded delta would exceed
// half the full payload.
func encodeDeltaRecord(version uint64, payload, prev []byte, baseVersion uint64, layout chunkLayout) []byte {
	hlen, chunk := layout.headerLen, layout.chunkSize
	if len(prev) != len(payload) || chunk <= 0 || hlen < 0 || hlen > len(payload) ||
		(len(payload)-hlen)%chunk != 0 {
		return nil
	}
	nchunks := (len(payload) - hlen) / chunk
	changed := make([]int, 0, nchunks)
	for k := 0; k < nchunks; k++ {
		if !bytes.Equal(payload[hlen+k*chunk:hlen+(k+1)*chunk], prev[hlen+k*chunk:hlen+(k+1)*chunk]) {
			changed = append(changed, k)
		}
	}
	deltaLen := deltaHeaderSize + hlen + len(changed)*(4+chunk)
	if 2*deltaLen > len(payload) {
		return nil
	}
	rec := make([]byte, headerSize+deltaLen)
	buf := rec[headerSize:]
	binary.LittleEndian.PutUint64(buf[0:8], baseVersion)
	binary.LittleEndian.PutUint32(buf[8:12], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[12:16], uint32(hlen))
	binary.LittleEndian.PutUint32(buf[16:20], uint32(chunk))
	binary.LittleEndian.PutUint32(buf[20:24], uint32(len(changed)))
	copy(buf[deltaHeaderSize:], payload[:hlen])
	p := deltaHeaderSize + hlen
	for _, k := range changed {
		binary.LittleEndian.PutUint32(buf[p:], uint32(k))
		copy(buf[p+4:], payload[hlen+k*chunk:hlen+(k+1)*chunk])
		p += 4 + chunk
	}
	binary.LittleEndian.PutUint32(rec[0:4], deltaMagic)
	binary.LittleEndian.PutUint64(rec[4:12], version)
	binary.LittleEndian.PutUint32(rec[12:16], uint32(deltaLen))
	h := crc32.NewIEEE()
	h.Write(rec[4:16])
	h.Write(buf)
	binary.LittleEndian.PutUint32(rec[16:20], h.Sum32())
	return rec
}

// appendDelta durably writes payload as a delta record over the store's
// newest record, as stores written by earlier versions did, and then
// runs the usual post-append retention policy. The test fails when no
// delta can be encoded (no predecessor, a length change, or more than
// half the payload changed).
func appendDelta(tb testing.TB, s *Store, version uint64, payload []byte, layout chunkLayout) {
	tb.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.idx) == 0 {
		tb.Fatalf("v%d: a delta record needs a predecessor", version)
	}
	last := s.idx[len(s.idx)-1]
	if version <= last.version {
		tb.Fatalf("v%d is not after the latest stored version %d", version, last.version)
	}
	prev, err := s.readChainLocked(len(s.idx) - 1)
	if err != nil {
		tb.Fatal(err)
	}
	rec := encodeDeltaRecord(version, payload, prev, last.version, layout)
	if rec == nil {
		tb.Fatalf("v%d: payload does not encode as a delta over v%d", version, last.version)
	}
	if _, err := s.f.WriteAt(rec, s.size); err != nil {
		tb.Fatal(err)
	}
	s.idx = append(s.idx, indexEntry{version: version, off: s.size, plen: uint32(len(rec) - headerSize), kind: KindDelta, mlen: uint32(len(payload))})
	s.size += int64(len(rec))
	s.maybeCompactLocked()
}
