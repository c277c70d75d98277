// Package store is a durable, versioned snapshot store: an append-only,
// checksummed record log on disk, one directory per deployment site.
//
// # On-disk format
//
// The log file (snapshots.log) is a sequence of records:
//
//	offset  size  field
//	0       4     magic: "iUPS" (full record, little-endian 0x53505569)
//	              or "iUPD" (delta record, little-endian 0x44505569)
//	4       8     version (uint64 LE, strictly increasing within the log)
//	12      4     payload length (uint32 LE)
//	16      4     CRC32 (IEEE) over bytes [4,16) + payload
//	20      n     payload
//
// A full record's payload is the complete snapshot, opaque to the store.
// A delta record's payload encodes only the chunks (columns, for the
// fingerprint use) that changed versus the immediately preceding record:
//
//	offset  size       field
//	0       8          base version (uint64 LE; must equal the
//	                   preceding record's version)
//	8       4          materialized payload length F (uint32 LE)
//	12      4          header length H (uint32 LE)
//	16      4          chunk size S (uint32 LE, > 0; F = H + k*S)
//	20      4          changed chunk count C (uint32 LE)
//	24      H          the new leading header bytes
//	24+H    C*(4+S)    changed chunks, ascending: chunk index (uint32
//	                   LE) followed by the chunk's S bytes
//
// Append writes full records only. Delta records are still read: logs
// written by earlier versions of this package hold them, and At and
// Latest materialize one by resolving its chain back to the nearest
// full record and replaying the deltas in order, so callers always see
// the complete payload, whichever kind is on disk.
//
// Appends write one record with a single write(2) followed by fsync, so
// a crash leaves at most one torn record at the tail. Open scans the log
// front to back, verifying magic, length bounds, CRC, version
// monotonicity and — for delta records — the full structural invariants
// (base version continuity, chunk bounds, exact length) per record; the
// first record that fails any check ends the scan and the file is
// truncated back to the last good record — corruption (a torn tail, a
// flipped bit) costs the corrupted suffix, never the store. Because a
// delta is only valid over its predecessor, truncating a chain's base
// automatically drops the dependent deltas with it.
//
// Compaction (retention) copies the retained suffix of records to a
// temp file in the same directory, fsyncs it, and atomically renames it
// over the log, so readers of the directory never observe a partially
// compacted log. When the retained suffix would start with a delta
// record (its base about to be dropped), compaction rebases: the first
// retained version is materialized and rewritten as a fresh full
// record, and the deltas behind it continue to resolve against it.
//
// Small auxiliary state blobs (e.g. a drift monitor's calibrated
// baseline) are stored next to the log as <name>.state files, each a
// single checksummed record replaced atomically via temp-file+rename; a
// corrupt or missing state file reads as absent, never as an error.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"sync"
)

const (
	recordMagic = 0x53505569 // "iUPS" little-endian: full snapshot record
	deltaMagic  = 0x44505569 // "iUPD" little-endian: changed-chunks delta record
	stateMagic  = 0x54535569 // "iUST" little-endian
	headerSize  = 20
	// deltaHeaderSize is the fixed prefix of a delta payload: base
	// version, materialized length, header length, chunk size, count.
	deltaHeaderSize = 24
	// maxPayload bounds a single record (1 GiB); a length field beyond it
	// is treated as corruption rather than attempted as an allocation.
	maxPayload = 1 << 30

	logName = "snapshots.log"
)

// ErrEmpty is returned by Latest on a store with no records.
var ErrEmpty = errors.New("store: no snapshots")

// Kind distinguishes how a record is encoded on disk. Either way, reads
// return the complete materialized payload.
type Kind uint8

const (
	// KindFull is a complete snapshot payload.
	KindFull Kind = iota
	// KindDelta encodes only the chunks changed versus the preceding
	// record. Only logs written by earlier versions hold them.
	KindDelta
)

// String returns "full" or "delta".
func (k Kind) String() string {
	if k == KindDelta {
		return "delta"
	}
	return "full"
}

// Options configures a Store.
type Options struct {
	// Retain keeps only the newest Retain versions; 0 keeps every
	// version forever. Retention is enforced by compaction, triggered
	// automatically once the log holds 2*Retain records (amortizing the
	// rewrite) and on demand via Compact.
	Retain int
	// NoSync skips fsync after writes. Only for tests and benchmarks
	// that measure the in-memory path; durability requires the default.
	NoSync bool
}

type indexEntry struct {
	version uint64
	off     int64 // record start (header) offset in the log
	plen    uint32
	kind    Kind
	mlen    uint32 // materialized payload length (== plen for full records)
}

// RecordInfo describes one retained record as it sits on disk.
type RecordInfo struct {
	Version uint64
	Kind    Kind
	// Bytes is the on-disk record size, the 20-byte header included.
	Bytes int64
}

// Store is an open snapshot store directory. All methods are safe for
// concurrent use: appends and compactions are serialized, reads run
// concurrently against the immutable written prefix.
type Store struct {
	b    Backend
	opts Options

	mu   sync.RWMutex
	f    File
	size int64
	idx  []indexEntry
	// compactions counts log rewrites that actually dropped history
	// this store life (manual Compact and the automatic post-append
	// policy alike); no-op calls don't count.
	compactions uint64
}

// Open opens (creating if needed) the store directory and recovers the
// record index from the log, truncating any corrupted suffix back to
// the last good record.
func Open(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return OpenBackend(NewDir(dir), opts)
}

// OpenBackend opens the store inside an arbitrary Backend namespace and
// recovers the record index exactly as Open does for a directory. The
// backend may hold prior store content (reopening over the same backend
// is a restart).
func OpenBackend(b Backend, opts Options) (*Store, error) {
	f, err := b.Open(logName)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{b: b, opts: opts, f: f}
	if err := s.recover(); err != nil {
		f.Close()
		return nil, err
	}
	if !opts.NoSync {
		// Persist the namespace entry of a freshly created log.
		if err := b.Sync(); err != nil {
			f.Close()
			return nil, err
		}
	}
	return s, nil
}

// recover scans the log, building the index from the longest valid
// record prefix and truncating everything after it.
func (s *Store) recover() error {
	fileSize, err := s.f.Size()
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	var (
		off  int64
		hdr  [headerSize]byte
		last uint64
	)
	for off+headerSize <= fileSize {
		if _, err := s.f.ReadAt(hdr[:], off); err != nil {
			break
		}
		magic := binary.LittleEndian.Uint32(hdr[0:4])
		version := binary.LittleEndian.Uint64(hdr[4:12])
		plen := binary.LittleEndian.Uint32(hdr[12:16])
		sum := binary.LittleEndian.Uint32(hdr[16:20])
		if (magic != recordMagic && magic != deltaMagic) || plen > maxPayload ||
			off+headerSize+int64(plen) > fileSize || version <= last {
			break
		}
		payload := make([]byte, plen)
		if _, err := s.f.ReadAt(payload, off+headerSize); err != nil {
			break
		}
		h := crc32.NewIEEE()
		h.Write(hdr[4:16])
		h.Write(payload)
		if h.Sum32() != sum {
			break
		}
		kind, mlen := KindFull, plen
		if magic == deltaMagic {
			// A delta is only valid directly over the preceding record:
			// structural damage — or a chain whose base was lost — ends
			// the good prefix here.
			if len(s.idx) == 0 {
				break
			}
			prev := s.idx[len(s.idx)-1]
			if !validDelta(payload, prev.version, prev.mlen) {
				break
			}
			kind, mlen = KindDelta, prev.mlen
		}
		s.idx = append(s.idx, indexEntry{version: version, off: off, plen: plen, kind: kind, mlen: mlen})
		last = version
		off += headerSize + int64(plen)
	}
	if off < fileSize {
		if err := s.f.Truncate(off); err != nil {
			return fmt.Errorf("store: truncating corrupted tail: %w", err)
		}
		if !s.opts.NoSync {
			if err := s.f.Sync(); err != nil {
				return fmt.Errorf("store: %w", err)
			}
		}
	}
	s.size = off
	return nil
}

// validDelta checks every structural invariant of a delta payload
// against its expected base: version continuity, exact length, chunk
// tiling, and strictly ascending in-range chunk indices. A payload that
// passes is guaranteed to materialize without bounds errors.
func validDelta(payload []byte, baseVersion uint64, baseLen uint32) bool {
	if len(payload) < deltaHeaderSize {
		return false
	}
	base := binary.LittleEndian.Uint64(payload[0:8])
	full := binary.LittleEndian.Uint32(payload[8:12])
	hlen := binary.LittleEndian.Uint32(payload[12:16])
	chunk := binary.LittleEndian.Uint32(payload[16:20])
	count := binary.LittleEndian.Uint32(payload[20:24])
	if base != baseVersion || full != baseLen || chunk == 0 || hlen > full {
		return false
	}
	rest := full - hlen
	if rest%chunk != 0 {
		return false
	}
	nchunks := rest / chunk
	if count > nchunks {
		return false
	}
	entry := int64(4) + int64(chunk)
	if int64(len(payload)) != deltaHeaderSize+int64(hlen)+int64(count)*entry {
		return false
	}
	prev := int64(-1)
	for c := int64(0); c < int64(count); c++ {
		at := deltaHeaderSize + int64(hlen) + c*entry
		k := int64(binary.LittleEndian.Uint32(payload[at:]))
		if k <= prev || k >= int64(nchunks) {
			return false
		}
		prev = k
	}
	return true
}

// applyDelta patches dst (the base's materialized payload, len == the
// delta's full length) in place. The payload must have passed validDelta.
func applyDelta(dst, payload []byte) {
	hlen := int(binary.LittleEndian.Uint32(payload[12:16]))
	chunk := int(binary.LittleEndian.Uint32(payload[16:20]))
	count := int(binary.LittleEndian.Uint32(payload[20:24]))
	copy(dst[:hlen], payload[deltaHeaderSize:deltaHeaderSize+hlen])
	p := deltaHeaderSize + hlen
	for c := 0; c < count; c++ {
		k := int(binary.LittleEndian.Uint32(payload[p:]))
		copy(dst[hlen+k*chunk:hlen+(k+1)*chunk], payload[p+4:p+4+chunk])
		p += 4 + chunk
	}
}

// Dir returns the store directory (the backend's Root; a placeholder
// for non-directory backends).
func (s *Store) Dir() string { return s.b.Root() }

// frameRecord builds one complete on-disk record: header, payload, CRC.
func frameRecord(magic uint32, version uint64, payload []byte) []byte {
	rec := make([]byte, headerSize+len(payload))
	binary.LittleEndian.PutUint32(rec[0:4], magic)
	binary.LittleEndian.PutUint64(rec[4:12], version)
	binary.LittleEndian.PutUint32(rec[12:16], uint32(len(payload)))
	copy(rec[headerSize:], payload)
	h := crc32.NewIEEE()
	h.Write(rec[4:16])
	h.Write(rec[headerSize:])
	binary.LittleEndian.PutUint32(rec[16:20], h.Sum32())
	return rec
}

// Append durably writes one full record. version must be strictly
// greater than the last stored version (the store never rewrites
// history). The record is on disk (written and fsynced) when Append
// returns.
func (s *Store) Append(version uint64, payload []byte) error {
	if len(payload) > maxPayload {
		return fmt.Errorf("store: payload of %d bytes exceeds the %d-byte record bound", len(payload), maxPayload)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return errors.New("store: closed")
	}
	if last := s.lastVersionLocked(); version <= last {
		return fmt.Errorf("store: version %d is not after the latest stored version %d", version, last)
	}
	rec := frameRecord(recordMagic, version, payload)
	if _, err := s.f.WriteAt(rec, s.size); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if !s.opts.NoSync {
		if err := s.f.Sync(); err != nil {
			return fmt.Errorf("store: %w", err)
		}
	}
	s.idx = append(s.idx, indexEntry{version: version, off: s.size, plen: uint32(len(payload)), kind: KindFull, mlen: uint32(len(payload))})
	s.size += int64(len(rec))
	s.maybeCompactLocked()
	return nil
}

// maybeCompactLocked runs the auto-triggered retention compaction.
func (s *Store) maybeCompactLocked() {
	if s.opts.Retain > 0 && len(s.idx) >= 2*s.opts.Retain {
		// Best-effort: the record just written is already durable, and a
		// failed append would wedge the caller's version sequence (the
		// store holds version N+1 but the caller thinks N is current, so
		// every retry is rejected as non-monotonic). A compaction failure
		// only delays retention — the log grows, appends keep working,
		// the next append or an explicit Compact retries, and Compact
		// surfaces the error to callers who want it.
		_ = s.compactLocked()
	}
}

// Latest returns the newest record's materialized payload, or ErrEmpty.
func (s *Store) Latest() (version uint64, payload []byte, err error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(s.idx) == 0 {
		return 0, nil, ErrEmpty
	}
	payload, err = s.readChainLocked(len(s.idx) - 1)
	return s.idx[len(s.idx)-1].version, payload, err
}

// At returns the materialized record at the given version; versions that
// were never stored or have been compacted away are an error.
func (s *Store) At(version uint64) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for i, e := range s.idx {
		if e.version == version {
			return s.readChainLocked(i)
		}
	}
	if len(s.idx) == 0 {
		return nil, fmt.Errorf("store: version %d not found (store is empty)", version)
	}
	return nil, fmt.Errorf("store: version %d not retained (have %d..%d)",
		version, s.idx[0].version, s.idx[len(s.idx)-1].version)
}

// readChainLocked materializes the record at index position i: a full
// record is read directly; a delta record resolves back to the nearest
// full record and replays the deltas forward. Every record touched is
// CRC-rechecked and every delta structurally re-validated, so bytes
// that rot after Open are caught here.
func (s *Store) readChainLocked(i int) ([]byte, error) {
	base := i
	for base >= 0 && s.idx[base].kind == KindDelta {
		base--
	}
	if base < 0 {
		// Recovery never admits a delta without its base, so this is
		// index corruption, not a reachable log state.
		return nil, fmt.Errorf("store: version %d has no base record", s.idx[i].version)
	}
	cur, err := s.readLocked(s.idx[base])
	if err != nil {
		return nil, err
	}
	for k := base + 1; k <= i; k++ {
		dp, err := s.readLocked(s.idx[k])
		if err != nil {
			return nil, err
		}
		if !validDelta(dp, s.idx[k-1].version, uint32(len(cur))) {
			return nil, fmt.Errorf("store: version %d delta record no longer matches its base", s.idx[k].version)
		}
		applyDelta(cur, dp)
	}
	return cur, nil
}

// readLocked reads and re-verifies one record's raw payload (a delta
// record's payload is the delta encoding, not the materialized
// snapshot — use readChainLocked for that). Re-checking the CRC on
// every read catches bytes that rotted after Open.
func (s *Store) readLocked(e indexEntry) ([]byte, error) {
	frame, err := s.readFrameLocked(e)
	if err != nil {
		return nil, err
	}
	return frame[headerSize:], nil
}

// Versions returns the retained versions in ascending order.
func (s *Store) Versions() []uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]uint64, len(s.idx))
	for i, e := range s.idx {
		out[i] = e.version
	}
	return out
}

// Records returns, per retained version in ascending order, the record
// kind and its on-disk footprint — the observable cost of each durable
// publish.
func (s *Store) Records() []RecordInfo {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]RecordInfo, len(s.idx))
	for i, e := range s.idx {
		out[i] = RecordInfo{Version: e.version, Kind: e.kind, Bytes: headerSize + int64(e.plen)}
	}
	return out
}

// LastVersion returns the newest stored version, 0 when empty.
func (s *Store) LastVersion() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.lastVersionLocked()
}

func (s *Store) lastVersionLocked() uint64 {
	if len(s.idx) == 0 {
		return 0
	}
	return s.idx[len(s.idx)-1].version
}

// Compactions returns how many times this store life rewrote the log to
// drop history (see Compact and Options.Retain).
func (s *Store) Compactions() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.compactions
}

// Compact applies the retention policy now, rewriting the log to hold
// only the newest Retain versions. A no-op when Retain is 0 or nothing
// exceeds it.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return errors.New("store: closed")
	}
	return s.compactLocked()
}

// compactLocked copies the retained suffix to a temp file and renames
// it over the log. Records are copied as they are, except that a suffix
// starting with a delta record (its base about to drop) is rebased: the
// first retained version is materialized and written as a full record,
// and the deltas after it resolve against it unchanged. On any error
// the original log and index are kept.
func (s *Store) compactLocked() error {
	if s.opts.Retain <= 0 || len(s.idx) <= s.opts.Retain {
		return nil
	}
	first := len(s.idx) - s.opts.Retain
	tmpName := logName + ".tmp"
	tmp, err := s.b.Create(tmpName)
	if err != nil {
		return fmt.Errorf("store: compacting: %w", err)
	}
	fail := func(err error) error {
		tmp.Close()
		s.b.Remove(tmpName)
		return fmt.Errorf("store: compacting: %w", err)
	}
	newIdx := append([]indexEntry(nil), s.idx[first:]...)
	var off int64
	for i, e := range newIdx {
		var rec []byte
		if i == 0 && e.kind == KindDelta {
			payload, err := s.readChainLocked(first)
			if err != nil {
				return fail(err)
			}
			rec = frameRecord(recordMagic, e.version, payload)
			e.kind = KindFull
		} else if rec, err = s.readFrameLocked(e); err != nil {
			return fail(err)
		}
		if _, err := tmp.WriteAt(rec, off); err != nil {
			return fail(err)
		}
		e.off, e.plen = off, uint32(len(rec)-headerSize)
		newIdx[i] = e
		off += int64(len(rec))
	}
	if !s.opts.NoSync {
		if err := tmp.Sync(); err != nil {
			return fail(err)
		}
	}
	if err := s.b.Rename(tmpName, logName); err != nil {
		return fail(err)
	}
	// The rename took effect: tmp is now the log. Swap handles.
	s.f.Close()
	s.f = tmp
	s.idx = newIdx
	s.size = off
	s.compactions++
	if !s.opts.NoSync {
		if err := s.b.Sync(); err != nil {
			return err
		}
	}
	return nil
}

// SaveState atomically replaces the named auxiliary state blob
// (temp-file write + fsync + rename). name must be a simple identifier.
func (s *Store) SaveState(name string, payload []byte) error {
	if err := checkStateName(name); err != nil {
		return err
	}
	if len(payload) > maxPayload {
		return fmt.Errorf("store: state %q of %d bytes exceeds the %d-byte bound", name, len(payload), maxPayload)
	}
	rec := make([]byte, 12+len(payload))
	binary.LittleEndian.PutUint32(rec[0:4], stateMagic)
	binary.LittleEndian.PutUint32(rec[4:8], uint32(len(payload)))
	binary.LittleEndian.PutUint32(rec[8:12], crc32.ChecksumIEEE(payload))
	copy(rec[12:], payload)

	s.mu.Lock()
	defer s.mu.Unlock()
	stateName := name + ".state"
	tmpName := stateName + ".tmp"
	tmp, err := s.b.Create(tmpName)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := tmp.WriteAt(rec, 0); err != nil {
		tmp.Close()
		s.b.Remove(tmpName)
		return fmt.Errorf("store: %w", err)
	}
	if !s.opts.NoSync {
		if err := tmp.Sync(); err != nil {
			tmp.Close()
			s.b.Remove(tmpName)
			return fmt.Errorf("store: %w", err)
		}
	}
	if err := tmp.Close(); err != nil {
		s.b.Remove(tmpName)
		return fmt.Errorf("store: %w", err)
	}
	if err := s.b.Rename(tmpName, stateName); err != nil {
		s.b.Remove(tmpName)
		return fmt.Errorf("store: %w", err)
	}
	if !s.opts.NoSync {
		return s.b.Sync()
	}
	return nil
}

// LoadState reads the named auxiliary state blob. A missing, torn or
// corrupt file reads as absent (ok=false, nil error): state blobs are
// caches a consumer can always rebuild.
func (s *Store) LoadState(name string) (payload []byte, ok bool, err error) {
	if err := checkStateName(name); err != nil {
		return nil, false, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	b, err := s.b.ReadFile(name + ".state")
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, false, nil
		}
		return nil, false, fmt.Errorf("store: %w", err)
	}
	if len(b) < 12 || binary.LittleEndian.Uint32(b[0:4]) != stateMagic {
		return nil, false, nil
	}
	plen := binary.LittleEndian.Uint32(b[4:8])
	if int(plen) != len(b)-12 {
		return nil, false, nil
	}
	if crc32.ChecksumIEEE(b[12:]) != binary.LittleEndian.Uint32(b[8:12]) {
		return nil, false, nil
	}
	return b[12:], true, nil
}

func checkStateName(name string) error {
	if name == "" {
		return errors.New("store: empty state name")
	}
	for _, r := range name {
		if (r < 'a' || r > 'z') && (r < 'A' || r > 'Z') && (r < '0' || r > '9') && r != '-' && r != '_' {
			return fmt.Errorf("store: state name %q: use letters, digits, - and _", name)
		}
	}
	return nil
}

// Close releases the log handle. Further operations fail.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	s.f = nil
	return err
}
