package iupdater

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"iupdater/internal/store"
)

// StoreOption configures a Store opened with OpenStore.
type StoreOption func(*storeConfig)

type storeConfig struct {
	retain  int
	noSync  bool
	backend Backend
}

// Backend is the pluggable storage namespace a Store lives in — a flat
// set of named files holding the record log and auxiliary state blobs.
// The default is a local directory; NewMemoryBackend backs the same
// durability contract with RAM. See the internal store package docs for
// the exact guarantees an implementation must provide (atomic rename,
// inode-style open-handle semantics, fsync-before-swap).
type Backend = store.Backend

// BackendFile is one open file inside a Backend's namespace.
type BackendFile = store.File

// NewMemoryBackend returns an empty in-memory Backend: the store's full
// record format and recovery machinery running against RAM. Content
// lives exactly as long as the Backend value — reopening a store over
// the same Backend is the in-memory analogue of a process restart —
// making it the right base for tests, benchmarks and ephemeral sites
// that should not cost disk.
func NewMemoryBackend() Backend { return store.NewMemory() }

// WithRetention keeps only the newest n snapshot versions on disk
// (default 0: keep every version forever). Older versions are removed by
// compaction — triggered automatically as the log grows and on demand
// via Store.Compact — and stop being available to Rollback.
func WithRetention(n int) StoreOption {
	return func(c *storeConfig) { c.retain = n }
}

// WithoutSync skips the fsync after each write. Only for tests and
// benchmarks; production stores must keep the default, which makes every
// published snapshot durable before it becomes visible.
func WithoutSync() StoreOption {
	return func(c *storeConfig) { c.noSync = true }
}

// WithBackend opens the store inside the given Backend namespace
// instead of a local directory; the dir argument of OpenStore is then
// ignored. The on-disk record format, recovery, compaction and the
// fsync-before-swap durability contract are identical across backends —
// only where the bytes land changes.
func WithBackend(b Backend) StoreOption {
	return func(c *storeConfig) { c.backend = b }
}

// Store is a durable, versioned snapshot store: one directory holding an
// append-only checksummed record log of every snapshot a Deployment
// publishes, plus small auxiliary state (the drift monitor's calibrated
// baseline). Attach one to a new Deployment with WithStore, or warm-start
// a Deployment from an existing directory with OpenDeployment.
//
// Durability model: a snapshot is written and fsynced before the
// Deployment swaps it in, so a version that was ever visible to queries
// is on disk. A crash mid-append leaves at most one torn tail record,
// which the next OpenStore truncates back to the last good record — the
// store recovers to the newest durable version instead of failing open.
// See the internal/store package documentation for the record format.
//
// Every publish is persisted as a full snapshot record: an update
// reconstructs the whole fingerprint matrix, so every column changes.
// Stores written by earlier versions may also hold delta records (only
// the columns changed versus the previous version); they are still
// read, and reads resolve a delta chain back to its base full record.
// Records reports each retained version's record kind and on-disk
// footprint.
//
// All methods are safe for concurrent use. A Store must be attached to
// at most one live Deployment at a time (two writers would race on the
// version sequence; the loser's append fails).
type Store struct {
	st *store.Store
	// closeErr, when non-nil, is returned by Close after the underlying
	// store closed — a test seam for fleet lifecycle fault injection.
	closeErr error
}

// OpenStore opens (creating if needed) a snapshot store directory and
// recovers its record index, truncating any corrupted suffix.
func OpenStore(dir string, opts ...StoreOption) (*Store, error) {
	var cfg storeConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	iopts := store.Options{Retain: cfg.retain, NoSync: cfg.noSync}
	var st *store.Store
	var err error
	if cfg.backend != nil {
		st, err = store.OpenBackend(cfg.backend, iopts)
	} else {
		st, err = store.Open(dir, iopts)
	}
	if err != nil {
		return nil, fmt.Errorf("iupdater: %w", err)
	}
	return &Store{st: st}, nil
}

// Dir returns the store directory.
func (s *Store) Dir() string { return s.st.Dir() }

// Versions returns the retained snapshot versions in ascending order.
// The returned slice is the caller's to keep.
func (s *Store) Versions() []uint64 { return s.st.Versions() }

// RecordInfo describes how one retained snapshot version sits on disk:
// as a full snapshot record or, in a store written by an earlier
// version, as a delta record holding only the columns changed versus
// the previous version, and how many bytes the record occupies (framing
// header included). Either way, reads return the complete snapshot.
type RecordInfo struct {
	Version uint64 `json:"version"`
	// Kind is "full" or "delta".
	Kind string `json:"kind"`
	// Bytes is the on-disk record size, header included.
	Bytes int64 `json:"bytes"`
}

// Records returns, per retained version in ascending order, the record
// kind and on-disk footprint — the observable durability cost of each
// publish. The returned slice is the caller's to keep.
func (s *Store) Records() []RecordInfo {
	recs := s.st.Records()
	out := make([]RecordInfo, len(recs))
	for i, r := range recs {
		out[i] = RecordInfo{Version: r.Version, Kind: r.Kind.String(), Bytes: r.Bytes}
	}
	return out
}

// LatestVersion returns the newest stored version, 0 when the store is
// empty.
func (s *Store) LatestVersion() uint64 { return s.st.LastVersion() }

// OldestVersion returns the compaction horizon — the oldest retained
// version — or 0 when the store is empty. Rollback and replication
// resume cannot reach below it.
func (s *Store) OldestVersion() uint64 { return s.st.OldestVersion() }

// SnapshotAt reads the stored snapshot at the given version: the
// fingerprint matrix and the geometry it was published under.
func (s *Store) SnapshotAt(version uint64) (Matrix, Geometry, error) {
	payload, err := s.st.At(version)
	if err != nil {
		return Matrix{}, Geometry{}, fmt.Errorf("iupdater: %w", err)
	}
	fp, g, err := decodeSnapshot(payload)
	if err != nil {
		return Matrix{}, Geometry{}, fmt.Errorf("iupdater: snapshot v%d: %w", version, err)
	}
	return fp, g, nil
}

// SaveState atomically replaces the named auxiliary state blob stored
// alongside the snapshot log (write-temp, fsync, rename): either the
// previous blob or the new one survives a crash, never a torn mix. The
// drift monitor persists its calibrated baseline this way under
// "monitor"; serve mode keeps its fleet manifest under "manifest".
// Names must be non-empty and must not contain path separators.
func (s *Store) SaveState(name string, payload []byte) error {
	if err := s.st.SaveState(name, payload); err != nil {
		return fmt.Errorf("iupdater: %w", err)
	}
	return nil
}

// LoadState reads the named auxiliary state blob. A missing or
// corrupted blob reports ok=false with no error — state blobs are
// best-effort caches and advisory records, never required for recovery.
func (s *Store) LoadState(name string) (payload []byte, ok bool, err error) {
	payload, ok, err = s.st.LoadState(name)
	if err != nil {
		return nil, false, fmt.Errorf("iupdater: %w", err)
	}
	return payload, ok, nil
}

// Compactions returns how many log rewrites dropped history this store
// life — manual Compact calls and the automatic post-append retention
// policy alike.
func (s *Store) Compactions() uint64 { return s.st.Compactions() }

// Compact applies the retention policy now (see WithRetention).
func (s *Store) Compact() error {
	if err := s.st.Compact(); err != nil {
		return fmt.Errorf("iupdater: %w", err)
	}
	return nil
}

// Close releases the store. The owning Deployment must not publish
// afterwards.
func (s *Store) Close() error {
	err := s.st.Close()
	if err != nil {
		err = fmt.Errorf("iupdater: %w", err)
	}
	if s.closeErr != nil {
		// Join rather than replace, so an injected failure never masks a
		// real one.
		return errors.Join(s.closeErr, err)
	}
	return err
}

// appendSnapshot persists one published snapshot as a full record,
// fsynced before it returns.
func (s *Store) appendSnapshot(version uint64, g Geometry, fp Matrix) error {
	if err := s.st.Append(version, encodeSnapshot(g, fp)); err != nil {
		return fmt.Errorf("iupdater: persisting snapshot v%d: %w", version, err)
	}
	return nil
}

// latestSnapshot loads the newest stored snapshot.
func (s *Store) latestSnapshot() (version uint64, fp Matrix, g Geometry, err error) {
	version, payload, err := s.st.Latest()
	if err != nil {
		if errors.Is(err, store.ErrEmpty) {
			return 0, Matrix{}, Geometry{}, errors.New("iupdater: store holds no snapshots (create the deployment with NewDeployment and WithStore first)")
		}
		return 0, Matrix{}, Geometry{}, fmt.Errorf("iupdater: %w", err)
	}
	fp, g, err = decodeSnapshot(payload)
	if err != nil {
		return 0, Matrix{}, Geometry{}, fmt.Errorf("iupdater: snapshot v%d: %w", version, err)
	}
	return version, fp, g, nil
}

// Snapshot payload format v1 (all little-endian):
//
//	offset  size       field
//	0       1          format version (1)
//	1       8          geometry WidthM (float64 bits)
//	9       8          geometry HeightM (float64 bits)
//	17      4          geometry Links (uint32)
//	21      4          geometry PerStrip (uint32)
//	25      4          matrix rows (uint32)
//	29      4          matrix cols (uint32)
//	33      rows*cols*8  fingerprints, column-major float64 bits
//
// Delta records in stores written by earlier versions use the 33-byte
// prefix as their header and the rows*8-byte column as their chunk: a
// delta re-states the prefix and only the columns whose bits changed.
const (
	snapshotFormatV1  = 1
	snapshotHeaderLen = 33
)

func encodeSnapshot(g Geometry, fp Matrix) []byte {
	buf := make([]byte, snapshotHeaderLen+len(fp.data)*8)
	buf[0] = snapshotFormatV1
	binary.LittleEndian.PutUint64(buf[1:], math.Float64bits(g.WidthM))
	binary.LittleEndian.PutUint64(buf[9:], math.Float64bits(g.HeightM))
	binary.LittleEndian.PutUint32(buf[17:], uint32(g.Links))
	binary.LittleEndian.PutUint32(buf[21:], uint32(g.PerStrip))
	binary.LittleEndian.PutUint32(buf[25:], uint32(fp.rows))
	binary.LittleEndian.PutUint32(buf[29:], uint32(fp.cols))
	for i, v := range fp.data {
		binary.LittleEndian.PutUint64(buf[snapshotHeaderLen+i*8:], math.Float64bits(v))
	}
	return buf
}

func decodeSnapshot(b []byte) (Matrix, Geometry, error) {
	if len(b) < snapshotHeaderLen {
		return Matrix{}, Geometry{}, fmt.Errorf("payload of %d bytes is too short", len(b))
	}
	if b[0] != snapshotFormatV1 {
		return Matrix{}, Geometry{}, fmt.Errorf("unknown snapshot format %d", b[0])
	}
	g := Geometry{
		WidthM:   math.Float64frombits(binary.LittleEndian.Uint64(b[1:])),
		HeightM:  math.Float64frombits(binary.LittleEndian.Uint64(b[9:])),
		Links:    int(binary.LittleEndian.Uint32(b[17:])),
		PerStrip: int(binary.LittleEndian.Uint32(b[21:])),
	}
	rows := int(binary.LittleEndian.Uint32(b[25:]))
	cols := int(binary.LittleEndian.Uint32(b[29:]))
	if rows <= 0 || cols <= 0 || rows != g.Links || cols != g.NumCells() {
		return Matrix{}, Geometry{}, fmt.Errorf("matrix %dx%d inconsistent with geometry %+v", rows, cols, g)
	}
	if want := snapshotHeaderLen + rows*cols*8; len(b) != want {
		return Matrix{}, Geometry{}, fmt.Errorf("payload is %d bytes, want %d for %dx%d", len(b), want, rows, cols)
	}
	m := Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
	for i := range m.data {
		m.data[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[snapshotHeaderLen+i*8:]))
	}
	return m, g, nil
}
