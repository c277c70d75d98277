package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func open(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func payload(version uint64, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(version + uint64(i)*7)
	}
	return b
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	if _, _, err := s.Latest(); !errors.Is(err, ErrEmpty) {
		t.Fatalf("Latest on empty store: %v, want ErrEmpty", err)
	}
	for v := uint64(1); v <= 5; v++ {
		if err := s.Append(v, payload(v, 100+int(v))); err != nil {
			t.Fatal(err)
		}
	}
	v, p, err := s.Latest()
	if err != nil || v != 5 || !bytes.Equal(p, payload(5, 105)) {
		t.Fatalf("Latest = v%d, err %v", v, err)
	}
	for v := uint64(1); v <= 5; v++ {
		p, err := s.At(v)
		if err != nil || !bytes.Equal(p, payload(v, 100+int(v))) {
			t.Fatalf("At(%d): err %v", v, err)
		}
	}
	if _, err := s.At(99); err == nil {
		t.Error("At(99) on a store without it should fail")
	}
	want := []uint64{1, 2, 3, 4, 5}
	got := s.Versions()
	if len(got) != len(want) {
		t.Fatalf("Versions = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Versions = %v, want %v", got, want)
		}
	}
	if s.LastVersion() != 5 {
		t.Errorf("LastVersion = %d", s.LastVersion())
	}

	// Reopen: same contents survive the restart.
	s.Close()
	s2 := open(t, dir, Options{})
	if got := s2.Versions(); len(got) != 5 || got[4] != 5 {
		t.Fatalf("reopened Versions = %v", got)
	}
	p, err = s2.At(3)
	if err != nil || !bytes.Equal(p, payload(3, 103)) {
		t.Fatalf("reopened At(3): err %v", err)
	}
}

func TestStoreVersionMonotonicity(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	if err := s.Append(2, payload(2, 10)); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(2, payload(2, 10)); err == nil {
		t.Error("re-appending the same version should fail")
	}
	if err := s.Append(1, payload(1, 10)); err == nil {
		t.Error("appending a lower version should fail")
	}
	// Gaps are fine (e.g. after compaction elsewhere).
	if err := s.Append(10, payload(10, 10)); err != nil {
		t.Fatal(err)
	}
}

func TestStoreTruncatedTailRecovery(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	for v := uint64(1); v <= 3; v++ {
		if err := s.Append(v, payload(v, 64)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	logPath := filepath.Join(dir, logName)
	info, err := os.Stat(logPath)
	if err != nil {
		t.Fatal(err)
	}
	// Cut the tail record short at several depths: mid-payload,
	// header-only, and a single stray byte.
	for _, cut := range []int64{10, int64(64), headerSize + 63} {
		if err := os.Truncate(logPath, info.Size()-cut); err != nil {
			t.Fatal(err)
		}
		s2 := open(t, dir, Options{})
		got := s2.Versions()
		if len(got) != 2 || got[0] != 1 || got[1] != 2 {
			t.Fatalf("after cutting %d bytes: Versions = %v, want [1 2]", cut, got)
		}
		if v, p, err := s2.Latest(); err != nil || v != 2 || !bytes.Equal(p, payload(2, 64)) {
			t.Fatalf("after cutting %d bytes: Latest = v%d, err %v", cut, v, err)
		}
		// The store must be appendable again after recovery.
		if err := s2.Append(3, payload(3, 64)); err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
		s2.Close()
		info, err = os.Stat(logPath)
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestStoreFlippedByteRecovery(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	var offsets []int64
	for v := uint64(1); v <= 3; v++ {
		offsets = append(offsets, s.size)
		if err := s.Append(v, payload(v, 128)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	logPath := filepath.Join(dir, logName)

	flip := func(off int64) {
		t.Helper()
		b, err := os.ReadFile(logPath)
		if err != nil {
			t.Fatal(err)
		}
		b[off] ^= 0x40
		if err := os.WriteFile(logPath, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// A flipped payload byte in the tail record: recover to version 2.
	flip(offsets[2] + headerSize + 17)
	s2 := open(t, dir, Options{})
	if got := s2.Versions(); len(got) != 2 || got[1] != 2 {
		t.Fatalf("after tail payload flip: Versions = %v, want [1 2]", got)
	}
	s2.Close()

	// A flipped CRC byte in what is now the tail record: recover to v1.
	flip(offsets[1] + 16)
	s3 := open(t, dir, Options{})
	if got := s3.Versions(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("after CRC flip: Versions = %v, want [1]", got)
	}
	if v, p, err := s3.Latest(); err != nil || v != 1 || !bytes.Equal(p, payload(1, 128)) {
		t.Fatalf("after CRC flip: Latest = v%d, err %v", v, err)
	}
	s3.Close()

	// A flip in the first record's header leaves an empty (but usable)
	// store: recovery keeps the good prefix, which is empty.
	flip(2)
	s4 := open(t, dir, Options{})
	if got := s4.Versions(); len(got) != 0 {
		t.Fatalf("after header flip: Versions = %v, want empty", got)
	}
	if err := s4.Append(1, payload(1, 16)); err != nil {
		t.Fatalf("append after full recovery: %v", err)
	}
}

func TestStoreReadRechecksCRC(t *testing.T) {
	// Bytes that rot after Open (the index was built from a clean scan)
	// must still be caught on read.
	dir := t.TempDir()
	s := open(t, dir, Options{})
	if err := s.Append(1, payload(1, 256)); err != nil {
		t.Fatal(err)
	}
	// Corrupt behind the open handle's back.
	if _, err := s.f.WriteAt([]byte{0xFF}, int64(headerSize+100)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.At(1); err == nil {
		t.Error("At must fail its checksum after on-disk corruption")
	}
	if _, _, err := s.Latest(); err == nil {
		t.Error("Latest must fail its checksum after on-disk corruption")
	}
}

func TestStoreRetentionCompaction(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{Retain: 3})
	for v := uint64(1); v <= 10; v++ {
		if err := s.Append(v, payload(v, 512)); err != nil {
			t.Fatal(err)
		}
	}
	got := s.Versions()
	if len(got) > 2*3 {
		t.Fatalf("retention never compacted: %d versions live", len(got))
	}
	if got[len(got)-1] != 10 {
		t.Fatalf("Versions = %v, newest must be 10", got)
	}
	// Explicit compaction trims to exactly Retain.
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	got = s.Versions()
	if len(got) != 3 || got[0] != 8 || got[2] != 10 {
		t.Fatalf("after Compact: Versions = %v, want [8 9 10]", got)
	}
	if _, err := s.At(2); err == nil {
		t.Error("compacted-away version must not be readable")
	}
	for v := uint64(8); v <= 10; v++ {
		p, err := s.At(v)
		if err != nil || !bytes.Equal(p, payload(v, 512)) {
			t.Fatalf("At(%d) after compaction: err %v", v, err)
		}
	}
	// Appends keep working on the compacted log and survive a reopen.
	if err := s.Append(11, payload(11, 512)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2 := open(t, dir, Options{Retain: 3})
	got = s2.Versions()
	if len(got) != 4 || got[0] != 8 || got[3] != 11 {
		t.Fatalf("reopened after compaction: Versions = %v", got)
	}
}

func TestStoreConcurrentAppendDuringLatest(t *testing.T) {
	s := open(t, t.TempDir(), Options{NoSync: true})
	if err := s.Append(1, payload(1, 64)); err != nil {
		t.Fatal(err)
	}
	const appends = 50
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for v := uint64(2); v <= appends; v++ {
			if err := s.Append(v, payload(v, 64)); err != nil {
				errc <- err
				return
			}
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastSeen uint64
			for {
				select {
				case <-done:
					return
				default:
				}
				v, p, err := s.Latest()
				if err != nil {
					errc <- err
					return
				}
				if v < lastSeen {
					errc <- fmt.Errorf("Latest went backwards: %d after %d", v, lastSeen)
					return
				}
				lastSeen = v
				if !bytes.Equal(p, payload(v, 64)) {
					errc <- fmt.Errorf("Latest(v%d) returned torn payload", v)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if s.LastVersion() != appends {
		t.Errorf("LastVersion = %d, want %d", s.LastVersion(), appends)
	}
}

func TestStoreState(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	if _, ok, err := s.LoadState("monitor"); ok || err != nil {
		t.Fatalf("missing state: ok=%v err=%v", ok, err)
	}
	blob := []byte(`{"queries":123}`)
	if err := s.SaveState("monitor", blob); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.LoadState("monitor")
	if !ok || err != nil || !bytes.Equal(got, blob) {
		t.Fatalf("LoadState = %q ok=%v err=%v", got, ok, err)
	}
	// Overwrite is atomic-replace, not append.
	blob2 := []byte(`{"queries":456}`)
	if err := s.SaveState("monitor", blob2); err != nil {
		t.Fatal(err)
	}
	got, ok, _ = s.LoadState("monitor")
	if !ok || !bytes.Equal(got, blob2) {
		t.Fatalf("after overwrite: %q ok=%v", got, ok)
	}
	// A corrupt state file reads as absent, never an error.
	path := filepath.Join(dir, "monitor.state")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0x01
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.LoadState("monitor"); ok || err != nil {
		t.Fatalf("corrupt state: ok=%v err=%v, want absent", ok, err)
	}
	// Invalid names are rejected outright.
	if err := s.SaveState("../evil", nil); err == nil {
		t.Error("path-traversing state name accepted")
	}
	if err := s.SaveState("", nil); err == nil {
		t.Error("empty state name accepted")
	}
}

func TestStoreClosedOperationsFail(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	if err := s.Append(1, payload(1, 8)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("double Close: %v", err)
	}
	if err := s.Append(2, nil); err == nil {
		t.Error("Append after Close should fail")
	}
	if _, _, err := s.Latest(); err == nil {
		t.Error("Latest after Close should fail")
	}
}

func TestStoreAppendSurvivesCompactionFailure(t *testing.T) {
	// A failed auto-compaction must never fail the Append whose record
	// is already durable: a wedged version sequence would stop the
	// owning deployment from ever publishing again. Fault injection: a
	// directory squatting on the temp path makes the compaction rewrite
	// fail while appends (which go to the open log handle) still work.
	dir := t.TempDir()
	s := open(t, dir, Options{Retain: 2})
	if err := os.Mkdir(filepath.Join(dir, logName+".tmp"), 0o755); err != nil {
		t.Fatal(err)
	}
	for v := uint64(1); v <= 8; v++ {
		if err := s.Append(v, payload(v, 64)); err != nil {
			t.Fatalf("Append(%d) failed on compaction trouble: %v", v, err)
		}
	}
	// Retention was delayed, not enforced — and nothing was lost.
	got := s.Versions()
	if len(got) != 8 || got[7] != 8 {
		t.Fatalf("Versions = %v, want all 8 retained while compaction fails", got)
	}
	// The explicit path surfaces the error...
	if err := s.Compact(); err == nil {
		t.Fatal("Compact with a blocked temp path should fail")
	}
	// ...and once the obstruction clears, compaction recovers.
	if err := os.Remove(filepath.Join(dir, logName+".tmp")); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	got = s.Versions()
	if len(got) != 2 || got[0] != 7 || got[1] != 8 {
		t.Fatalf("after recovery: Versions = %v, want [7 8]", got)
	}
	if err := s.Append(9, payload(9, 64)); err != nil {
		t.Fatal(err)
	}
}

// deltaPayload builds a payload under layout {header, chunk} with the
// given header byte pattern and per-chunk fill.
func deltaPayload(layout chunkLayout, nchunks int, header byte, fill func(chunk int) byte) []byte {
	b := make([]byte, layout.headerLen+nchunks*layout.chunkSize)
	for i := 0; i < layout.headerLen; i++ {
		b[i] = header
	}
	for k := 0; k < nchunks; k++ {
		v := fill(k)
		chunk := b[layout.headerLen+k*layout.chunkSize : layout.headerLen+(k+1)*layout.chunkSize]
		for i := range chunk {
			chunk[i] = v
		}
	}
	return b
}

func TestStoreDeltaRoundTrip(t *testing.T) {
	dir := t.TempDir()
	layout := chunkLayout{headerLen: 5, chunkSize: 32}
	const nchunks = 40
	s := open(t, dir, Options{})

	base := deltaPayload(layout, nchunks, 1, func(int) byte { return 10 })
	if err := s.Append(1, base); err != nil {
		t.Fatal(err)
	}
	// Three deltas, each changing 2 chunks over its predecessor.
	want := [][]byte{base}
	cur := base
	for v := uint64(2); v <= 4; v++ {
		next := bytes.Clone(cur)
		next[0] = byte(v) // header changes too
		for _, k := range []int{int(v), int(v) + 7} {
			chunk := next[layout.headerLen+k*layout.chunkSize : layout.headerLen+(k+1)*layout.chunkSize]
			for i := range chunk {
				chunk[i] = byte(100 + v)
			}
		}
		appendDelta(t, s, v, next, layout)
		want = append(want, next)
		cur = next
	}

	check := func(s *Store, stage string) {
		t.Helper()
		for v := uint64(1); v <= 4; v++ {
			got, err := s.At(v)
			if err != nil {
				t.Fatalf("%s: At(%d): %v", stage, v, err)
			}
			if !bytes.Equal(got, want[v-1]) {
				t.Fatalf("%s: At(%d) materialized wrong payload", stage, v)
			}
		}
		lv, lp, err := s.Latest()
		if err != nil || lv != 4 || !bytes.Equal(lp, want[3]) {
			t.Fatalf("%s: Latest = v%d, err %v", stage, lv, err)
		}
	}
	check(s, "live")

	recs := s.Records()
	if len(recs) != 4 {
		t.Fatalf("Records = %+v", recs)
	}
	if recs[0].Kind != KindFull || recs[1].Kind != KindDelta || recs[3].Kind != KindDelta {
		t.Fatalf("record kinds %+v", recs)
	}
	fullBytes := recs[0].Bytes
	for _, r := range recs[1:] {
		if r.Bytes*2 >= fullBytes {
			t.Errorf("delta v%d is %d bytes, not under half the %d-byte full record", r.Version, r.Bytes, fullBytes)
		}
	}

	// The chain survives a reopen bit-identically, and the reopened
	// store appends after it.
	s.Close()
	s2 := open(t, dir, Options{})
	check(s2, "reopened")
	next := bytes.Clone(want[3])
	copy(next[layout.headerLen:layout.headerLen+layout.chunkSize], bytes.Repeat([]byte{0xEE}, layout.chunkSize))
	if err := s2.Append(5, next); err != nil {
		t.Fatal(err)
	}
	if got, err := s2.At(5); err != nil || !bytes.Equal(got, next) {
		t.Fatalf("At(5): %v", err)
	}
}

func TestStoreDeltaCompactionRebase(t *testing.T) {
	dir := t.TempDir()
	layout := chunkLayout{headerLen: 4, chunkSize: 32}
	const nchunks = 20
	s := open(t, dir, Options{Retain: 3})
	want := make(map[uint64][]byte)
	cur := deltaPayload(layout, nchunks, 0, func(int) byte { return 1 })
	if err := s.Append(1, cur); err != nil {
		t.Fatal(err)
	}
	want[1] = cur
	for v := uint64(2); v <= 5; v++ {
		cur = bytes.Clone(cur)
		cur[layout.headerLen+int(v)*layout.chunkSize] = byte(v)
		appendDelta(t, s, v, cur, layout)
		want[v] = cur
	}
	before := s.Records()
	// Versions 2..5 are deltas; retaining the newest 3 drops the full
	// base, so compaction must rebase v3 onto a fresh full record.
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	recs := s.Records()
	if len(recs) != 3 || recs[0].Version != 3 {
		t.Fatalf("Records after compact = %+v", recs)
	}
	if recs[0].Kind != KindFull {
		t.Fatalf("first retained record is %v, want full (rebased)", recs[0].Kind)
	}
	if recs[1].Kind != KindDelta || recs[2].Kind != KindDelta {
		t.Fatalf("suffix kinds %+v, want deltas preserved", recs)
	}
	if recs[1] != before[3] || recs[2] != before[4] {
		t.Fatalf("suffix records %+v, want the deltas %+v copied unchanged", recs[1:], before[3:])
	}
	for v := uint64(3); v <= 5; v++ {
		got, err := s.At(v)
		if err != nil || !bytes.Equal(got, want[v]) {
			t.Fatalf("At(%d) after rebase: %v", v, err)
		}
	}
	// The rebased log must also recover cleanly from disk.
	s.Close()
	s2 := open(t, dir, Options{Retain: 3})
	for v := uint64(3); v <= 5; v++ {
		got, err := s2.At(v)
		if err != nil || !bytes.Equal(got, want[v]) {
			t.Fatalf("reopened At(%d) after rebase: %v", v, err)
		}
	}
	// And appends continue.
	cur = bytes.Clone(want[5])
	cur[layout.headerLen] = 0xCC
	if err := s2.Append(6, cur); err != nil {
		t.Fatalf("append after rebase: %v", err)
	}
}

func TestStoreDeltaCorruptionTruncatesChainSuffix(t *testing.T) {
	dir := t.TempDir()
	layout := chunkLayout{headerLen: 0, chunkSize: 32}
	s := open(t, dir, Options{})
	cur := deltaPayload(layout, 16, 0, func(int) byte { return 1 })
	if err := s.Append(1, cur); err != nil {
		t.Fatal(err)
	}
	var offsets []int64
	for v := uint64(2); v <= 4; v++ {
		offsets = append(offsets, s.size)
		cur = bytes.Clone(cur)
		cur[int(v)*layout.chunkSize] = byte(v)
		appendDelta(t, s, v, cur, layout)
	}
	s.Close()
	// Flip a payload byte inside the middle delta (v3): recovery must
	// keep [1 2] — v4's delta depends on v3 and falls with it.
	logPath := filepath.Join(dir, logName)
	b, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	b[offsets[1]+headerSize+10] ^= 0x20
	if err := os.WriteFile(logPath, b, 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := open(t, dir, Options{})
	got := s2.Versions()
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("after mid-chain flip: Versions = %v, want [1 2]", got)
	}
	if _, err := s2.At(2); err != nil {
		t.Fatalf("surviving delta unreadable: %v", err)
	}
	if _, err := s2.At(3); err == nil {
		t.Error("corrupted version still readable")
	}
}

func TestStoreDeltaRecordNeverFirst(t *testing.T) {
	// A log that opens with a delta record (its base lost to some
	// external truncation) must recover to empty, not panic or index an
	// unresolvable record.
	dir := t.TempDir()
	layout := chunkLayout{headerLen: 0, chunkSize: 32}
	s := open(t, dir, Options{})
	cur := deltaPayload(layout, 16, 0, func(int) byte { return 1 })
	if err := s.Append(1, cur); err != nil {
		t.Fatal(err)
	}
	firstLen := s.size
	cur = bytes.Clone(cur)
	cur[0] = 9
	appendDelta(t, s, 2, cur, layout)
	s.Close()
	// Drop the leading full record, leaving the delta first.
	logPath := filepath.Join(dir, logName)
	b, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(logPath, b[firstLen:], 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := open(t, dir, Options{})
	if got := s2.Versions(); len(got) != 0 {
		t.Fatalf("orphan delta survived recovery: %v", got)
	}
	if err := s2.Append(1, []byte("fresh")); err != nil {
		t.Fatalf("append after orphan-delta recovery: %v", err)
	}
}
