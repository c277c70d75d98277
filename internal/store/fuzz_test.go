package store

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzStoreOpen throws arbitrary bytes at the log recovery path: Open
// must never panic, must always leave a usable (appendable) store, and
// recovery must be idempotent — reopening the recovered log yields the
// same versions. The seed corpus covers the interesting shapes: a valid
// log, a torn tail, a flipped CRC, garbage, and — since delta records —
// a full+delta chain plus mutations that orphan or corrupt the chain.
//
// The body runs over an in-memory backend preloaded with the input, so
// an exec costs microseconds and the engine spends its budget fuzzing;
// the directory backend's recovery is covered by the store's truncated-
// tail, flipped-byte and backend-parity tests.
func FuzzStoreOpen(f *testing.F) {
	// Build a valid two-record log to seed from.
	seedDir := f.TempDir()
	s, err := Open(seedDir, Options{NoSync: true})
	if err != nil {
		f.Fatal(err)
	}
	if err := s.Append(1, []byte("first snapshot payload")); err != nil {
		f.Fatal(err)
	}
	if err := s.Append(7, bytes.Repeat([]byte{0xAB}, 300)); err != nil {
		f.Fatal(err)
	}
	s.Close()
	valid, err := os.ReadFile(filepath.Join(seedDir, logName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-5]) // torn tail
	torn := bytes.Clone(valid)
	torn[len(torn)-100] ^= 0x10 // flipped payload byte
	f.Add(torn)
	crcFlip := bytes.Clone(valid)
	crcFlip[16] ^= 0x01 // flipped CRC byte of record 1
	f.Add(crcFlip)
	f.Add([]byte{})
	f.Add([]byte("not a log at all"))

	// A full record anchoring a three-delta chain, and mutations of it:
	// a flipped byte inside a mid-chain delta payload, a truncated
	// chain tail, and the chain with its base cut off (orphan deltas).
	chainDir := f.TempDir()
	cs, err := Open(chainDir, Options{NoSync: true})
	if err != nil {
		f.Fatal(err)
	}
	layout := chunkLayout{headerLen: 7, chunkSize: 24}
	payload := bytes.Repeat([]byte{0x11}, layout.headerLen+12*layout.chunkSize)
	if err := cs.Append(1, payload); err != nil {
		f.Fatal(err)
	}
	firstRecLen := cs.size
	for v := uint64(2); v <= 4; v++ {
		payload = bytes.Clone(payload)
		payload[layout.headerLen+int(v)*layout.chunkSize] = byte(v)
		appendDelta(f, cs, v, payload, layout)
	}
	cs.Close()
	chain, err := os.ReadFile(filepath.Join(chainDir, logName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(chain)
	midFlip := bytes.Clone(chain)
	midFlip[firstRecLen+headerSize+deltaHeaderSize+3] ^= 0x04 // inside delta v2's payload
	f.Add(midFlip)
	f.Add(chain[:len(chain)-9])    // torn delta tail
	f.Add(chain[firstRecLen:])     // orphan deltas: base record cut off
	baseFlip := bytes.Clone(chain) // corrupt base under an intact chain
	baseFlip[headerSize+1] ^= 0x80
	f.Add(baseFlip)

	f.Fuzz(func(t *testing.T, data []byte) {
		b := NewMemory()
		lf, err := b.Create(logName)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := lf.WriteAt(data, 0); err != nil {
			t.Fatal(err)
		}
		lf.Close()
		s, err := OpenBackend(b, Options{NoSync: true})
		if err != nil {
			// Open only errors on real IO failures, never on corruption.
			t.Fatalf("Open on corrupt input: %v", err)
		}
		versions := s.Versions()
		for i := 1; i < len(versions); i++ {
			if versions[i] <= versions[i-1] {
				t.Fatalf("versions not strictly increasing: %v", versions)
			}
		}
		records := s.Records()
		if len(records) > 0 && records[0].Kind != KindFull {
			t.Fatalf("recovered log starts with a %v record", records[0].Kind)
		}
		// Every surviving record must materialize checksum-clean —
		// delta chains included.
		for _, v := range versions {
			if _, err := s.At(v); err != nil {
				t.Fatalf("At(%d) on recovered store: %v", v, err)
			}
		}
		// The recovered store accepts appends, and a delta over the new
		// tail still materializes.
		next := s.LastVersion() + 1
		if err := s.Append(next, bytes.Repeat([]byte{0x33}, 160)); err != nil {
			t.Fatalf("Append after recovery: %v", err)
		}
		dp := bytes.Repeat([]byte{0x33}, 160)
		dp[17] = 0x44
		appendDelta(t, s, next+1, dp, chunkLayout{headerLen: 0, chunkSize: 16})
		if got, err := s.At(next + 1); err != nil || !bytes.Equal(got, dp) {
			t.Fatalf("At(%d) after post-recovery delta append: %v", next+1, err)
		}
		s.Close()
		// Idempotence: a second recovery sees exactly what the first
		// left (plus the two appends).
		s2, err := OpenBackend(b, Options{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		defer s2.Close()
		got := s2.Versions()
		if len(got) != len(versions)+2 {
			t.Fatalf("reopen changed the version set: %v then %v", versions, got)
		}
		for i, v := range versions {
			if got[i] != v {
				t.Fatalf("reopen changed the version set: %v then %v", versions, got)
			}
		}
	})
}
