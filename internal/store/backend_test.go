package store

import (
	"bytes"
	"errors"
	"io"
	"io/fs"
	"testing"
)

// backends returns one fresh instance of every Backend implementation,
// keyed by name, for contract tests that must hold across all of them.
func backends(t *testing.T) map[string]Backend {
	t.Helper()
	return map[string]Backend{
		"dir":    NewDir(t.TempDir()),
		"memory": NewMemory(),
	}
}

// TestBackendContract drives the raw Backend surface through the
// operations the store depends on: open-or-create, positioned IO,
// truncate, inode-style rename, ReadFile's fs.ErrNotExist, and List.
func TestBackendContract(t *testing.T) {
	for name, b := range backends(t) {
		t.Run(name, func(t *testing.T) {
			if _, err := b.ReadFile("absent"); !errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("ReadFile(absent) = %v, want fs.ErrNotExist", err)
			}
			f, err := b.Open("log")
			if err != nil {
				t.Fatal(err)
			}
			if n, err := f.WriteAt([]byte("hello world"), 0); err != nil || n != 11 {
				t.Fatalf("WriteAt = %d, %v", n, err)
			}
			// Sparse write past the end zero-fills the gap.
			if _, err := f.WriteAt([]byte("X"), 16); err != nil {
				t.Fatal(err)
			}
			if size, err := f.Size(); err != nil || size != 17 {
				t.Fatalf("Size = %d, %v, want 17", size, err)
			}
			buf := make([]byte, 17)
			if _, err := f.ReadAt(buf, 0); err != nil {
				t.Fatal(err)
			}
			if want := "hello world\x00\x00\x00\x00\x00X"; string(buf) != want {
				t.Fatalf("content %q, want %q", buf, want)
			}
			// Short read at the tail reports io.EOF with the bytes read.
			short := make([]byte, 4)
			if n, err := f.ReadAt(short, 15); n != 2 || err != io.EOF {
				t.Fatalf("tail ReadAt = %d, %v, want 2, io.EOF", n, err)
			}
			if err := f.Truncate(5); err != nil {
				t.Fatal(err)
			}
			if size, _ := f.Size(); size != 5 {
				t.Fatalf("post-truncate size %d", size)
			}
			if err := f.Sync(); err != nil {
				t.Fatal(err)
			}

			// An open handle survives being renamed over: inode semantics.
			g, err := b.Create("log2")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := g.WriteAt([]byte("second"), 0); err != nil {
				t.Fatal(err)
			}
			if err := b.Rename("log2", "log"); err != nil {
				t.Fatal(err)
			}
			old := make([]byte, 5)
			if _, err := f.ReadAt(old, 0); err != nil {
				t.Fatalf("replaced handle read: %v", err)
			}
			if string(old) != "hello" {
				t.Fatalf("replaced handle reads %q, want the pre-rename bytes", old)
			}
			if got, err := b.ReadFile("log"); err != nil || string(got) != "second" {
				t.Fatalf("post-rename ReadFile = %q, %v", got, err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			if _, err := f.ReadAt(old, 0); err == nil {
				t.Fatal("read through a closed handle succeeded")
			}
			if err := g.Close(); err != nil {
				t.Fatal(err)
			}

			names, err := b.List()
			if err != nil {
				t.Fatal(err)
			}
			if len(names) != 1 || names[0] != "log" {
				t.Fatalf("List = %v, want [log]", names)
			}
			if err := b.Remove("log"); err != nil {
				t.Fatal(err)
			}
			if err := b.Remove("log"); !errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("double Remove = %v, want fs.ErrNotExist", err)
			}
			if err := b.Sync(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestBackendStoreParity runs a full store life — appends, deltas,
// state blobs, compaction, restart — over each backend and demands the
// same observable behavior, including bit-identical log bytes between
// the directory and memory backends.
func TestBackendStoreParity(t *testing.T) {
	layout := chunkLayout{headerLen: 4, chunkSize: 64}
	payload := func(v uint64, hot byte) []byte {
		p := make([]byte, 4+8*64)
		p[0] = byte(v)
		p[4+64] = hot // one hot chunk keeps deltas under the half-size rule
		return p
	}
	run := func(t *testing.T, b Backend) {
		s, err := OpenBackend(b, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Append(1, payload(1, 0)); err != nil {
			t.Fatal(err)
		}
		for v := uint64(2); v <= 5; v++ {
			appendDelta(t, s, v, payload(v, byte(v)), layout)
		}
		if err := s.SaveState("mon", []byte("calibrated")); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}

		// Restart over the same backend: the in-memory analogue of
		// reopening the directory.
		s2, err := OpenBackend(b, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer s2.Close()
		if got := s2.Versions(); len(got) != 5 || got[0] != 1 || got[4] != 5 {
			t.Fatalf("post-restart versions %v", got)
		}
		v, p, err := s2.Latest()
		if err != nil || v != 5 {
			t.Fatalf("Latest = v%d, %v", v, err)
		}
		if !bytes.Equal(p, payload(5, 5)) {
			t.Fatal("latest payload does not materialize bit-identically")
		}
		if blob, ok, err := s2.LoadState("mon"); err != nil || !ok || string(blob) != "calibrated" {
			t.Fatalf("LoadState = %q, %v, %v", blob, ok, err)
		}
	}
	logBytes := make(map[string][]byte)
	for name, b := range backends(t) {
		t.Run(name, func(t *testing.T) {
			run(t, b)
			raw, err := b.ReadFile(logName)
			if err != nil {
				t.Fatal(err)
			}
			logBytes[name] = raw
		})
	}
	if dir, mem := logBytes["dir"], logBytes["memory"]; !bytes.Equal(dir, mem) {
		t.Fatalf("log bytes differ between backends: dir %d bytes, memory %d bytes", len(dir), len(mem))
	}
}

// TestBackendStoreCompactionAndCorruption: retention compaction (the
// rename-over-live-log path) and corrupt-tail recovery behave the same
// through every backend.
func TestBackendStoreCompactionAndCorruption(t *testing.T) {
	for name, b := range backends(t) {
		t.Run(name, func(t *testing.T) {
			s, err := OpenBackend(b, Options{Retain: 2})
			if err != nil {
				t.Fatal(err)
			}
			for v := uint64(1); v <= 4; v++ {
				if err := s.Append(v, []byte{byte(v), 1, 2, 3}); err != nil {
					t.Fatal(err)
				}
			}
			if got := s.Versions(); len(got) != 2 || got[0] != 3 {
				t.Fatalf("post-compaction versions %v", got)
			}
			if s.Compactions() == 0 {
				t.Fatal("retention never compacted")
			}
			// Reads through the post-rename handle still verify.
			if p, err := s.At(4); err != nil || p[0] != 4 {
				t.Fatalf("At(4) = %v, %v", p, err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}

			// Flip a payload bit in the newest record: recovery must
			// truncate back to the last good record, not fail open.
			raw, err := b.ReadFile(logName)
			if err != nil {
				t.Fatal(err)
			}
			f, err := b.Open(logName)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteAt([]byte{raw[len(raw)-1] ^ 0xFF}, int64(len(raw)-1)); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			s2, err := OpenBackend(b, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			if got := s2.Versions(); len(got) != 1 || got[0] != 3 {
				t.Fatalf("post-corruption versions %v, want [3]", got)
			}
		})
	}
}
