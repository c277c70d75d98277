package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"runtime"
	"testing"
	"testing/iotest"
)

// streamAll concatenates the frames a leader would send for the store's
// whole retained history starting at from.
func streamAll(t *testing.T, s *Store, from uint64) []byte {
	t.Helper()
	frames, err := s.RecordFramesFrom(from)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, f := range frames {
		buf.Write(f)
	}
	return buf.Bytes()
}

// mixedStore builds a store whose log mixes full and delta records:
// v1 full, v2..v4 deltas, v5 full (a wholesale change),
// v6 delta. Returns the store and the materialized payload per version.
func mixedStore(t *testing.T, dir string) (*Store, map[uint64][]byte) {
	t.Helper()
	layout := chunkLayout{headerLen: 5, chunkSize: 16}
	const nchunks = 24
	s := open(t, dir, Options{NoSync: true})
	want := make(map[uint64][]byte)
	cur := deltaPayload(layout, nchunks, 1, func(int) byte { return 1 })
	if err := s.Append(1, cur); err != nil {
		t.Fatal(err)
	}
	want[1] = cur
	for v := uint64(2); v <= 4; v++ {
		cur = bytes.Clone(cur)
		cur[layout.headerLen+int(v)*layout.chunkSize] = byte(0x40 + v)
		appendDelta(t, s, v, cur, layout)
		want[v] = cur
	}
	cur = deltaPayload(layout, nchunks, 9, func(k int) byte { return byte(0x80 + k) })
	if err := s.Append(5, cur); err != nil {
		t.Fatal(err)
	}
	want[5] = cur
	cur = bytes.Clone(cur)
	cur[layout.headerLen+2*layout.chunkSize] = 0xEE
	appendDelta(t, s, 6, cur, layout)
	want[6] = cur
	return s, want
}

func TestRecordFramesFromResume(t *testing.T) {
	s, want := mixedStore(t, t.TempDir())

	// from=0 bootstraps at the newest full record (v5 here): a follower
	// with no state can materialize everything the stream carries.
	frames, err := s.RecordFramesFrom(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 2 {
		t.Fatalf("bootstrap returned %d frames, want 2 (v5 full, v6 delta)", len(frames))
	}
	var r Replay
	for _, f := range frames {
		if _, _, err := r.Apply(f); err != nil {
			t.Fatal(err)
		}
	}
	if r.version != 6 || !bytes.Equal(r.Payload(), want[6]) {
		t.Fatalf("bootstrap replay ended at v%d, payload match %v", r.version, bytes.Equal(r.Payload(), want[6]))
	}

	// A resume from mid-history returns every record at or after the
	// requested version, applicable over the preceding materialization.
	frames, err = s.RecordFramesFrom(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 4 {
		t.Fatalf("resume from 3 returned %d frames, want 4", len(frames))
	}
	r2 := Replay{version: 2, payload: bytes.Clone(want[2])}
	for _, f := range frames {
		if _, _, err := r2.Apply(f); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(r2.Payload(), want[6]) {
		t.Fatal("resumed replay did not converge to the leader's latest payload")
	}

	// A caught-up follower gets nothing, not an error.
	if frames, err = s.RecordFramesFrom(7); err != nil || len(frames) != 0 {
		t.Fatalf("beyond-tail resume: %d frames, err %v", len(frames), err)
	}
}

func TestRecordFramesFromCompactionHorizon(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{NoSync: true, Retain: 2})
	for v := uint64(1); v <= 5; v++ {
		if err := s.Append(v, payload(v, 128)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	oldest := s.OldestVersion()
	if oldest != 4 {
		t.Fatalf("OldestVersion = %d, want 4", oldest)
	}
	if _, err := s.RecordFramesFrom(2); !errors.Is(err, ErrCompacted) {
		t.Fatalf("resume below the horizon: err %v, want ErrCompacted", err)
	}
	// The horizon itself is still streamable, and bootstrap always works.
	if frames, err := s.RecordFramesFrom(oldest); err != nil || len(frames) != 2 {
		t.Fatalf("resume at the horizon: %d frames, err %v", len(frames), err)
	}
	if frames, err := s.RecordFramesFrom(0); err != nil || len(frames) == 0 {
		t.Fatalf("bootstrap after compaction: %d frames, err %v", len(frames), err)
	}
}

func TestReadFrameSplitsStream(t *testing.T) {
	s, _ := mixedStore(t, t.TempDir())
	stream := streamAll(t, s, 1)
	rd := bytes.NewReader(stream)
	var versions []uint64
	var r Replay
	for {
		frame, err := ReadFrame(rd)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		v, _, err := r.Apply(frame)
		if err != nil {
			t.Fatal(err)
		}
		versions = append(versions, v)
	}
	if len(versions) != 6 || versions[0] != 1 || versions[5] != 6 {
		t.Fatalf("framed versions %v", versions)
	}

	// A stream cut mid-frame is an ErrUnexpectedEOF, not a short frame.
	rd = bytes.NewReader(stream[:len(stream)-7])
	var got error
	for {
		_, err := ReadFrame(rd)
		if err != nil {
			got = err
			break
		}
	}
	if !errors.Is(got, io.ErrUnexpectedEOF) {
		t.Fatalf("torn stream: err %v, want ErrUnexpectedEOF", got)
	}

	// Garbage where a header should be fails before any payload read.
	if _, err := ReadFrame(bytes.NewReader(bytes.Repeat([]byte{0xFF}, 64))); err == nil {
		t.Fatal("garbage header accepted")
	}
}

// frameHeader is a record header claiming a payload of plen bytes.
func frameHeader(plen uint32) []byte {
	hdr := make([]byte, headerSize)
	binary.LittleEndian.PutUint32(hdr[0:4], recordMagic)
	binary.LittleEndian.PutUint32(hdr[12:16], plen)
	return hdr
}

// TestReadFrameAllocatesWhatArrives: a header alone may claim the
// largest legal payload; ReadFrame must fail with ErrUnexpectedEOF
// without first allocating the claimed gigabyte.
func TestReadFrameAllocatesWhatArrives(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadFrame(bytes.NewReader(frameHeader(maxPayload)))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("header-only stream: err %v, want ErrUnexpectedEOF", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("header-only stream allocated %d bytes, want < 1 MiB", got)
	}
}

// TestReadFrameGrowsAcrossChunks reads frames larger than frameChunk
// through a reader that returns short reads: the bytes come back
// intact, and a frame within frameChunk keeps one exact-size buffer.
func TestReadFrameGrowsAcrossChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, plen := range []int{0, 6197, frameChunk, frameChunk + 1, 5*frameChunk + 123} {
		payload := make([]byte, plen)
		rng.Read(payload)
		want := append(frameHeader(uint32(plen)), payload...)
		got, err := ReadFrame(iotest.HalfReader(bytes.NewReader(want)))
		if err != nil {
			t.Fatalf("plen %d: %v", plen, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("plen %d: frame bytes differ", plen)
		}
		if plen <= frameChunk && cap(got) != len(want) {
			t.Errorf("plen %d: frame capacity %d, want exactly %d", plen, cap(got), len(want))
		}
	}
}

func TestReplayRejectsCorruptFramesWithoutStateChange(t *testing.T) {
	s, want := mixedStore(t, t.TempDir())
	frames, err := s.RecordFramesFrom(1)
	if err != nil {
		t.Fatal(err)
	}
	var r Replay
	for _, f := range frames[:3] { // v1 full, v2, v3 deltas applied
		if _, _, err := r.Apply(f); err != nil {
			t.Fatal(err)
		}
	}
	check := func(desc string, frame []byte) {
		t.Helper()
		before := bytes.Clone(r.Payload())
		if _, _, err := r.Apply(frame); err == nil {
			t.Fatalf("%s accepted", desc)
		}
		if r.version != 3 || !bytes.Equal(r.Payload(), before) {
			t.Fatalf("%s mutated replay state", desc)
		}
	}
	flip := bytes.Clone(frames[3])
	flip[headerSize+deltaHeaderSize+2] ^= 0x20
	check("flipped delta payload byte", flip)
	crcFlip := bytes.Clone(frames[3])
	crcFlip[17] ^= 0x01
	check("flipped CRC", crcFlip)
	check("truncated frame", frames[3][:len(frames[3])-3])
	check("replayed old version", frames[1])
	orphan := bytes.Clone(frames[5]) // v6 delta: base (v5) never applied here
	check("delta skipping its base", orphan)

	// The replay stays resumable: the intact v4 frame still applies.
	if _, _, err := r.Apply(frames[3]); err != nil {
		t.Fatalf("intact frame after rejections: %v", err)
	}
	if !bytes.Equal(r.Payload(), want[4]) {
		t.Fatal("resumed replay diverged")
	}
	// And a fresh replay refuses to start mid-chain.
	var fresh Replay
	if _, _, err := fresh.Apply(frames[1]); err == nil {
		t.Fatal("fresh replay accepted a delta with no base")
	}
}

// FuzzReplayApply extends FuzzStoreOpen's corpus approach to the
// replica apply path: arbitrary bytes are framed off a stream and fed
// through a Replay. Whatever the input, the replay must never panic,
// must only ever hold payloads that a leader actually framed (applied
// versions strictly increase and every applied frame passed CRC +
// structural validation), and must remain resumable — after the fuzz
// stream, a valid full frame must still apply.
func FuzzReplayApply(f *testing.F) {
	seedDir := f.TempDir()
	s, err := Open(seedDir, Options{NoSync: true})
	if err != nil {
		f.Fatal(err)
	}
	layout := chunkLayout{headerLen: 5, chunkSize: 16}
	cur := bytes.Repeat([]byte{0x11}, layout.headerLen+24*layout.chunkSize)
	if err := s.Append(1, cur); err != nil {
		f.Fatal(err)
	}
	chainStart := s.size
	for v := uint64(2); v <= 4; v++ {
		cur = bytes.Clone(cur)
		cur[layout.headerLen+int(v)*layout.chunkSize] = byte(v)
		appendDelta(f, s, v, cur, layout)
	}
	frames, err := s.RecordFramesFrom(1)
	if err != nil {
		f.Fatal(err)
	}
	s.Close()
	var stream []byte
	for _, fr := range frames {
		stream = append(stream, fr...)
	}
	f.Add(stream)
	f.Add(stream[:len(stream)-9]) // torn mid-frame
	midFlip := bytes.Clone(stream)
	midFlip[chainStart+headerSize+deltaHeaderSize+1] ^= 0x08 // inside delta v2
	f.Add(midFlip)
	f.Add(stream[chainStart:]) // orphan deltas, no base
	f.Add([]byte{})
	f.Add([]byte("not a stream"))

	f.Fuzz(func(t *testing.T, data []byte) {
		var r Replay
		rd := bytes.NewReader(data)
		last := uint64(0)
		for {
			frame, err := ReadFrame(rd)
			if err != nil {
				break // torn or garbage stream: framing stops, no state harm
			}
			v, _, err := r.Apply(frame)
			if err != nil {
				continue // rejected frame must leave the replay usable
			}
			if v <= last {
				t.Fatalf("applied versions not increasing: %d then %d", last, v)
			}
			last = v
			if r.version != v {
				t.Fatalf("version %d after applying %d", r.version, v)
			}
		}
		// Never publish garbage: whatever the replay holds now, it must
		// be internally consistent (version 0 iff no payload ever set).
		if (r.version == 0) != (r.Payload() == nil) {
			t.Fatalf("replay state torn: version %d with payload %d bytes", r.version, len(r.Payload()))
		}
		// Resumable: a fresh full frame beyond any version the fuzz
		// stream could carry still applies.
		rec := frameRecord(recordMagic, ^uint64(0), []byte("recovery payload"))
		if _, _, err := r.Apply(rec); err != nil {
			t.Fatalf("replay not resumable after fuzz stream: %v", err)
		}
	})
}
