package store

import (
	"encoding/binary"
	"testing"
)

// BenchmarkStoreAppendLoad measures one durable publish + warm-load
// round trip: Append of an office-sized snapshot payload (8 links x 96
// cells of float64, ~6 KiB) followed by Latest. fsync dominates the
// wall time; the regression metric is allocs/op — the documented budget
// is <= 12 allocs per round trip (one record buffer and one payload
// read buffer, plus fixed fsync/index overhead), enforced by
// scripts/bench.sh.
func BenchmarkStoreAppendLoad(b *testing.B) {
	s, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	payload := make([]byte, 8*96*8)
	for i := 0; i < len(payload); i += 8 {
		binary.LittleEndian.PutUint64(payload[i:], uint64(i)*0x9E3779B97F4A7C15)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Append(uint64(i+1), payload); err != nil {
			b.Fatal(err)
		}
		if _, p, err := s.Latest(); err != nil || len(p) != len(payload) {
			b.Fatalf("Latest: %v", err)
		}
	}
}

// BenchmarkReplicaApply measures the follower side of replication:
// applying a pre-framed delta record (office-sized snapshot, ~10% of
// columns changed) to a Replay. The delta patches the materialized
// payload in place, so the steady state allocates nothing — the
// regression metric is allocs/op with a budget of <= 4 (headroom for
// the occasional map/slice growth inside the CRC table lookup paths),
// enforced by scripts/bench.sh.
func BenchmarkReplicaApply(b *testing.B) {
	layout := chunkLayout{headerLen: 33, chunkSize: 8 * 8}
	base := make([]byte, layout.headerLen+96*layout.chunkSize)
	for i := 0; i+8 <= len(base); i += 8 {
		binary.LittleEndian.PutUint64(base[i:], uint64(i)*0x9E3779B97F4A7C15)
	}
	// A ring of delta frames, each chaining onto the previous: frame k
	// carries version k+2 over base version k+1. The ring is rebuilt
	// from the same starting payload, so after the last frame the
	// payload returns to a state from which frame 0's base re-applies —
	// we instead reset the Replay each cycle outside the timer.
	const ring = 256
	frames := make([][]byte, 0, ring)
	cur := append([]byte(nil), base...)
	prev := append([]byte(nil), base...)
	for k := 0; k < ring; k++ {
		for c := 0; c < 9; c++ {
			off := layout.headerLen + ((k*9+c)%96)*layout.chunkSize
			binary.LittleEndian.PutUint64(cur[off:], uint64(k+c)|1)
		}
		frame := encodeDeltaRecord(uint64(k+2), cur, prev, uint64(k+1), layout)
		if frame == nil {
			b.Fatal("delta encoding fell back to full")
		}
		frames = append(frames, frame)
		copy(prev, cur)
	}
	full := frameRecord(recordMagic, 1, base)
	r := &Replay{}
	if _, _, err := r.Apply(full); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % ring
		if k == 0 && i > 0 {
			b.StopTimer()
			r = &Replay{}
			if _, _, err := r.Apply(full); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		if _, _, err := r.Apply(frames[k]); err != nil {
			b.Fatal(err)
		}
	}
}
