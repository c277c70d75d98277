package main

import (
	"math"
	"testing"
	"time"

	"iupdater/internal/trace"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{parent: -1, name: "root", start: 0, end: 100},
		{parent: 0, name: "a", start: 10, end: 30},
		{parent: 0, name: "b", start: 40, end: 70},
		{parent: 2, name: "b1", start: 45, end: 55},
		{parent: 2, name: "b2", start: 50, end: 60}, // overlaps b1
		{parent: 1, name: "a1", start: 25, end: 40}, // runs past its parent's end
		{parent: -1, name: "root2", start: 200, end: 210},
	}
	want := []int64{
		100 - 20 - 30, // root: a and b cover 50
		20 - 5,        // a: a1 covers 25..30 inside a
		30 - 15,       // b: b1 ∪ b2 = 45..60
		10, 10, 15,    // leaves
		10,
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].name, got[i], want[i])
		}
	}
	st := aggregate(spans)
	if u := st.unattributed("root"); math.Abs(u-0.5) > 1e-12 {
		t.Errorf("unattributed(root) = %g, want 0.5", u)
	}
	if u := st.unattributed("root2"); u != 1 {
		t.Errorf("unattributed(root2) = %g, want 1 (no children)", u)
	}
	if u := st.unattributed("missing"); u != 0 {
		t.Errorf("unattributed(missing) = %g, want 0", u)
	}
}

func TestRecorderOffRecordsNothing(t *testing.T) {
	r := newRecorder(false)
	root := r.root("locate")
	r.end(r.begin("child", root))
	r.end(root)
	if len(r.spans) != 0 || root != -1 {
		t.Fatalf("recorder off kept %d spans", len(r.spans))
	}
}

// TestImportTraceKeepsParents imports a program trace and checks the
// recorder's copy keeps its tree and its timing.
func TestImportTraceKeepsParents(t *testing.T) {
	tracer := trace.New(trace.Config{})
	r := newRecorder(true)
	tr := tracer.Start("update", "site")
	tr.Force()
	sp := tr.StartSpan("reconstruct")
	inner := tr.StartSpan("persist")
	time.Sleep(time.Millisecond)
	inner.End()
	sp.End()
	id := tr.ID()
	tr.Finish()
	td, ok := tracer.Get(id)
	if !ok {
		t.Fatal("forced trace not retained")
	}
	r.importTrace(td)
	if len(r.spans) != 3 {
		t.Fatalf("imported %d spans, want 3", len(r.spans))
	}
	if r.spans[0].parent != -1 || r.spans[1].parent != 0 || r.spans[2].parent != 1 {
		t.Errorf("parents = %d, %d, %d; want -1, 0, 1", r.spans[0].parent, r.spans[1].parent, r.spans[2].parent)
	}
	if r.spans[2].dur() < int64(time.Millisecond) || r.spans[1].start > r.spans[2].start {
		t.Errorf("imported timing off: %+v", r.spans)
	}
}
