package mat

import "sync"

// Workspace is a free-list of matrix and vector buffers for hot loops
// that would otherwise allocate per iteration: borrow with Dense/Vec,
// return with Free/FreeVec, and the backing arrays (and the Dense
// headers themselves) are recycled. Borrowed matrices are always
// zeroed.
//
// A Workspace is not safe for concurrent use; each goroutine should
// hold its own (GetWorkspace hands out pooled instances cheaply).
// Buffers not returned before Release are simply dropped to the garbage
// collector — forgetting a Free leaks nothing, it only costs a future
// allocation.
type Workspace struct {
	mats []*Dense
	vecs [][]float64
}

// workspacePool recycles Workspaces — and, through them, their buffers —
// across solver calls.
var workspacePool = sync.Pool{New: func() any { return new(Workspace) }}

// GetWorkspace borrows a workspace from the process-wide pool. Pair with
// Release.
func GetWorkspace() *Workspace { return workspacePool.Get().(*Workspace) }

// Release returns the workspace — with every buffer currently on its
// free list — to the process-wide pool. The caller must not use w, or
// any matrix still borrowed from it, afterwards.
func (w *Workspace) Release() { workspacePool.Put(w) }

// Dense borrows a zeroed r x c matrix, reusing the smallest pooled
// buffer that fits (the free lists stay short, so a linear best-fit
// scan is cheaper than bucketing).
func (w *Workspace) Dense(r, c int) *Dense {
	if r <= 0 || c <= 0 {
		panic("mat: Workspace.Dense requires positive dimensions")
	}
	need := r * c
	best := -1
	for i, m := range w.mats {
		if cap(m.data) < need {
			continue
		}
		if best < 0 || cap(m.data) < cap(w.mats[best].data) {
			best = i
		}
	}
	if best < 0 {
		return New(r, c)
	}
	m := w.mats[best]
	last := len(w.mats) - 1
	w.mats[best] = w.mats[last]
	w.mats[last] = nil
	w.mats = w.mats[:last]
	m.rows, m.cols = r, c
	m.data = m.data[:need]
	for i := range m.data {
		m.data[i] = 0
	}
	return m
}

// Free returns a matrix borrowed with Dense to the free list. m must not
// be used afterwards. Matrices from other sources may also be donated.
func (w *Workspace) Free(m *Dense) {
	if m == nil || cap(m.data) == 0 {
		return
	}
	w.mats = append(w.mats, m)
}

// Vec borrows a zeroed length-n vector.
func (w *Workspace) Vec(n int) []float64 {
	if n < 0 {
		panic("mat: Workspace.Vec requires non-negative length")
	}
	best := -1
	for i, v := range w.vecs {
		if cap(v) < n {
			continue
		}
		if best < 0 || cap(v) < cap(w.vecs[best]) {
			best = i
		}
	}
	if best < 0 {
		return make([]float64, n)
	}
	v := w.vecs[best][:n]
	last := len(w.vecs) - 1
	w.vecs[best] = w.vecs[last]
	w.vecs[last] = nil
	w.vecs = w.vecs[:last]
	for i := range v {
		v[i] = 0
	}
	return v
}

// FreeVec returns a vector borrowed with Vec to the free list.
func (w *Workspace) FreeVec(v []float64) {
	if cap(v) == 0 {
		return
	}
	w.vecs = append(w.vecs, v)
}
