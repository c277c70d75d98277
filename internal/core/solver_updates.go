package core

import (
	"sync"
	"sync/atomic"

	"iupdater/internal/mat"
)

// The ALS sweeps below are the numeric hot path of the whole system:
// one closed-form ridge solve per column of R and per row of L, every
// iteration. They run against per-call scratch (solveCtx) borrowed from
// the solver's Workspace, so a full Reconstruct performs no per-column
// or per-iteration allocation.
//
// With WithConcurrency(n>1) the independent solves of one sweep are
// sharded over a bounded worker pool. The solves are only truly
// independent when Constraint 2's cross-entry couplings are absent
// (VariantPaper, or Constraint 2 disabled), where the parallel sweep is
// bit-identical to the sequential one. Under VariantGaussSeidel the
// couplings read the in-sweep iterate; the parallel sweep instead reads
// them from a snapshot of X_D taken at sweep start (a block-Jacobi
// coupling), which keeps the sweep race-free and bit-deterministic for
// every worker count, at the cost of a slightly different — still
// convergent — iteration than the sequential Gauss-Seidel order.

// solveCtx is the per-worker scratch of the closed-form solves: the
// r x r normal-equation matrix, right-hand side, gather buffers, and
// the reusable Cholesky storage of the SPD solver.
type solveCtx struct {
	a   *mat.Dense // r x r normal matrix (lower triangle + diagonal)
	rhs []float64
	sol []float64
	w   *mat.Dense // r x K continuity workspace (Gauss-Seidel updateL)
	wwt *mat.Dense // r x r (ThetaG)(ThetaG)T
	spd mat.SPDSolver
}

// newSolveCtx borrows a solve context from the solver's workspace.
// Contexts are created single-threaded (before any sweep goroutine
// starts) and each is owned by exactly one worker.
func (st *solverState) newSolveCtx() *solveCtx {
	cx := &solveCtx{
		a:   st.ws.Dense(st.r, st.r),
		rhs: st.ws.Vec(st.r),
		sol: st.ws.Vec(st.r),
	}
	if st.o.useC2 && st.o.variant == VariantGaussSeidel {
		cx.w = st.ws.Dense(st.r, st.k)
		cx.wwt = st.ws.Dense(st.r, st.r)
	}
	return cx
}

// free returns the context's buffers to the workspace.
func (cx *solveCtx) free(ws *mat.Workspace) {
	ws.Free(cx.a)
	ws.FreeVec(cx.rhs)
	ws.FreeVec(cx.sol)
	if cx.w != nil {
		ws.Free(cx.w)
		ws.Free(cx.wwt)
	}
}

// updateR performs one sweep of per-column closed-form solves for
// Θ = R̂ᵀ (Algorithm 1 line 3 / Eqn 24), holding L fixed. Sequential
// columns are solved in place, so later columns see earlier updates
// (Gauss-Seidel); with VariantPaper the coupling constants are zero and
// the sweep matches the paper's Jacobi-style closed form exactly.
func (st *solverState) updateR() {
	if st.p != nil {
		mat.MulTAInto(st.ltl, st.l, st.l) // Q3 of Algorithm 1
	}
	if len(st.par) > 0 {
		st.runSweep(st.n, st.solveColumnR)
		return
	}
	for j := 0; j < st.n; j++ {
		st.solveColumnR(j, st.seq, nil)
	}
}

// solveColumnR solves for column j of R. xd is nil for sequential
// (live Gauss-Seidel) sweeps, or the pre-sweep X_D snapshot for
// parallel sweeps.
func (st *solverState) solveColumnR(j int, cx *solveCtx, xd *mat.Dense) {
	r := st.r
	ii := j / st.k // owner link of column j
	jj := j % st.k // position along the strip

	ad := cx.a.RawData()
	for i := range ad {
		ad[i] = 0
	}
	for c := 0; c < r; c++ {
		ad[c*r+c] = lambda // Q1
	}
	rhs := cx.rhs
	for c := range rhs {
		rhs[c] = 0
	}

	n := st.n
	bd := st.in.B.RawData()
	xbd := st.in.XB.RawData()
	ld := st.l.RawData()

	// Data term: Q2 = (Diag(B(:,j))L)ᵀ(Diag(B(:,j))L),
	// C2 = (Diag(B(:,j))L)ᵀ XB(:,j).
	for i := 0; i < st.m; i++ {
		if bd[i*n+j] != 1 {
			continue
		}
		lrow := ld[i*r : (i+1)*r]
		addScaledOuter(cx.a, st.wData, lrow)
		xb := xbd[i*n+j]
		for c := 0; c < r; c++ {
			rhs[c] += st.wData * xb * lrow[c]
		}
	}

	// Constraint 1: Q3 = LᵀL, C3 = Lᵀ P(:,j). Like addScaledOuter, the
	// symmetric Gram is added to the lower triangle only.
	if st.p != nil {
		ltl := st.ltl.RawData()
		for c := 0; c < r; c++ {
			row := ad[c*r : c*r+c+1]
			for d, v := range ltl[c*r : c*r+c+1] {
				row[d] += st.wC1 * v
			}
		}
		pd := st.p.RawData()
		for i := 0; i < st.m; i++ {
			pij := pd[i*n+j]
			if pij == 0 {
				continue
			}
			lrow := ld[i*r : (i+1)*r]
			for c := 0; c < r; c++ {
				rhs[c] += st.wC1 * pij * lrow[c]
			}
		}
	}

	// Constraint 2: Q4/Q5 quadratic terms on the owner link's row of
	// L; couplings on the RHS for the Gauss-Seidel variant.
	if st.o.useC2 {
		li := ld[ii*r : (ii+1)*r]
		gw := st.ggt.At(jj, jj)
		hw := st.hth.At(ii, ii)
		addScaledOuter(cx.a, st.wC2G*gw+st.wC2H*hw, li)

		if st.o.variant == VariantGaussSeidel {
			// C4: continuity coupling along the strip.
			var crossG float64
			for q := 0; q < st.k; q++ {
				if q == jj {
					continue
				}
				if w := st.ggt.At(q, jj); w != 0 {
					crossG += w * st.xdAt(ii, q, xd)
				}
			}
			// C5: similarity coupling across links, with hardware
			// offsets calibrated out.
			crossH := -hw * st.offsets[ii]
			for mIdx := 0; mIdx < st.m; mIdx++ {
				if mIdx == ii {
					continue
				}
				if w := st.hth.At(ii, mIdx); w != 0 {
					crossH += w * (st.xdAt(mIdx, jj, xd) - st.offsets[mIdx])
				}
			}
			for c := 0; c < r; c++ {
				rhs[c] -= (st.wC2G*crossG + st.wC2H*crossH) * li[c]
			}
		}
	}

	st.solveInto(cx, st.rm, j)
}

// updateL performs one sweep of per-row closed-form solves for L̂
// (Algorithm 1 line 4), holding R fixed.
func (st *solverState) updateL() {
	if st.p != nil {
		mat.MulTAInto(st.rtr, st.rm, st.rm)
	}
	if len(st.par) > 0 {
		st.runSweep(st.m, st.solveRowL)
		return
	}
	for i := 0; i < st.m; i++ {
		st.solveRowL(i, st.seq, nil)
	}
}

// solveRowL solves for row i of L. xd is nil for sequential sweeps, or
// the pre-sweep X_D snapshot for parallel sweeps.
func (st *solverState) solveRowL(i int, cx *solveCtx, xd *mat.Dense) {
	r := st.r

	ad := cx.a.RawData()
	for idx := range ad {
		ad[idx] = 0
	}
	for c := 0; c < r; c++ {
		ad[c*r+c] = lambda
	}
	rhs := cx.rhs
	for c := range rhs {
		rhs[c] = 0
	}

	n := st.n
	bd := st.in.B.RawData()
	xbd := st.in.XB.RawData()
	rmd := st.rm.RawData()

	// Data term over known entries of row i.
	for j := 0; j < n; j++ {
		if bd[i*n+j] != 1 {
			continue
		}
		theta := rmd[j*r : (j+1)*r]
		addScaledOuter(cx.a, st.wData, theta)
		xb := xbd[i*n+j]
		for c := 0; c < r; c++ {
			rhs[c] += st.wData * xb * theta[c]
		}
	}

	// Constraint 1 (lower triangle only, as in solveColumnR).
	if st.p != nil {
		rtr := st.rtr.RawData()
		for c := 0; c < r; c++ {
			row := ad[c*r : c*r+c+1]
			for d, v := range rtr[c*r : c*r+c+1] {
				row[d] += st.wC1 * v
			}
		}
		pd := st.p.RawData()
		for j := 0; j < n; j++ {
			pij := pd[i*n+j]
			if pij == 0 {
				continue
			}
			rrow := rmd[j*r : (j+1)*r]
			for c := 0; c < r; c++ {
				rhs[c] += st.wC1 * pij * rrow[c]
			}
		}
	}

	// Constraint 2 on strip i: Θ_i is the r x K block of R-rows
	// belonging to link i's strip.
	if st.o.useC2 {
		switch st.o.variant {
		case VariantGaussSeidel:
			// Exact continuity quadratic: (Θ_i G)(Θ_i G)ᵀ, built in the
			// per-context workspace (hoisted out of the row loop).
			w := cx.w
			wd := w.RawData()
			gd := st.g.RawData()
			for c := 0; c < r; c++ {
				for q := 0; q < st.k; q++ {
					var s float64
					for u := 0; u < st.k; u++ {
						if g := gd[u*st.k+q]; g != 0 {
							s += rmd[(i*st.k+u)*r+c] * g
						}
					}
					wd[c*st.k+q] = s
				}
			}
			mat.MulTBInto(cx.wwt, w, w)
			wwt := cx.wwt.RawData()
			for c := 0; c < r; c++ {
				row := ad[c*r : c*r+c+1]
				for d, v := range wwt[c*r : c*r+c+1] {
					row[d] += st.wC2G * v
				}
			}
			// Similarity: quadratic hth(i,i)·Θ_iΘ_iᵀ plus RHS
			// coupling to the other links' calibrated rows.
			hw := st.hth.At(i, i)
			for u := 0; u < st.k; u++ {
				theta := rmd[(i*st.k+u)*r : (i*st.k+u+1)*r]
				addScaledOuter(cx.a, st.wC2H*hw, theta)
				cross := -hw * st.offsets[i]
				for mIdx := 0; mIdx < st.m; mIdx++ {
					if mIdx == i {
						continue
					}
					if wgt := st.hth.At(i, mIdx); wgt != 0 {
						cross += wgt * (st.xdAt(mIdx, u, xd) - st.offsets[mIdx])
					}
				}
				for c := 0; c < r; c++ {
					rhs[c] -= st.wC2H * cross * theta[c]
				}
			}
		case VariantPaper:
			// Diagonal-only quadratic terms, zero couplings — the
			// transposed MyInverse call of Algorithm 1 line 4.
			hw := st.hth.At(i, i)
			for u := 0; u < st.k; u++ {
				theta := rmd[(i*st.k+u)*r : (i*st.k+u+1)*r]
				addScaledOuter(cx.a, st.wC2G*st.ggt.At(u, u)+st.wC2H*hw, theta)
			}
		}
	}

	st.solveInto(cx, st.l, i)
}

// runSweep shards the independent solves of one sweep over the
// parallel solve contexts. When Gauss-Seidel couplings are active they
// are read from a pre-sweep X_D snapshot, so the result is deterministic
// for every worker count and the sweep is race-free: workers write
// disjoint rows of the destination factor and read only matrices fixed
// for the duration of the sweep.
func (st *solverState) runSweep(n int, solve func(int, *solveCtx, *mat.Dense)) {
	workers := len(st.par)
	if workers > n {
		workers = n
	}
	var snap *mat.Dense
	if st.xdSnap != nil {
		st.fillXD(st.xdSnap)
		snap = st.xdSnap
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		cx := st.par[w]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= n {
					return
				}
				solve(k, cx, snap)
			}
		}()
	}
	wg.Wait()
}

// xdAt returns X_D(i, u) = (LRᵀ)(i, i*K+u): live from the current
// factors during sequential Gauss-Seidel sweeps, or from the per-sweep
// snapshot during parallel sweeps.
func (st *solverState) xdAt(i, u int, snap *mat.Dense) float64 {
	if snap != nil {
		return snap.At(i, u)
	}
	return st.entry(i, i*st.k+u)
}

// solveInto solves cx.a*x = cx.rhs and writes x into row `row` of dst,
// leaving the row unchanged if the system is numerically singular (the
// ridge term makes that effectively unreachable).
func (st *solverState) solveInto(cx *solveCtx, dst *mat.Dense, row int) {
	if err := cx.spd.SolveSymVecInto(cx.sol, cx.a, cx.rhs); err != nil {
		return
	}
	copy(dst.RawData()[row*st.r:(row+1)*st.r], cx.sol)
}

// addScaledOuter adds the lower triangle of w * v vᵀ to a in place. The
// upper triangle is left untouched: the normal matrices built here go
// straight into SolveSymVecInto, whose Cholesky path reads only the
// lower triangle (and whose rare LU fallback mirrors it up first).
func addScaledOuter(a *mat.Dense, w float64, v []float64) {
	if w == 0 {
		return
	}
	ad := a.RawData()
	n := len(v)
	for c := 0; c < n; c++ {
		if v[c] == 0 {
			continue
		}
		wc := w * v[c]
		row := ad[c*n : c*n+c+1]
		for d, vd := range v[:c+1] {
			row[d] += wc * vd
		}
	}
}
