package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// quickMatrix draws a random matrix with bounded dimensions and entries,
// suitable for testing/quick generators.
func quickMatrix(rng *rand.Rand, maxDim int) *Dense {
	r := 1 + rng.Intn(maxDim)
	c := 1 + rng.Intn(maxDim)
	m := New(r, c)
	for i := range m.data {
		m.data[i] = rng.NormFloat64() * 3
	}
	return m
}

func TestQuickTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := quickMatrix(rng, 10)
		return a.T().T().Equal(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestQuickAddCommutative(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := quickMatrix(rng, 10)
		b := New(a.rows, a.cols)
		for i := range b.data {
			b.data[i] = rng.NormFloat64()
		}
		return AddM(a, b).EqualApprox(AddM(b, a), 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestQuickMulTransposeIdentity(t *testing.T) {
	// (A*B)ᵀ == Bᵀ*Aᵀ
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + rng.Intn(8)
		k := 1 + rng.Intn(8)
		n := 1 + rng.Intn(8)
		a := RandomNormal(m, k, rng)
		b := RandomNormal(k, n, rng)
		return Mul(a, b).T().EqualApprox(Mul(b.T(), a.T()), 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestQuickFrobeniusTriangleInequality(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := quickMatrix(rng, 10)
		b := New(a.rows, a.cols)
		for i := range b.data {
			b.data[i] = rng.NormFloat64()
		}
		return FrobeniusNorm(AddM(a, b)) <= FrobeniusNorm(a)+FrobeniusNorm(b)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickNuclearDominatesFrobenius(t *testing.T) {
	// ||A||_* >= ||A||_F for every matrix.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := quickMatrix(rng, 8)
		return nuclearNorm(a) >= FrobeniusNorm(a)-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestQuickSVDReconstructs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := quickMatrix(rng, 10)
		return reconstruct(FactorSVD(a)).EqualApprox(a, 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestQuickSVDOperatorNormBound(t *testing.T) {
	// ||A x||₂ <= s_max ||x||₂ for all x.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := quickMatrix(rng, 8)
		x := make([]float64, a.cols)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		s := SingularValues(a)
		return math.Sqrt(VecNorm2Sq(mulVec(a, x))) <= s[0]*math.Sqrt(VecNorm2Sq(x))+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestQuickLUSolveResidual(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		a := RandomNormal(n, n, rng)
		for i := 0; i < n; i++ {
			a.Add(i, i, float64(2*n)) // well conditioned
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, err := Solve(a, b)
		if err != nil {
			return false
		}
		r := mulVec(a, x)
		for i := range r {
			if math.Abs(r[i]-b[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestQuickSVTNonExpansive(t *testing.T) {
	// Proximal operators are non-expansive:
	// ||prox(A) - prox(B)||F <= ||A - B||F.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := 2 + rng.Intn(5)
		c := 2 + rng.Intn(5)
		a := RandomNormal(r, c, rng)
		b := RandomNormal(r, c, rng)
		tau := rng.Float64() * 2
		d1 := FrobeniusNorm(SubM(svt(a, tau), svt(b, tau)))
		d2 := FrobeniusNorm(SubM(a, b))
		return d1 <= d2+1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestQuickShrink21NonExpansive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := 2 + rng.Intn(5)
		c := 2 + rng.Intn(5)
		a := RandomNormal(r, c, rng)
		b := RandomNormal(r, c, rng)
		tau := rng.Float64() * 2
		d1 := FrobeniusNorm(SubM(ShrinkColumns21Into(New(r, c), a, tau), ShrinkColumns21Into(New(r, c), b, tau)))
		d2 := FrobeniusNorm(SubM(a, b))
		return d1 <= d2+1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// --- destination-passing kernel layer ---
//
// Every *Into kernel must match its value-returning counterpart
// bit-for-bit, including with dst aliasing an operand where the kernel
// documents that as allowed.

// sparsify zeroes a random subset of entries, for the masked kernels.
func sparsify(m *Dense, rng *rand.Rand) {
	for i := range m.data {
		if rng.Float64() < 0.5 {
			m.data[i] = 0
		}
	}
}

func TestQuickElementwiseIntoMatchBitForBit(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := quickMatrix(rng, 10)
		b := RandomNormal(a.rows, a.cols, rng)
		s := rng.NormFloat64()
		dst := New(a.rows, a.cols)
		if !AddInto(dst, a, b).Equal(AddM(a, b)) {
			return false
		}
		if !SubInto(dst, a, b).Equal(SubM(a, b)) {
			return false
		}
		if !ScaleInto(dst, s, a).Equal(Scale(s, a)) {
			return false
		}
		if !HadamardInto(dst, a, b).Equal(Hadamard(a, b)) {
			return false
		}
		if !CopyInto(dst, a).Equal(a) {
			return false
		}
		// axpy: dst += s*a against the composed value form.
		base := RandomNormal(a.rows, a.cols, rng)
		want := AddM(base, Scale(s, a))
		got := base.Clone()
		if !AddScaledInto(got, s, a).Equal(want) {
			return false
		}
		// Documented aliasing: dst == a.
		alias := a.Clone()
		if !AddInto(alias, alias, b).Equal(AddM(a, b)) {
			return false
		}
		alias = a.Clone()
		if !SubInto(alias, b, alias).Equal(SubM(b, a)) {
			return false
		}
		alias = a.Clone()
		if !ScaleInto(alias, s, alias).Equal(Scale(s, a)) {
			return false
		}
		alias = a.Clone()
		if !HadamardInto(alias, alias, b).Equal(Hadamard(a, b)) {
			return false
		}
		alias = a.Clone()
		if !AddScaledInto(alias, s, alias).Equal(AddM(a, Scale(s, a))) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestQuickMultiplyIntoMatchBitForBit(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + rng.Intn(8)
		k := 1 + rng.Intn(8)
		n := 1 + rng.Intn(8)
		a := RandomNormal(m, k, rng)
		b := RandomNormal(k, n, rng)
		if !MulInto(New(m, n), a, b).Equal(Mul(a, b)) {
			return false
		}
		at := RandomNormal(k, m, rng)
		if !MulTAInto(New(m, n), at, b).Equal(MulTA(at, b)) {
			return false
		}
		bt := RandomNormal(n, k, rng)
		if !MulTBInto(New(m, n), a, bt).Equal(MulTB(a, bt)) {
			return false
		}
		idx := rng.Perm(k)[:1+rng.Intn(k)]
		if !SelectColsInto(New(m, len(idx)), a, idx).Equal(a.SelectCols(idx)) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestQuickMulBlockedMatchesNaive(t *testing.T) {
	// The cache-blocked kernel must equal the naive i-j-k triple loop
	// bit-for-bit (both accumulate each output element in ascending k
	// order), including for middle dimensions larger than one k tile.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + rng.Intn(4)
		k := 1 + rng.Intn(3*mulBlockK)
		n := 1 + rng.Intn(6)
		a := RandomNormal(m, k, rng)
		b := RandomNormal(k, n, rng)
		naive := New(m, n)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				var s float64
				for q := 0; q < k; q++ {
					s += a.data[i*k+q] * b.data[q*n+j]
				}
				naive.data[i*n+j] = s
			}
		}
		return Mul(a, b).Equal(naive)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestQuickMulSparseMatchesDense(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + rng.Intn(8)
		k := 1 + rng.Intn(8)
		n := 1 + rng.Intn(8)
		a := RandomNormal(m, k, rng)
		sparsify(a, rng)
		b := RandomNormal(k, n, rng)
		return MulSparseInto(New(m, n), a, b).Equal(Mul(a, b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestQuickProximalIntoMatchBitForBit(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := quickMatrix(rng, 8)
		tau := rng.Float64() * 2
		// A reused destination holding stale values gives the bits a
		// fresh one does.
		stale := func() *Dense { return RandomNormal(a.rows, a.cols, rng) }
		if !SVTInto(stale(), a, tau).Equal(svt(a, tau)) {
			return false
		}
		shrunk := ShrinkColumns21Into(New(a.rows, a.cols), a, tau)
		if !ShrinkColumns21Into(stale(), a, tau).Equal(shrunk) {
			return false
		}
		// Documented aliasing: ShrinkColumns21Into dst == a.
		alias := a.Clone()
		return ShrinkColumns21Into(alias, alias, tau).Equal(shrunk)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// spdMatrix builds a random well-conditioned SPD matrix.
func spdMatrix(rng *rand.Rand, n int) *Dense {
	a := RandomNormal(n, n, rng)
	s := MulTA(a, a)
	for i := 0; i < n; i++ {
		s.Add(i, i, float64(n))
	}
	return s
}

func TestQuickFactorIntoReuseMatchesFresh(t *testing.T) {
	// Refactoring through a reused Cholesky/LU must match a fresh
	// factorization bit-for-bit, as must the Into solves.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		a1 := spdMatrix(rng, n)
		a2 := spdMatrix(rng, n)
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}

		var reused Cholesky
		if reused.Factor(a1) != nil {
			return false
		}
		if reused.Factor(a2) != nil {
			return false
		}
		var fresh Cholesky
		if fresh.Factor(a2) != nil {
			return false
		}
		if !reused.l.Equal(fresh.l) {
			return false
		}
		x := make([]float64, n)
		reused.SolveVecInto(x, b)
		want := make([]float64, n)
		fresh.SolveVecInto(want, b)
		for i := range x {
			if x[i] != want[i] {
				return false
			}
		}
		// Aliased solve: x == b.
		alias := append([]float64(nil), b...)
		reused.SolveVecInto(alias, alias)
		for i := range alias {
			if alias[i] != want[i] {
				return false
			}
		}
		// Matrix SolveInto against column-wise SolveVecInto.
		bm := RandomNormal(n, 2+rng.Intn(4), rng)
		got := reused.SolveInto(New(bm.rows, bm.cols), bm)
		for j := 0; j < bm.cols; j++ {
			x := bm.Col(j)
			fresh.SolveVecInto(x, x)
			for i := range x {
				if got.At(i, j) != x[i] {
					return false
				}
			}
		}

		var lu LU
		if lu.Factor(a1) != nil {
			return false
		}
		if lu.Factor(a2) != nil {
			return false
		}
		luFresh, err := FactorLU(a2)
		if err != nil {
			return false
		}
		if !lu.lu.Equal(luFresh.lu) {
			return false
		}
		if err := lu.SolveVecInto(x, b); err != nil {
			return false
		}
		luWant, err := luFresh.SolveVec(b)
		if err != nil {
			return false
		}
		for i := range x {
			if x[i] != luWant[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestQuickSolveSymLowerTriangleMatchesFull(t *testing.T) {
	// SolveSymVecInto consumes normal matrices whose upper triangle was
	// never written; it must match its own solve of the full symmetric
	// form.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		full := spdMatrix(rng, n)
		lower := full.Clone()
		for c := 0; c < n; c++ {
			for d := c + 1; d < n; d++ {
				lower.Set(c, d, rng.NormFloat64()) // garbage upper
			}
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		var s SPDSolver
		want := make([]float64, n)
		if s.SolveSymVecInto(want, full, b) != nil {
			return false
		}
		x := make([]float64, n)
		if s.SolveSymVecInto(x, lower, b) != nil {
			return false
		}
		for i := range x {
			if x[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestWorkspaceReuseIsZeroedAndShaped(t *testing.T) {
	ws := new(Workspace)
	a := ws.Dense(4, 6)
	a.Set(2, 3, 7)
	back := a.RawData()
	ws.Free(a)
	// A smaller borrow must reuse the same backing array, zeroed.
	b := ws.Dense(3, 5)
	if r, c := b.Dims(); r != 3 || c != 5 {
		t.Fatalf("borrowed %dx%d, want 3x5", r, c)
	}
	if &b.RawData()[0] != &back[0] {
		t.Error("workspace did not reuse the freed buffer")
	}
	for i, v := range b.RawData() {
		if v != 0 {
			t.Fatalf("reused buffer not zeroed at %d: %v", i, v)
		}
	}
	// A larger borrow allocates fresh.
	c := ws.Dense(10, 10)
	if len(c.RawData()) != 100 {
		t.Fatalf("large borrow has %d elements", len(c.RawData()))
	}
	v := ws.Vec(5)
	v[0] = 3
	ws.FreeVec(v)
	v2 := ws.Vec(4)
	if v2[0] != 0 {
		t.Error("reused vector not zeroed")
	}
}

func TestQuickQRCPWorkspaceMatches(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := quickMatrix(rng, 10)
		ws := new(Workspace)
		got := FactorQRCPWorkspace(ws, a)
		want := FactorQRCP(a)
		if len(got.Perm) != len(want.Perm) || len(got.RDiag) != len(want.RDiag) {
			return false
		}
		for i := range got.Perm {
			if got.Perm[i] != want.Perm[i] {
				return false
			}
		}
		for i := range got.RDiag {
			if got.RDiag[i] != want.RDiag[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
